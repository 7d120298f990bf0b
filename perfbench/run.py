"""Run one workload of the chio benchmark and print its metrics.

    python3 perfbench/run.py --workload events|failures|census \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the library is imported from
``src`` there, so nothing needs installing.  The timed passes run in one
fresh child interpreter (``perfbench.measure``), so its peak memory
belongs to this run alone.  Times are normalised to the host's nominal
speed by an interleaved reference loop (``perfbench.reference``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the layer profile.  The lines
before it are a run header and a table of every metric with its unit;
``perfbench/out`` receives the same record as JSON, plus the spans of a
traced run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import reference  # noqa: E402  (after the path set-up above)

OUT = BENCH / "out"
WORKLOADS = ("events", "failures", "census")
WORKLOAD_WORKERS = 1  # one process, so the interleaved reference sees what the workload sees
SETUP_STARTS = 21
SETUP_IMPORT = "import chio.cli"  # every layer of the library, numpy included
# One start: reference blocks on either side of the timed import, in the same
# fresh interpreter; it prints the import's seconds and the blocks' seconds.
SETUP_REF_BLOCKS = 4  # on each side; together about as long as the import
SETUP_CODE = f"""
import time
from perfbench import reference
before, _ = reference.run_blocks(reference.PYTHON, at_least={SETUP_REF_BLOCKS})
t0 = time.perf_counter()
{SETUP_IMPORT}
elapsed = time.perf_counter() - t0
after, _ = reference.run_blocks(reference.PYTHON, at_least={SETUP_REF_BLOCKS})
print(elapsed, before + after)
"""
# A run stops its child after --seconds plus this much: room for the set-up
# starts, a pass that overruns, or a traced run's profile and three passes.
SLACK_S = 145.0


def pinned_workers() -> int:
    """Worker count of the layer profile's calls: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.pop("CHIO_WORKERS", None)
    # chio makes no BLAS calls, but importing numpy starts one BLAS thread per
    # CPU; on a busy 2-vCPU host that start-up made the import 28% slower
    # while single-threaded code slowed 4%.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def setup_seconds(env: dict[str, str]) -> tuple[float, list[dict]]:
    """Median time for a fresh interpreter to import the library, at nominal host speed.

    Each start times ``import chio.cli`` inside a fresh interpreter and
    scales it by the speed of the Python reference blocks run just before
    and after it in that interpreter (:data:`SETUP_CODE`).  One untimed
    start first, so byte-compilation is not counted.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    starts = []
    for _ in range(SETUP_STARTS + 1):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"`{SETUP_IMPORT}` failed with exit code {proc.returncode}")
        elapsed, ref_s = (float(v) for v in proc.stdout.split())
        speed = reference.PYTHON.nominal_s * 2 * SETUP_REF_BLOCKS / ref_s
        starts.append({"setup_s": elapsed * speed, "raw_s": elapsed, "speed": speed})
    return statistics.median(s["setup_s"] for s in starts[1:]), starts[1:]


def run_child(args, workers: int, env: dict[str, str], budget: float) -> dict:
    """The ``perfbench.measure`` process; its last stdout line as a dict."""
    cmd = [
        sys.executable, "-m", "perfbench.measure",
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        "--seconds", str(args.seconds), "--workers", str(WORKLOAD_WORKERS),
        "--profile-workers", str(workers), "--out", str(OUT),
    ]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload did not finish within {budget:.0f} s") from None
    try:
        # A worker the child failed to join would still be in its group.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "chio" / "__init__.py").is_file():
        print(f"error: no chio sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    workers = pinned_workers()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    try:
        setup = setup_seconds(env) if not args.trace else None
        child = run_child(args, workers, env, args.seconds + SLACK_S - (time.perf_counter() - started))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples = child["samples"]
    attempted = child["attempted"]
    failed = child["failed"]
    messages = child["messages"]

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "workers": WORKLOAD_WORKERS,
        "profile_workers": workers,
        "python": child["python"],
        "numpy": child["numpy"],
        "commit": git_commit(),
        "input_size": child["size"],
        "passes": len(samples),
    }
    table: list[tuple[str, float, str, str]] = []
    if args.trace:
        table = [(name, value, unit, base) for name, (value, unit, base) in child["layers"].items()]
    else:
        n = len(samples)
        peak = (child["peak_rss_kb"]["main"] + child["peak_rss_kb"]["largest_worker"]) / 1024
        table = [
            ("norm_wall_s", statistics.median(s["norm_wall_s"] for s in samples), "s",
             f"median of {n} pass(es), wall seconds at nominal host speed"),
            ("peak_rss_mb", peak, "MB", "main process + largest worker"),
            ("setup_s", setup[0], "s",
             f"median of {SETUP_STARTS} fresh `{SETUP_IMPORT}`, at nominal host speed"),
        ]
        info = [
            ("wall_s", statistics.median(s["wall_s"] for s in samples), "s",
             "raw wall seconds, median over the passes"),
            ("speed", statistics.median(s["speed"] for s in samples), "ratio",
             "host speed over nominal, median over the passes"),
            ("raw_setup_s", statistics.median(s["raw_s"] for s in setup[1]), "s",
             "raw set-up seconds, median over the starts"),
        ]
    ratio = failed / attempted if attempted else 1.0

    print("# header " + json.dumps(header, sort_keys=True))
    for name, value, unit, base in table:
        print(f"{name:50s} {value:>16.6g} {unit:6s} {base}")
    if not args.trace:
        for name, value, unit, base in info:
            print(f"# {name:48s} {value:>16.6g} {unit:6s} {base}")
    print(f"{'check_fail_ratio':50s} {ratio:>16.6g} {'ratio':6s} {failed} failed of {attempted} checks")
    for message in messages:
        print(f"# check failed: {message}")
    record = {
        "header": header,
        "samples": samples,
        "peak_rss_kb": child["peak_rss_kb"],
        "metrics": {name: {"value": value, "unit": unit, "base": base}
                    for name, value, unit, base in table},
        "check_fail_ratio": ratio,
        "check_messages": messages,
    }
    if setup:
        record["setup_starts"] = setup[1]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
