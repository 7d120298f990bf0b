"""The timed passes of one run, in a fresh interpreter; the child of ``run.py``.

    python3 -m perfbench.measure --workload NAME --seed N --trace 0|1 \
        --seconds T --workers W --profile-workers P --out DIR

A pass runs the workload once over its seeded inputs, with
:class:`perfbench.reference.Meter` timing the host's speed between its
pieces.  Untraced, the child runs passes until the next one would end
after ``T`` seconds, and at least one.  Traced, it runs the layer profile
first, at ``P`` workers, which also warms the process up, then three
passes: untraced, traced and untraced, so a drift in the host's speed
that is linear over the three cancels from the tracing overhead.  It
writes the spans of the profile and of the traced pass to ``DIR``.
Either way the last stdout line is one JSON object.  Peak memory is read
when the process ends: this process and its largest worker.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from perfbench import layers, workloads
from perfbench.reference import Meter
from perfbench.spans import OFF, Tracer


def one_pass(workload: str, inputs: dict, expected: dict, tracer, workers: int, tmp_dir: str):
    """Run the workload once: (its sample, the workload's result)."""
    gc.collect()
    meter = Meter(workloads.REFERENCE[workload])
    t0 = time.perf_counter()
    meter.start()
    result = workloads.RUN[workload](inputs, expected, tracer, workers, tmp_dir, meter.tick)
    meter.stop()
    return {
        "norm_wall_s": meter.normalised_s(),
        "wall_s": meter.work_s,
        "speed": meter.speed,
        "reference_blocks": meter.blocks,
        "pass_s": time.perf_counter() - t0,
    }, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.measure")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--profile-workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    inputs = workloads.GENERATE[args.workload](args.seed)
    expected = workloads.PREPARE[args.workload](inputs)
    checks = workloads.Checks()
    layer_values = {}

    if args.trace:
        profile_tracer = Tracer()
        checks.add(layers.run_profile(profile_tracer, args.seed, args.profile_workers, args.out))
        workload_tracer = Tracer()
        samples = []
        for tracer in (OFF, workload_tracer, OFF):
            sample, result = one_pass(args.workload, inputs, expected, tracer,
                                      args.workers, args.out)
            checks.add(result["checks"])
            samples.append(sample)
        before, traced, after = (sample["norm_wall_s"] for sample in samples)
        layer_values = layers.layer_metrics(profile_tracer, [traced - before, traced - after])
        path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload_tracer.spans, "profile": profile_tracer.spans}, fh)
    else:
        samples = []
        t0 = time.perf_counter()
        while True:
            sample, result = one_pass(args.workload, inputs, expected, OFF, args.workers, args.out)
            checks.add(result["checks"])
            samples.append(sample)
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.median(s["pass_s"] for s in samples) > args.seconds:
                break

    described = {name: (unit, moves) for name, unit, _, moves in layers.METRICS}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "size": result["size"],
        "samples": samples,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "peak_rss_kb": {"main": own, "largest_worker": kids},
        "layers": {
            name: [value, described[name][0], f"{base}; should move {described[name][1]}"]
            for name, (value, base) in layer_values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
