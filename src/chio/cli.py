"""Command-line interface: condensation, measures, censuses, verification.

All numeric output is exact (integers and log2 exponents; no floats).
Reports are JSON (sorted keys) or, with ``--format`` where a command has
it (``csv`` on failures, census, ranks; ``table`` or ``json`` on verify),
another form, all written by :func:`emit` and byte-stable for fixed flags.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .matrix_core import (
    PartialTernaryMatrix,
    SignMatrix,
    abs_condense,
    chio_condense,
    json_int,
    matrix_from_json_dict,
)
from .measures import Event, p_chio, p_lcf, ratio_chio_lcf, recipe_p_chio
from .signed_graph import build_graph, classify_isotype, isotype_and_betti, matrix_balance
from . import SUITES, __version__, parallel

# The commands that use failure_enum, census_oracle, switching or verify
# import them when they run: census_oracle and verify load numpy, which no
# other command needs, and only failures and formulas use failure_enum.


class UsageError(Exception):
    pass


# switch-orbit lists the orbit and every balanced signing, 2^(f0 - beta0)
# of each; past this rank that exhausts time and memory.
ORBIT_RANK_LIMIT = 16


def json_rows(text: str) -> list[list[int | None]]:
    """JSON rows whose entries are integers or null, never a bool or float."""
    rows = json.loads(text)
    for row in rows:
        for v in row:
            if v is not None:
                json_int(v)
    return rows


def parse_sign_matrix(text: str) -> SignMatrix:
    """Sign matrix from JSON rows or compact '+-' row strings."""
    text = text.strip()
    if text.startswith("{"):
        raise UsageError("sign matrices use row lists or compact strings")
    try:
        if text.startswith("["):
            return SignMatrix.from_rows(json_rows(text))
        return SignMatrix.from_compact(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed sign matrix input: {exc}") from exc


def parse_ternary_matrix(text: str, n: int | None = None) -> PartialTernaryMatrix:
    """Ternary matrix from JSON rows, a {dims, entries} object, or rows of
    '+', '-', '0' with '.' for unspecified positions."""
    text = text.strip()
    dims = (n, n) if n is not None else None
    try:
        if text.startswith("{"):
            matrix = matrix_from_json_dict(json.loads(text))
            if dims is not None and matrix.dims != dims:
                raise UsageError(f"--n {n} disagrees with the matrix dims {list(matrix.dims)}")
            return matrix
        if text.startswith("["):
            return PartialTernaryMatrix.from_rows(json_rows(text), dims)
        return PartialTernaryMatrix.from_compact(text, dims)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed matrix input: {exc}") from exc


def event_report(matrix: PartialTernaryMatrix) -> dict:
    """The standard JSON record for one entry-specification event."""
    event = Event.on_full_grid(matrix)
    ratio = ratio_chio_lcf(event)
    graph = build_graph(matrix)
    return {
        "B": matrix.to_json_dict(),
        "J": sorted([i, j] for i, j in event.ambient.members),
        "p_chio": p_chio(event).to_json_dict(),
        "p_lcf": p_lcf(event).to_json_dict(),
        "ratio_log2": None if ratio == 0 else ratio.bit_length() - 1,
        "isotype": classify_isotype(graph).label,
    }


def check_writable(path: str) -> None:
    """Raise OSError unless ``path`` can be opened for writing; leave it as it was."""
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def emit(report, args, csv_rows=None) -> None:
    """Write to stdout or ``--out``: CSV under ``--format csv``, else text as is, or JSON."""
    if getattr(args, "format", None) == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        text = buf.getvalue()
    elif isinstance(report, str):
        text = report
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_condense(args) -> int:
    matrix = parse_sign_matrix(args.matrix)
    condensed = abs_condense(matrix) if args.abs else chio_condense(matrix)
    emit(condensed.to_json_dict(), args)
    return 0


def cmd_pchio(args) -> int:
    matrix = parse_ternary_matrix(args.matrix, args.n)
    emit(event_report(matrix), args)
    return 0


def cmd_recipe(args) -> int:
    matrix = parse_ternary_matrix(args.matrix, args.n)
    if matrix.dom > 6:
        raise UsageError("the recipe needs at most six specified entries")
    report = event_report(matrix)
    report["recipe"] = recipe_p_chio(matrix).to_json_dict()
    report["agrees"] = report["recipe"] == report["p_chio"]
    emit(report, args)
    return 0


def cmd_classify(args) -> int:
    matrix = parse_ternary_matrix(args.matrix, args.n)
    graph = build_graph(matrix)
    isotype, data = isotype_and_betti(graph)
    emit(
        {
            "graph": graph.to_json_dict(),
            "isotype": isotype.label,
            "betti": {
                "f0": data.f0,
                "f1": data.f1,
                "beta0": data.beta0,
                "beta1": data.beta1,
            },
            "balanced": matrix_balance(matrix)[0],
        },
        args,
    )
    return 0


def cmd_failures(args) -> int:
    from .failure_enum import CountReport, count_failures, failure_count_formula

    if args.formula_only:
        report = failure_count_formula(args.k, args.n)
    else:
        report = count_failures(args.k, args.n)
    emit(report.to_json_dict(), args, [CountReport.csv_header(), report.to_csv_row()])
    return 0


def cmd_formulas(args) -> int:
    from .failure_enum import (
        check_linear_relations,
        failure_density_bound,
        h_counts,
        realization_table,
        xi,
    )

    n = args.n
    h_c6, h_k23, h_c4, h_geq = h_counts(n)
    payload = {
        "n": n,
        "xi": xi(n),
        "h_counts": {
            "c6": h_c6,
            "k23": h_k23,
            "c4_not_k23": h_c4,
            "geq": h_geq,
        },
        "realizations": {
            str(k): {t.label: v for t, v in realization_table(k, n).items()}
            for k in (4, 5, 6)
        },
        "linear_relations": check_linear_relations(n),
        "density_bounds": {
            str(k): dict(zip(("count", "bound"), failure_density_bound(k, n)))
            for k in range(1, 7)
        },
    }
    emit(payload, args)
    return 0


def _dims(args) -> tuple[int, int]:
    """``(s, t)`` from ``--s``/``--t``, each defaulting to ``--n``."""
    s = args.n if args.s is None else args.s
    t = args.n if args.t is None else args.t
    if s is None or t is None:
        raise UsageError(f"{args.command} needs --n or both --s and --t")
    return s, t


def _rank_rows(header: list[str], *histograms) -> list[list]:
    """CSV rows: the header, then each rank with its count in every histogram
    (blank past a histogram's end)."""
    width = max(len(h) for h in histograms)
    rows = [[r] + [int(h[r]) if r < len(h) else "" for h in histograms] for r in range(width)]
    return [header] + rows


def cmd_census(args) -> int:
    from .census_oracle import CensusConfig, run_census

    s, t = _dims(args)
    if args.resume and not args.checkpoint:
        raise UsageError("--resume needs --checkpoint")
    if args.checkpoint:
        # A save writes beside the path and moves the file over it.
        check_writable(args.checkpoint)
        check_writable(args.checkpoint + ".tmp")
    cfg = CensusConfig(dims=(s, t), worker_count=args.workers, checkpoint_path=args.checkpoint)
    aggregates = ["rank_pm", "rank_cond", "rank_drop_violations"]
    if (s - 1) * (t - 1) <= 9:
        aggregates.append("edge_pairs")
    result = run_census(cfg, aggregates=tuple(aggregates), resume=args.resume)
    rows = _rank_rows(["rank", "sign_matrices", "condensates"], result.rank_pm, result.rank_cond)
    emit(result.to_json_dict(), args, rows)
    return 0


def cmd_ranks(args) -> int:
    from .census_oracle import rank_census

    s, t = _dims(args)
    census = rank_census(s, t, workers=args.workers)
    payload = census.to_json_dict()
    rows = _rank_rows(
        ["rank", "sign_matrices", "condensates", "binary_patterns"],
        census.pm_rank_counts,
        census.condensate_rank_counts,
        census.binary_rank_counts,
    )
    emit(payload, args, rows)
    return 0 if payload["checks"]["all_ok"] else 1


def cmd_switch_orbit(args) -> int:
    from .switching import balanced_signings, orbit, signing_tuple

    matrix = parse_ternary_matrix(args.matrix)
    balanced, rank = matrix_balance(matrix)
    if rank > ORBIT_RANK_LIMIT:
        raise UsageError(f"the orbit has 2^{rank} signings, past 2^{ORBIT_RANK_LIMIT}")
    graph = build_graph(matrix)
    orb = sorted(orbit(graph))
    expected = 2**rank
    payload = {
        "edges": sorted([i, j] for i, j in graph.edges),
        "balanced": balanced,
        "orbit_size": len(orb),
        "balanced_signings": expected,
        "orbit_is_balanced_set": balanced
        and sorted(signing_tuple(g) for g in balanced_signings(graph)) == orb,
    }
    if len(orb) <= 64:
        payload["orbit"] = [list(sig) for sig in orb]
    emit(payload, args)
    return 0


def _timings_record(names: list[str], checks: list[dict]) -> dict:
    """Per suite, its seconds, check count, failures and each check's
    seconds, from the ``suite`` and ``seconds`` that ``run_suites`` stamps;
    every figure is rounded here, and only here."""
    groups = {name: [] for name in names}
    for entry in checks:
        groups[entry["suite"]].append(entry)
    suites = []
    for name, part in groups.items():
        # A suite named twice runs twice; its checks' seconds add up.
        check_seconds = {}
        for e in part:
            check_seconds[e["check"]] = check_seconds.get(e["check"], 0.0) + e["seconds"]
        suites.append(
            {
                "suite": name,
                "seconds": round(sum(check_seconds.values()), 4),
                "checks": len(part),
                "failed": sum(not e["ok"] for e in part),
                "check_seconds": {check: round(s, 4) for check, s in check_seconds.items()},
            }
        )
    return {"seconds": round(sum(e["seconds"] for e in checks), 4), "suites": suites}


def cmd_verify(args) -> int:
    from .verify import run_suites

    names = []
    for item in args.suite:
        names.extend(part for part in item.split(",") if part)
    if not names or "all" in names:
        names = list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise UsageError(f"unknown suite {unknown[0]!r}; choose from {', '.join(SUITES)} or 'all'")
    if args.timings:
        # Refused before any work; written only once every suite has run.
        check_writable(args.timings)
    checks = run_suites(names, big=args.big, workers=args.workers)
    if args.timings:
        with open(args.timings, "w") as fh:
            fh.write(json.dumps(_timings_record(names, checks), sort_keys=True, indent=2) + "\n")
    ok = all(entry["ok"] for entry in checks)
    if args.format == "json":
        report = [
            {k: v for k, v in entry.items() if k != "seconds"} for entry in checks
        ]
    else:
        lines = [
            f"{'PASS' if entry['ok'] else 'FAIL'}  [{entry['suite']}] {entry['check']}"
            for entry in checks
        ]
        lines.append(
            f"{'OK' if ok else 'FAILED'}: "
            f"{sum(e['ok'] for e in checks)}/{len(checks)} checks passed"
        )
        report = "\n".join(lines) + "\n"
    emit(report, args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chio",
        description="Exact Chio condensation: measures, censuses, verification.",
    )
    parser.add_argument("--version", action="version", version=f"chio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix=False, dims=False, workers=False, formats=()):
        if matrix:
            p.add_argument("--matrix", required=True, help="matrix literal (JSON or compact rows)")
            p.add_argument("--n", type=int, help="grid size override for compact input")
        if dims:
            p.add_argument("--n", type=int, help="square size (sets s = t = n)")
            p.add_argument("--s", type=int)
            p.add_argument("--t", type=int)
        p.add_argument("--out", help="write the report to a file")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if workers:
            p.add_argument("--workers", type=int, help="worker count (default: CHIO_WORKERS or CPU count)")

    p = sub.add_parser("condense", help="half Chio condensation of a sign matrix")
    common(p)
    p.add_argument("--matrix", required=True, help="sign matrix (JSON or compact '+-' rows)")
    p.add_argument("--abs", action="store_true", help="entrywise absolute value")
    p.set_defaults(func=cmd_condense)

    p = sub.add_parser("pchio", help="measures of an entry-specification event")
    common(p, matrix=True)
    p.set_defaults(func=cmd_pchio)

    p = sub.add_parser("recipe", help="small-domain recipe evaluation (dom <= 6)")
    common(p, matrix=True)
    p.set_defaults(func=cmd_recipe)

    p = sub.add_parser("classify", help="graph, Betti data and isomorphism type")
    common(p, matrix=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("failures", help="failure census for one (k, n)")
    common(p, formats=("json", "csv"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula-only", action="store_true", help="skip enumeration")
    p.set_defaults(func=cmd_failures)

    p = sub.add_parser("formulas", help="closed-form tables at one n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_formulas)

    p = sub.add_parser("census", help="exhaustive sign-matrix census")
    common(p, dims=True, workers=True, formats=("json", "csv"))
    p.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p.add_argument("--resume", action="store_true", help="resume from the checkpoint")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("ranks", help="rank level-set census and identities")
    common(p, dims=True, workers=True, formats=("json", "csv"))
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("switch-orbit", help="switching orbit of a signing")
    common(p)
    p.add_argument("--matrix", required=True, help="matrix literal (JSON or compact rows)")
    p.set_defaults(func=cmd_switch_orbit)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, workers=True, formats=("table", "json"))
    p.add_argument(
        "--suite",
        action="append",
        default=[],
        help=f"suite name or comma list; one of {', '.join(SUITES)} or 'all'",
    )
    p.add_argument("--big", action="store_true", help="add the n = 5 and 2^25-scale checks")
    p.add_argument(
        "--timings",
        help="write each suite's and each check's seconds, and the check counts, to this JSON file",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "workers"):
            # A worker count below 1, from --workers or CHIO_WORKERS, is
            # refused before any work, whether or not a pool would start.
            parallel.resolve_workers(args.workers)
        if args.out:
            check_writable(args.out)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # Imported here: the traceback module costs every start a few ms.
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
