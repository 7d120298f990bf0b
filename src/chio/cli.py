"""Command-line interface: condensation, measures, censuses, verification.

All numeric output is exact (integers and log2 exponents; no floats).
Reports are JSON (sorted keys) or CSV and byte-stable for fixed flags.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .matrix_core import (
    PartialTernaryMatrix,
    SignMatrix,
    abs_condense,
    chio_condense,
    matrix_from_json_dict,
)
from .measures import Event, p_chio, p_lcf, ratio_chio_lcf, recipe_p_chio
from .signed_graph import balance_and_betti, build_graph, classify_isotype
from .failure_enum import (
    CountReport,
    check_linear_relations,
    count_failures,
    failure_count_formula,
    failure_density_bound,
    h_counts,
    realization_table,
)
from .census_oracle import BudgetExceeded, CensusConfig, rank_census, run_census
from .switching import balanced_signings, orbit, signing_tuple
from .verify import SUITES, run_suites
from . import __version__


class UsageError(Exception):
    pass


def parse_sign_matrix(text: str) -> SignMatrix:
    """Sign matrix from JSON rows or compact '+-' row strings."""
    text = text.strip()
    if text.startswith("[") or text.startswith("{"):
        data = json.loads(text)
        if isinstance(data, dict):
            raise UsageError("sign matrices use row lists or compact strings")
        return SignMatrix.from_rows(data)
    return SignMatrix.from_compact(text)


def parse_ternary_matrix(text: str, n: int | None = None) -> PartialTernaryMatrix:
    """Ternary matrix from JSON rows, a {dims, entries} object, or rows of
    '+', '-', '0' with '.' for unspecified positions."""
    text = text.strip()
    dims = (n, n) if n else None
    try:
        if text.startswith("{"):
            return matrix_from_json_dict(json.loads(text))
        if text.startswith("["):
            rows = json.loads(text)
            return PartialTernaryMatrix.from_rows(rows, dims)
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


def emit(payload, args, csv_rows=None) -> None:
    """Write JSON (default) or CSV to stdout or --out."""
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise UsageError("this command has no CSV form")
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
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
    balanced, _, data = balance_and_betti(graph)
    emit(
        {
            "graph": graph.to_json_dict(),
            "isotype": classify_isotype(graph).label,
            "betti": {
                "f0": data.f0,
                "f1": data.f1,
                "beta0": data.beta0,
                "beta1": data.beta1,
            },
            "balanced": balanced,
        },
        args,
    )
    return 0


def _report_payloads(report: CountReport):
    return report.to_json_dict(), [CountReport.csv_header(), report.to_csv_row()]


def cmd_failures(args) -> int:
    if args.formula_only:
        report = failure_count_formula(args.k, args.n)
    else:
        report = count_failures(args.k, args.n, workers=args.workers)
    payload, rows = _report_payloads(report)
    emit(payload, args, rows)
    return 0


def cmd_formulas(args) -> int:
    n = args.n
    h_c6, h_k23, h_c4, h_geq = h_counts(n)
    payload = {
        "n": n,
        "xi": 16 * ((n - 1) * (n - 2) // 2) ** 2,
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
            str(k): {
                "count": failure_density_bound(k, n)[0],
                "bound": failure_density_bound(k, n)[1],
            }
            for k in range(1, 7)
        },
    }
    emit(payload, args)
    return 0


def cmd_census(args) -> int:
    s, t = (args.s or args.n, args.t or args.n)
    if not s or not t:
        raise UsageError("census needs --n or both --s and --t")
    if s * t >= 25 and not args.big:
        raise UsageError("censuses with 2^25 matrices need --big")
    cfg = CensusConfig(
        dims=(s, t),
        worker_count=args.workers,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
    )
    aggregates = ["rank_pm", "rank_cond", "rank_drop_violations"]
    if (s - 1) * (t - 1) <= 9:
        aggregates.append("edge_pairs")
    result = run_census(cfg, aggregates=tuple(aggregates), resume=args.resume)
    rows = [["rank", "sign_matrices", "condensates"]]
    for r in range(max(len(result.rank_pm), len(result.rank_cond))):
        rows.append(
            [
                r,
                int(result.rank_pm[r]) if r < len(result.rank_pm) else "",
                int(result.rank_cond[r]) if r < len(result.rank_cond) else "",
            ]
        )
    emit(result.to_json_dict(), args, rows)
    return 0


def cmd_ranks(args) -> int:
    s, t = (args.s or args.n, args.t or args.n)
    if not s or not t:
        raise UsageError("ranks needs --n or both --s and --t")
    census = rank_census(s, t, workers=args.workers)
    payload = census.to_json_dict()
    rows = [["rank", "sign_matrices", "condensates", "binary_patterns"]]
    width = max(
        len(census.pm_rank_counts),
        len(census.condensate_rank_counts),
        len(census.binary_rank_counts),
    )
    for r in range(width):
        pick = lambda xs: xs[r] if r < len(xs) else ""
        rows.append(
            [
                r,
                pick(census.pm_rank_counts),
                pick(census.condensate_rank_counts),
                pick(census.binary_rank_counts),
            ]
        )
    emit(payload, args, rows)
    return 0 if payload["checks"]["all_ok"] else 1


def cmd_switch_orbit(args) -> int:
    matrix = parse_ternary_matrix(args.matrix, args.n)
    graph = build_graph(matrix)
    balanced, _, data = balance_and_betti(graph)
    orb = sorted(orbit(graph))
    expected = 2 ** (data.f0 - data.beta0)
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


def cmd_verify(args) -> int:
    names = []
    for item in args.suite:
        names.extend(part for part in item.split(",") if part)
    if not names or "all" in names:
        names = list(SUITES)
    if args.n < 4:
        raise UsageError("verify needs --n of at least 4")
    big = args.big or args.n >= 5
    checks = run_suites(names, big=big, workers=args.workers, seed=args.seed)
    ok = all(entry["ok"] for entry in checks)
    if args.format == "json":
        stable = [
            {k: v for k, v in entry.items() if k != "seconds"} for entry in checks
        ]
        emit(stable, args)
    else:
        lines = [
            f"{'PASS' if entry['ok'] else 'FAIL'}  [{entry['suite']}] {entry['check']}"
            for entry in checks
        ]
        lines.append(
            f"{'OK' if ok else 'FAILED'}: "
            f"{sum(e['ok'] for e in checks)}/{len(checks)} checks passed"
        )
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chio",
        description="Exact Chio condensation: measures, censuses, verification.",
    )
    parser.add_argument("--version", action="version", version=f"chio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix=False, dims=False, report=True):
        if matrix:
            p.add_argument("--matrix", required=True, help="matrix literal (JSON or compact rows)")
            p.add_argument("--n", type=int, help="grid size override for compact input")
        if dims:
            p.add_argument("--n", type=int, help="square size (sets s = t = n)")
            p.add_argument("--s", type=int)
            p.add_argument("--t", type=int)
        if report:
            p.add_argument("--out", help="write the report to a file")
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--workers", type=int, help="worker count (default: CHIO_WORKERS or CPU count)")

    p = sub.add_parser("condense", help="half Chio condensation of a sign matrix")
    common(p, matrix=True)
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
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula-only", action="store_true", help="skip enumeration")
    p.set_defaults(func=cmd_failures)

    p = sub.add_parser("formulas", help="closed-form tables at one n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_formulas)

    p = sub.add_parser("census", help="exhaustive sign-matrix census")
    common(p, dims=True)
    p.add_argument("--big", action="store_true", help="allow 2^25-sized runs")
    p.add_argument("--chunk-size", type=int, default=1 << 18)
    p.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p.add_argument("--resume", action="store_true", help="resume from the checkpoint")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("ranks", help="rank level-set census and identities")
    common(p, dims=True)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("switch-orbit", help="switching orbit of a signing")
    common(p, matrix=True)
    p.set_defaults(func=cmd_switch_orbit)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        action="append",
        default=[],
        help=f"suite name or comma list; one of {', '.join(SUITES)} or 'all'",
    )
    p.add_argument("--n", type=int, default=4, help="grid bound; 5 implies --big")
    p.add_argument("--big", action="store_true", help="include 2^25-scale checks")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled spot checks")
    p.add_argument("--out", help="write the report to a file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--workers", type=int, help="worker count (default: CHIO_WORKERS or CPU count)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
