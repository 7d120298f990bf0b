"""Layer profile: the traced calls behind the per-layer metrics.

A traced run of any workload also runs this profile, so every traced run
reports the same per-layer metrics on the same seeded inputs.  Sizes are
cut down from the workloads so the profile takes about half a minute on
two cores; every call is made from here, with a span around it, and the
library itself is not instrumented.

:data:`METRICS` lists each metric with its unit, its direction and the
end-to-end metric and workload it should move.  :func:`layer_metrics`
derives the values from the recorded spans; each rate is a count carried
by its spans divided by the spans' summed duration.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import tempfile
from itertools import product

import numpy as np

from chio import parallel
from chio.census_oracle import (
    AGGREGATE_NAMES,
    CensusConfig,
    CensusResult,
    batch_rank,
    kwise_agreement_check,
    load_checkpoint,
    run_census,
    save_checkpoint,
)
from chio.cli import main as cli_main
from chio.failure_enum import count_failures, enumerate_failures, failure_count_formula
from chio.matrix_core import IntMatrix, PartialTernaryMatrix, det_int, rank_int
from chio.measures import Event, p_chio
from chio.signed_graph import IsoType, SignedBipartiteGraph, balance_summary, betti, build_graph, classify_isotype
from chio.switching import balanced_signings, orbit, rank_invariance_check, signing_tuple
from chio.verify import SUITES, run_suites

from perfbench.workloads import (
    RANK_AGGREGATES,
    Checks,
    check_census,
    check_count_report,
    generate_census,
    generate_events,
    grid,
    prepare_census,
    run_events,
)

EVENT_SETS_PER_K = 20
EVENT_AVERAGED = 500
GRAPH_SETS = 600
FAILURES_KN = (6, 5)
RECORDS_KN = (5, 5)
CENSUS_FIXED = 8
FILTER_DIMS = (4, 5)
FILTER_FIXED = 4
CHECKPOINT_REPEATS = 20
BATCH = 1 << 16
BATCH_CHECKS = 200
BATCH_SHAPES = (("5x5", (-1, 1)), ("4x5", (-1, 1)), ("4x4", (-1, 0, 1)), ("3x4", (-1, 1)))
POOL_STARTS = 5
CLI_CALLS = 200

# Layers that do most of their work in `chio verify`, which is not a workload:
# one 15 s call is too coarse for the interleaved speed reference.
CHIO_VERIFY = "`chio verify` (not a workload; see README)"

# (name, unit, better, what it should move)
METRICS = [
    ("matrix_core.det_int.dets_per_s", "1/s", "higher", CHIO_VERIFY),
    ("matrix_core.rank_int.per_s", "1/s", "higher", CHIO_VERIFY),
    ("matrix_core.partial_matrix.builds_per_s", "1/s", "higher", "norm_wall_s on events"),
    ("signed_graph.balance_summary.per_s", "1/s", "higher", "norm_wall_s on events"),
    ("signed_graph.betti.per_s", "1/s", "higher", "norm_wall_s on failures"),
    ("signed_graph.classify_isotype.per_s", "1/s", "higher", "norm_wall_s on failures"),
    ("measures.p_chio.events_per_s", "1/s", "higher", "norm_wall_s on events"),
    ("measures.recipe_p_chio.events_per_s", "1/s", "higher", "norm_wall_s on events"),
    ("measures.fibre_cardinality.events_per_s", "1/s", "higher", "norm_wall_s on events"),
    ("measures.ratio_chio_lcf.events_per_s", "1/s", "higher", "norm_wall_s on events"),
    ("measures.p_chio_averaged.matrices_per_s", "1/s", "higher", "norm_wall_s on events"),
    ("failure_enum.count_failures.busy_s", "s", "lower", "norm_wall_s on failures"),
    ("failure_enum.count_failures.signings_per_s", "1/s", "higher", "norm_wall_s on failures"),
    ("failure_enum.enumerate_failures.records_per_s", "1/s", "higher", "norm_wall_s on failures"),
    *[
        (f"census_oracle.run_census.matrices_per_s.{agg}", "1/s", "higher", "norm_wall_s on census")
        for agg in AGGREGATE_NAMES
    ],
    ("census_oracle.batch_rank.matrices_per_s.5x5", "1/s", "higher", "norm_wall_s on census"),
    ("census_oracle.batch_rank.matrices_per_s.4x5", "1/s", "higher", CHIO_VERIFY),
    ("census_oracle.batch_rank.matrices_per_s.4x4", "1/s", "higher", "norm_wall_s on census, and `chio verify`"),
    ("census_oracle.batch_rank.matrices_per_s.3x4", "1/s", "higher", CHIO_VERIFY),
    ("census_oracle.filter_yield", "ratio", "higher", "norm_wall_s on census"),
    ("census_oracle.checkpoint.save_s", "s", "lower", "norm_wall_s on census"),
    ("census_oracle.checkpoint.bytes", "bytes", "lower", "norm_wall_s on census"),
    ("census_oracle.checkpoint.load_s", "s", "lower", "norm_wall_s on census"),
    ("census_oracle.cond_counts.bytes", "bytes", "lower", "peak_rss_mb on census"),
    ("census_oracle.kwise_agreement_check.busy_s", "s", "lower", CHIO_VERIFY),
    ("switching.balanced_signings.graphs_per_s", "1/s", "higher", CHIO_VERIFY),
    ("switching.orbit.per_s", "1/s", "higher", CHIO_VERIFY),
    ("switching.rank_invariance_check.patterns_per_s", "1/s", "higher", CHIO_VERIFY),
    ("parallel.pool_start_s", "s", "lower", "`chio verify`, and count_failures at more than one worker"),
    ("parallel.speedup.census", "ratio", "higher", "census runs at more than one worker (the workloads run at one)"),
    ("parallel.speedup.failures", "ratio", "higher", "count_failures at more than one worker (the workloads run at one)"),
    ("cli.main.pchio_calls_per_s", "1/s", "higher", CHIO_VERIFY),
    *[(f"verify.suite_s.{suite}", "s", "lower", CHIO_VERIFY) for suite in SUITES],
    ("bench.trace_overhead_s", "s", "lower", "nothing: it is the cost of tracing"),
]


def run_profile(tracer, seed: int, workers: int, tmp_dir: str) -> Checks:
    """Make every traced call the per-layer metrics are derived from."""
    checks = Checks()
    _det_int(tracer, checks)
    _switching(tracer, checks)
    _events(tracer, seed, workers, tmp_dir, checks)
    _graphs(tracer, seed, checks)
    _failures(tracer, workers, checks)
    _census(tracer, seed, workers, tmp_dir, checks)
    _filter_yield(tracer, seed, checks)
    _batch_rank(tracer, seed, checks)
    with tracer.span("census_oracle.kwise_agreement_check"):
        kw = kwise_agreement_check(4, workers=workers)
    checks.expect(kw["all_ok"], "kwise_agreement_check(4)")
    for _ in range(POOL_STARTS):
        with tracer.span("parallel.pool_start", workers=workers):
            parallel.run_tasks(abs, [0] * workers, workers)
    _cli(tracer, seed, checks)
    for suite in SUITES:
        with tracer.span(f"verify.suite.{suite}"):
            entries = run_suites([suite], workers=workers, seed=seed)
        for entry in entries:
            checks.expect(entry["ok"], f"[{suite}] {entry['check']}")
    return checks


def _det_int(tracer, checks: Checks) -> None:
    """All 2^16 4x4 sign matrices and their (unhalved) condensates."""
    n = 4
    signs, conds = [], []
    for code in range(1 << (n * n)):
        rows = [[1 if code >> (i * n + j) & 1 else -1 for j in range(n)] for i in range(n)]
        pivot = rows[n - 1][n - 1]
        signs.append(IntMatrix(rows))
        conds.append(IntMatrix([
            [rows[i][j] * pivot - rows[i][n - 1] * rows[n - 1][j] for j in range(n - 1)]
            for i in range(n - 1)
        ]))
    with tracer.span("matrix_core.det_int", dets=2 * len(signs)):
        det_a = [det_int(m) for m in signs]
        det_c = [det_int(m) for m in conds]
    for a, c in zip(det_a, det_c):
        # det C = pivot^(n-2) det A, and pivot^2 = 1 for a sign matrix.
        checks.expect(c == a, "chio identity at n=4")


def _switching(tracer, checks: Checks) -> None:
    """Every 3x3 {0,1} pattern: balanced signings, their ranks, orbits."""
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    patterns = [PartialTernaryMatrix((4, 4), dict(zip(cells, values)))
                for values in product((0, 1), repeat=9)]
    with tracer.span("switching.balanced_signings") as counts:
        signings = [list(balanced_signings(build_graph(p))) for p in patterns]
        counts["graphs"] = sum(len(s) for s in signings)
    groups = [
        [IntMatrix.from_ternary(pattern)] + [
            IntMatrix.from_ternary(PartialTernaryMatrix(pattern.dims, {**pattern.entries, **g.sign}))
            for g in signed
        ]
        for pattern, signed in zip(patterns, signings)
    ]
    with tracer.span("matrix_core.rank_int", matrices=sum(len(g) for g in groups)):
        ranks = [[rank_int(m) for m in group] for group in groups]
    for pattern_rank, *signed_ranks in ranks:
        for rank in signed_ranks:
            checks.expect(rank == pattern_rank, "balanced signing changed the rank")
    with tracer.span("switching.rank_invariance_check", patterns=len(patterns)):
        reports = [rank_invariance_check(p) for p in patterns]
    for report in reports:
        checks.expect(report.all_equal, "rank_invariance_check")
    with tracer.span("switching.orbit", orbits=len(patterns)):
        orbits = [orbit(signed[0]) for signed in signings]
    for signed, orb in zip(signings, orbits):
        checks.expect(orb == {signing_tuple(g) for g in signed}, "orbit != balanced signings")


def _events(tracer, seed: int, workers: int, tmp_dir: str, checks: Checks) -> None:
    """The events workload at a fifth of its size, plus balance_summary alone."""
    inputs = generate_events(seed, sets_per_k=EVENT_SETS_PER_K, averaged=EVENT_AVERAGED)
    checks.add(run_events(inputs, {}, tracer, workers, tmp_dir)["checks"])
    dims = (inputs["n"], inputs["n"])
    entries = [
        dict(zip([tuple(p) for p in positions], values))
        for positions in inputs["sets"]
        for values in product((-1, 0, 1), repeat=len(positions))
    ]
    with tracer.span("signed_graph.balance_summary", calls=len(entries)):
        summaries = [balance_summary(dims, e) for e in entries]
    for e, (balanced, f0, beta0) in zip(entries, summaries):
        rows = {i for i, _ in e}
        cols = {j for _, j in e}
        checks.expect(f0 == len(rows) + len(cols) and 1 <= beta0 <= f0, "balance_summary counts")


def _has_circuit(edges: list[tuple[int, int]]) -> bool:
    """A 2x2 rectangle, or six edges with every degree two (a 6-circuit)."""
    edge_set = set(edges)
    rows = sorted({i for i, _ in edges})
    cols = sorted({j for _, j in edges})
    for a, r1 in enumerate(rows):
        for r2 in rows[a + 1:]:
            shared = [c for c in cols if (r1, c) in edge_set and (r2, c) in edge_set]
            if len(shared) >= 2:
                return True
    if len(edges) == 6:
        degrees = [sum(1 for i, _ in edges if i == r) for r in rows]
        degrees += [sum(1 for _, j in edges if j == c) for c in cols]
        return all(d == 2 for d in degrees)
    return False


def _graphs(tracer, seed: int, checks: Checks) -> None:
    """Circuit-containing supports of 6-entry index sets at n = 6."""
    rng = random.Random(f"graphs:{seed}")
    positions = grid(6)
    graphs = []
    sets = 0
    while sets < GRAPH_SETS:
        chosen = sorted(rng.sample(positions, 6))
        supports = []
        for mask in range(1 << 6):
            edges = [chosen[b] for b in range(6) if mask >> b & 1]
            if len(edges) >= 4 and _has_circuit(edges):
                supports.append(edges)
        if not supports:
            continue
        sets += 1
        rows = frozenset(i for i, _ in chosen)
        cols = frozenset(j for _, j in chosen)
        graphs.extend(SignedBipartiteGraph(dims=(6, 6), row_vertices=rows, col_vertices=cols,
                                           edges=frozenset(edges)) for edges in supports)
    with tracer.span("signed_graph.betti", graphs=len(graphs)):
        data = [betti(g) for g in graphs]
    with tracer.span("signed_graph.classify_isotype", graphs=len(graphs)):
        tags = [classify_isotype(g) for g in graphs]
    for d, tag in zip(data, tags):
        checks.expect(d.beta1 >= 1, "betti of a circuit support")
        checks.expect(tag not in (IsoType.FOREST, IsoType.OTHER_NONFOREST), "isotype of a circuit support")


def _failures(tracer, workers: int, checks: Checks) -> None:
    """count_failures at the pinned count and at one worker; a record stream."""
    k, n = FAILURES_KN
    want = failure_count_formula(k, n)
    with tracer.span("failure_enum.count_failures", workers=workers) as counts:
        report = count_failures(k, n, workers=workers)
        counts["signings"] = report.failure_count
    check_count_report(checks, report, want, f"count_failures({k},{n})")
    with tracer.span("failure_enum.count_failures.one_worker") as counts:
        report = count_failures(k, n, workers=1)
        counts["signings"] = report.failure_count
    check_count_report(checks, report, want, f"count_failures({k},{n}) at one worker")
    k, n = RECORDS_KN
    with tracer.span("failure_enum.enumerate_failures") as counts:
        counts["records"] = sum(1 for _ in enumerate_failures(k, n))
    checks.expect(counts["records"] == failure_count_formula(k, n).failure_count, "record count")


def _census(tracer, seed: int, workers: int, tmp_dir: str, checks: Checks) -> None:
    """Each aggregate alone at one worker on a 2^17 slice; checkpoint I/O; speed-up."""
    # Eight fixed entries need the first four rows: two rows hold a forest of six at most.
    inputs = generate_census(seed, fixed=CENSUS_FIXED, rows=4)
    dims = tuple(inputs["dims"])
    filters = {(i, j): sign for i, j, sign in inputs["fixed"]}
    binary = prepare_census(inputs)["binary"]
    one = CensusConfig(dims=dims, worker_count=1, filters=filters)
    parts = {}
    for agg in AGGREGATE_NAMES:
        with tracer.span(f"census_oracle.run_census.{agg}") as counts:
            parts[agg] = run_census(one, aggregates=(agg,))
            counts["matrices"] = parts[agg].visited
        if agg == "cond_counts":
            counts["bytes"] = int(parts[agg].cond_counts.nbytes)
    cond = parts.pop("cond_counts")
    cond_visited, cond_total = cond.visited, int(cond.cond_counts.sum())
    del cond
    combined = CensusResult(dims=dims, visited=parts["rank_pm"].visited)
    for agg, part in parts.items():
        setattr(combined, agg, getattr(part, agg))

    tmp = tempfile.mkdtemp(prefix="profile-", dir=tmp_dir)
    try:
        path = os.path.join(tmp, "probe.ckpt")
        n_chunks = -(-(1 << (dims[0] * dims[1])) // one.chunk_size)
        for _ in range(CHECKPOINT_REPEATS):
            with tracer.span("census_oracle.checkpoint.save") as counts:
                save_checkpoint(path, one, combined, n_chunks)
            counts["bytes"] = os.path.getsize(path)
        for _ in range(CHECKPOINT_REPEATS):
            with tracer.span("census_oracle.checkpoint.load"):
                loaded, next_chunk = load_checkpoint(path, one)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    checks.expect(next_chunk == n_chunks, "checkpoint next chunk")
    check_census(checks, dims, len(filters), binary, combined, loaded, cond_visited, cond_total)

    with tracer.span("parallel.census.one_worker"):
        serial = run_census(one, aggregates=RANK_AGGREGATES)
    with tracer.span("parallel.census.pinned", workers=workers):
        pooled = run_census(CensusConfig(dims=dims, worker_count=workers, filters=filters),
                            aggregates=RANK_AGGREGATES)
    checks.expect(serial.to_json_dict() == pooled.to_json_dict(), "census differs by worker count")


def _filter_yield(tracer, seed: int, checks: Checks) -> None:
    """``rank_pm`` at one worker on a 4x5 census: a 2^-4 slice and the whole.

    The slice walks the library's 2^18-code chunks, keeping 2^14 codes of
    each; the whole census walks 2^14-code chunks, so both rank batches of
    the same size and differ only in the codes the slice scans and drops.
    """
    inputs = generate_census(seed, fixed=FILTER_FIXED, dims=FILTER_DIMS)
    filters = {(i, j): sign for i, j, sign in inputs["fixed"]}
    sliced = CensusConfig(dims=FILTER_DIMS, worker_count=1, filters=filters)
    whole = CensusConfig(dims=FILTER_DIMS, worker_count=1,
                         chunk_size=sliced.chunk_size >> FILTER_FIXED)
    with tracer.span("census_oracle.filter.sliced") as counts:
        part = run_census(sliced, aggregates=("rank_pm",))
        counts["matrices"] = part.visited
    with tracer.span("census_oracle.filter.whole") as counts:
        full = run_census(whole, aggregates=("rank_pm",))
        counts["matrices"] = full.visited
    checks.expect(full.visited == part.visited << FILTER_FIXED, "filtered slice size")
    checks.expect([int(v) << FILTER_FIXED for v in part.rank_pm] == [int(v) for v in full.rank_pm],
                  "4x5 slice ranks x 2^4 != whole census")


def _batch_rank(tracer, seed: int, checks: Checks) -> None:
    """Seeded batches per shape; a sample re-ranked by the scalar rank_int."""
    rng = np.random.default_rng(seed)
    for shape, values in BATCH_SHAPES:
        r, c = (int(x) for x in shape.split("x"))
        mats = rng.choice(np.array(values, dtype=np.int64), size=(BATCH, r, c))
        with tracer.span(f"census_oracle.batch_rank.{shape}", matrices=BATCH):
            ranks = batch_rank(mats)
        for idx in range(BATCH_CHECKS):
            want = rank_int(IntMatrix(mats[idx].tolist()))
            checks.expect(int(ranks[idx]) == want, f"batch_rank {shape}")


def _cli(tracer, seed: int, checks: Checks) -> None:
    """``chio pchio`` in process on seeded partial 4x4 grids."""
    rng = random.Random(f"cli:{seed}")
    symbols = {-1: "-", 0: "0", 1: "+", None: "."}
    cases = []
    for _ in range(CLI_CALLS):
        rows = [[rng.choice((-1, 0, 1, None, None)) for _ in range(4)] for _ in range(4)]
        text = "/".join("".join(symbols[v] for v in row) for row in rows)
        cases.append((text, PartialTernaryMatrix.from_rows(rows, (5, 5))))
    outputs = []
    with tracer.span("cli.main.pchio", calls=len(cases)):
        for text, _ in cases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["pchio", "--n", "5", f"--matrix={text}"])
            outputs.append((code, out.getvalue()))
    for (code, text), (_, matrix) in zip(outputs, cases):
        ok = code == 0 and json.loads(text)["p_chio"] == p_chio(Event(matrix)).to_json_dict()
        checks.expect(ok, "chio pchio output")


def layer_metrics(tracer, overhead_pairs: list[float]) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, count base) from the profile's spans.

    ``overhead_pairs`` are the workload's traced pass ``norm_wall_s`` minus
    each untraced one beside it.
    """
    out: dict[str, tuple[float, str]] = {}

    def rate(metric: str, span: str, count: str) -> None:
        busy, counts, calls = tracer.totals(span)
        out[metric] = (counts[count] / busy, f"{counts[count]} {count} in {busy:.4f} s over {calls} span(s)")

    def busy(metric: str, span: str, per_call: bool = False) -> None:
        total, _, calls = tracer.totals(span)
        value = total / calls if per_call else total
        out[metric] = (value, f"{calls} call(s), {total:.4f} s")

    rate("matrix_core.det_int.dets_per_s", "matrix_core.det_int", "dets")
    rate("matrix_core.rank_int.per_s", "matrix_core.rank_int", "matrices")
    rate("matrix_core.partial_matrix.builds_per_s", "matrix_core.partial_matrix", "builds")
    rate("signed_graph.balance_summary.per_s", "signed_graph.balance_summary", "calls")
    rate("signed_graph.betti.per_s", "signed_graph.betti", "graphs")
    rate("signed_graph.classify_isotype.per_s", "signed_graph.classify_isotype", "graphs")
    for fn in ("p_chio", "recipe_p_chio", "fibre_cardinality", "ratio_chio_lcf"):
        rate(f"measures.{fn}.events_per_s", f"measures.{fn}", "events")
    rate("measures.p_chio_averaged.matrices_per_s", "measures.p_chio_averaged", "matrices")
    busy("failure_enum.count_failures.busy_s", "failure_enum.count_failures")
    rate("failure_enum.count_failures.signings_per_s", "failure_enum.count_failures", "signings")
    rate("failure_enum.enumerate_failures.records_per_s", "failure_enum.enumerate_failures", "records")
    for agg in AGGREGATE_NAMES:
        rate(f"census_oracle.run_census.matrices_per_s.{agg}", f"census_oracle.run_census.{agg}", "matrices")
    for shape, _ in BATCH_SHAPES:
        rate(f"census_oracle.batch_rank.matrices_per_s.{shape}", f"census_oracle.batch_rank.{shape}", "matrices")
    sliced, part, _ = tracer.totals("census_oracle.filter.sliced")
    whole, full, _ = tracer.totals("census_oracle.filter.whole")
    out["census_oracle.filter_yield"] = (
        (part["matrices"] / sliced) / (full["matrices"] / whole),
        f"matrices/s of a 4x5 slice keeping {part['matrices']} of {full['matrices']} codes "
        f"({sliced:.4f} s) / of the whole census ({whole:.4f} s)")
    busy("census_oracle.checkpoint.save_s", "census_oracle.checkpoint.save", per_call=True)
    _, counts, calls = tracer.totals("census_oracle.checkpoint.save")
    out["census_oracle.checkpoint.bytes"] = (counts["bytes"] / calls, "file size after each save")
    busy("census_oracle.checkpoint.load_s", "census_oracle.checkpoint.load", per_call=True)
    _, counts, _ = tracer.totals("census_oracle.run_census.cond_counts")
    out["census_oracle.cond_counts.bytes"] = (counts["bytes"], "dense int64 array, 3^((s-1)(t-1)) entries")
    busy("census_oracle.kwise_agreement_check.busy_s", "census_oracle.kwise_agreement_check")
    rate("switching.balanced_signings.graphs_per_s", "switching.balanced_signings", "graphs")
    rate("switching.orbit.per_s", "switching.orbit", "orbits")
    rate("switching.rank_invariance_check.patterns_per_s", "switching.rank_invariance_check", "patterns")
    starts = [r["end"] - r["start"] for r in tracer.spans if r["name"] == "parallel.pool_start"]
    out["parallel.pool_start_s"] = (statistics.median(starts), f"median of {len(starts)} starts")
    for layer, serial, pooled in (
        ("census", "parallel.census.one_worker", "parallel.census.pinned"),
        ("failures", "failure_enum.count_failures.one_worker", "failure_enum.count_failures"),
    ):
        one, _, _ = tracer.totals(serial)
        many, _, _ = tracer.totals(pooled)
        out[f"parallel.speedup.{layer}"] = (one / many, f"{one:.4f} s at 1 worker / {many:.4f} s pinned")
    rate("cli.main.pchio_calls_per_s", "cli.main.pchio", "calls")
    for suite in SUITES:
        busy(f"verify.suite_s.{suite}", f"verify.suite.{suite}")
    out["bench.trace_overhead_s"] = (
        statistics.mean(overhead_pairs),
        "traced norm_wall_s minus the mean of the untraced passes before and after it; "
        f"the two differences read {', '.join(f'{d:+.4f}' for d in overhead_pairs)} s")
    return out
