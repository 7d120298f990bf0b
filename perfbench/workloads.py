"""Seeded inputs, workload bodies and output checks of the chio benchmark.

Each workload has three steps:

* ``generate(seed)`` makes the inputs from the benchmark seed alone and
  returns plain JSON data, so equal seeds give byte-identical inputs;
* ``prepare(inputs)`` computes the independent values the outputs are
  checked against (closed forms, OEIS constants); it is not timed;
* ``run(inputs, expected, tracer, workers, tmp_dir, tick)`` makes the
  library calls, checks every output into a :class:`Checks` tally and
  returns the input size in the workload's own unit.  It calls ``tick()``
  between pieces of work of a few milliseconds to about two seconds, where
  a :class:`perfbench.reference.Meter` may time the host's speed.

The ``check_*`` functions are pure, so the self-tests can corrupt an
output and see the check fail.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from collections import Counter
from itertools import product

from chio.census_oracle import (
    CensusConfig,
    CensusResult,
    binary_rank_counts,
    run_census,
    save_checkpoint,
)
from chio.failure_enum import count_failures, enumerate_failures, failure_count_formula
from chio.matrix_core import PartialTernaryMatrix, chio_extend, full_inner_box
from chio.measures import (
    Event,
    fibre_cardinality,
    p_chio,
    p_chio_averaged,
    p_lcf,
    ratio_chio_lcf,
    recipe_p_chio,
)

from perfbench import reference

WORKLOADS = ("events", "failures", "census")

EVENTS_N = 5
EVENTS_KS = (4, 5, 6)
EVENTS_SETS_PER_K = 40
EVENTS_AVERAGED = 1200
AVERAGED_PER_TICK = 50

FAILURES_COUNT_KN = ((6, 5), (5, 6))
FAILURES_ENUM_KN = (5, 6)
FAILURES_SPOT_CHECKS = 2000
RECORDS_PER_TICK = 1 << 12

CENSUS_DIMS = (5, 5)
CENSUS_FIXED = 6
CENSUS_ROWS = 2
RANK_AGGREGATES = ("rank_pm", "rank_cond", "rank_drop_violations", "edge_pairs")
RESUME_TAIL_BITS = 3  # the resumed pass recomputes the last 1/8 of the chunks

# Singular (0,1) matrices of order 1..4 (OEIS A046747).  An n x n sign
# matrix normalises to a (0,1) matrix of order n-1 in 2^(2n-1) ways, so
# the singular sign matrices of order n number 2^(2n-1) * A046747(n-1);
# at n = 5 that is 22,003,712 of 2^25.
SINGULAR_01 = {1: 1, 2: 10, 3: 338, 4: 42976}


class Checks:
    """Tally of output checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def add(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: 20 - len(self.messages)])

    def expect_counts(self, got: dict, want: dict, what: str) -> None:
        """One check per key of either histogram."""
        for key in sorted(set(got) | set(want), key=repr):
            self.expect(got.get(key, 0) == want.get(key, 0), f"{what}[{key!r}]")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def grid(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(1, n)]


# --- events: per-event measure path -------------------------------------------


def generate_events(seed: int, sets_per_k: int = EVENTS_SETS_PER_K,
                    averaged: int = EVENTS_AVERAGED) -> dict:
    """Distinct index sets per k on the n = 5 grid and an averaged-measure sample.

    ``averaged`` lists global event indices (sets in order, assignments in
    base-3 order) that also go through ``p_chio_averaged``.
    """
    rng = _rng("events", seed)
    positions = grid(EVENTS_N)
    sets: list[list[list[int]]] = []
    for k in EVENTS_KS:
        chosen: set[tuple] = set()
        while len(chosen) < sets_per_k:
            chosen.add(tuple(sorted(rng.sample(positions, k))))
        sets.extend([list(p) for p in s] for s in sorted(chosen))
    total = sum(3 ** len(s) for s in sets)
    return {
        "n": EVENTS_N,
        "sets": sets,
        "averaged": sorted(rng.sample(range(total), min(averaged, total))),
    }


def check_event_values(checks: Checks, extended: int, chio, recipe, lcf, ratio, fibre) -> None:
    """Recipe, ratio and fibre cardinality against ``p_chio`` and ``p_lcf``."""
    for c, r, l, q, f in zip(chio, recipe, lcf, ratio, fibre):
        checks.expect(r == c, "recipe_p_chio != p_chio")
        if c.is_zero:
            checks.expect(q == 0, "ratio_chio_lcf != 0 for a null event")
            checks.expect(f == 0, "fibre_cardinality != 0 for a null event")
        else:
            checks.expect(q == 2 ** (l.exponent - c.exponent), "ratio_chio_lcf != p_chio/p_lcf")
            checks.expect(f == 2 ** (extended - c.exponent), "fibre/2^|ambient~| != p_chio")


def run_events(inputs: dict, expected: dict, tracer, workers: int, tmp_dir: str,
               tick=reference.no_tick) -> dict:
    n = inputs["n"]
    dims = (n, n)
    ambient = full_inner_box(n, n)
    extended = len(chio_extend(ambient))
    wanted = iter(inputs["averaged"])
    next_averaged = next(wanted, None)
    averaged: list[PartialTernaryMatrix] = []
    offset = 0
    checks = Checks()
    for positions in inputs["sets"]:
        positions = [tuple(p) for p in positions]
        count = 3 ** len(positions)
        with tracer.span("matrix_core.partial_matrix", builds=count):
            mats = [
                PartialTernaryMatrix(dims, dict(zip(positions, values)))
                for values in product((-1, 0, 1), repeat=len(positions))
            ]
        with tracer.span("measures.event", events=count):
            events = [Event(m, ambient) for m in mats]
        with tracer.span("measures.p_chio", events=count):
            chio = [p_chio(e) for e in events]
        with tracer.span("measures.recipe_p_chio", events=count):
            recipe = [recipe_p_chio(m) for m in mats]
        with tracer.span("measures.p_lcf", events=count):
            lcf = [p_lcf(e) for e in events]
        with tracer.span("measures.ratio_chio_lcf", events=count):
            ratio = [ratio_chio_lcf(e) for e in events]
        with tracer.span("measures.fibre_cardinality", events=count):
            fibre = [fibre_cardinality(e) for e in events]
        check_event_values(checks, extended, chio, recipe, lcf, ratio, fibre)
        while next_averaged is not None and next_averaged < offset + count:
            averaged.append(mats[next_averaged - offset])
            next_averaged = next(wanted, None)
        offset += count
        tick()
    values = []
    for start in range(0, len(averaged), AVERAGED_PER_TICK):
        batch = averaged[start:start + AVERAGED_PER_TICK]
        with tracer.span("measures.p_chio_averaged", matrices=len(batch)):
            values.extend(p_chio_averaged(m) for m in batch)
        tick()
    for m, value in zip(averaged, values):
        checks.expect(value == p_lcf(Event(m)), "p_chio_averaged != p_lcf")
    return {"checks": checks, "size": {"events": offset, "averaged_matrices": len(averaged)}}


# --- failures: failure enumeration ---------------------------------------------


def generate_failures(seed: int, count_kn=FAILURES_COUNT_KN, enum_kn=FAILURES_ENUM_KN,
                      spot_checks: int = FAILURES_SPOT_CHECKS) -> dict:
    """The counted and enumerated (k, n) cases and the records re-derived through ``p_chio``.

    The cases are fixed by the closed forms they are checked against; the
    seed picks which records of the stream are spot-checked.
    """
    records = failure_count_formula(*enum_kn).failure_count
    return {
        "count": [list(kn) for kn in count_kn],
        "enumerate": list(enum_kn),
        "spot_checks": sorted(_rng("failures", seed).sample(range(records), spot_checks)),
    }


def prepare_failures(inputs: dict) -> dict:
    return {
        "count": [failure_count_formula(*kn) for kn in inputs["count"]],
        "enumerate": failure_count_formula(*inputs["enumerate"]),
    }


def check_count_report(checks: Checks, got, want, what: str) -> None:
    """Every split of a failure report against the closed form."""
    checks.expect(got.total_events == want.total_events, f"{what} total events")
    checks.expect(got.failure_count == want.failure_count, f"{what} failure count")
    checks.expect_counts(got.by_ratio, want.by_ratio, f"{what} by_ratio")
    checks.expect_counts(got.by_value, want.by_value, f"{what} by_value")
    checks.expect_counts(got.by_isotype, want.by_isotype, f"{what} by_isotype")


def check_record_groups(checks: Checks, records: int, by_ratio: Counter, by_value: Counter,
                        by_isotype: Counter, want) -> None:
    """Record stream grouped by ratio, value and isotype against the closed form."""
    checks.expect(records == want.failure_count, "enumerated record count")
    checks.expect_counts(by_ratio, want.by_ratio, "records by_ratio")
    checks.expect_counts(by_value, want.by_value, "records by_value")
    checks.expect_counts(by_isotype, want.by_isotype, "records by_isotype")


def check_spot_records(checks: Checks, records) -> None:
    """Each sampled record re-derived through the graph-balance measure."""
    for rec in records:
        event = Event(rec.matrix)
        checks.expect(p_chio(event) == rec.value, "record value != p_chio")
        checks.expect(ratio_chio_lcf(event) == rec.ratio, "record ratio != ratio_chio_lcf")


def run_failures(inputs: dict, expected: dict, tracer, workers: int, tmp_dir: str,
                 tick=reference.no_tick) -> dict:
    checks = Checks()
    signings = 0
    for (k, n), want in zip(inputs["count"], expected["count"]):
        with tracer.span("failure_enum.count_failures", workers=workers) as counts:
            report = count_failures(k, n, workers=workers)
            counts["signings"] = report.failure_count
        check_count_report(checks, report, want, f"count_failures({k},{n})")
        signings += report.failure_count
        tick()

    k, n = inputs["enumerate"]
    wanted = iter(inputs["spot_checks"])
    next_spot = next(wanted, None)
    spot = []
    by_ratio: Counter = Counter()
    by_value: Counter = Counter()
    by_isotype: Counter = Counter()
    records = 0
    with tracer.span("failure_enum.enumerate_failures") as counts:
        for rec in enumerate_failures(k, n):
            by_ratio[rec.ratio] += 1
            by_value[rec.value] += 1
            by_isotype[rec.isotype] += 1
            if records == next_spot:
                spot.append(rec)
                next_spot = next(wanted, None)
            records += 1
            if records % RECORDS_PER_TICK == 0:
                tick()
        counts["records"] = records
    check_record_groups(checks, records, by_ratio, by_value, by_isotype, expected["enumerate"])
    check_spot_records(checks, spot)
    tick()
    return {"checks": checks, "size": {"signings": signings, "records": records}}


# --- census: chunked 5x5 census slice ----------------------------------------------


def random_forest(rng: random.Random, dims: tuple[int, int], cells: list[tuple[int, int]],
                  size: int) -> list[list[int]]:
    """``size`` signed cells whose bipartite row/column graph is a forest."""
    s, t = dims
    parent = list(range(s + t))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    cells = list(cells)
    rng.shuffle(cells)
    forest = []
    for i, j in cells:
        a, b = root(i - 1), root(s + j - 1)
        if a != b:
            parent[a] = b
            forest.append([i, j, rng.choice((-1, 1))])
            if len(forest) == size:
                return sorted(forest)
    raise ValueError(f"no forest of {size} edges among {len(cells)} cells")


def generate_census(seed: int, fixed: int = CENSUS_FIXED, dims=CENSUS_DIMS,
                    rows: int = CENSUS_ROWS) -> dict:
    """A forest of fixed entries and signs; the slice is every matrix that agrees.

    The entries come from the first ``rows`` rows, and only from entries
    whose code bit lies inside one chunk and below the bits that select
    the resumed tail (:func:`resume_point`).  Matrix codes are row-major, with
    entry (i, j) on bit (i-1)*t + (j-1), and the census walks them in chunks
    of ``chunk_size`` codes.  Two properties follow, and both keep the cost
    of a slice independent of the seed:

    * every chunk keeps the same 2^-fixed share of its codes.  A fixed
      higher bit would keep whole chunks or none, which moves work between
      workers;
    * the condensate rows below ``rows``, which are the high base-3 digits
      of its code, stay unconstrained.  So the cond_counts pass writes all
      over the dense array whatever the seed.  Fixing other rows changed
      the number of 2 MiB transparent huge pages written by up to a
      quarter, and with it the peak memory by up to 15%.
    """
    s, t = dims
    chunk_bits = CensusConfig(dims=(s, t)).chunk_size.bit_length() - 1
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, t + 1)
             if (i - 1) * t + (j - 1) < min(chunk_bits, s * t - RESUME_TAIL_BITS)]
    return {"dims": [s, t], "fixed": random_forest(_rng("census", seed), (s, t), cells, fixed)}


def prepare_census(inputs: dict) -> dict:
    s, t = inputs["dims"]
    return {"binary": [int(v) for v in binary_rank_counts(s - 1, t - 1)]}


def check_census(checks: Checks, dims, fixed: int, binary, first, resumed,
                 cond_visited: int, cond_total: int) -> None:
    """Slice aggregates, scaled by 2^fixed through switching invariance."""
    s, t = dims
    cells = s * t
    inner = (s - 1) * (t - 1)
    checks.expect(first.visited == 1 << (cells - fixed), "slice size")
    rank_pm = [int(v) << fixed for v in first.rank_pm]
    rank_cond = [int(v) << fixed for v in first.rank_cond]
    checks.expect(sum(rank_pm) == 1 << cells, "rank_pm total")
    if s == t and s - 1 in SINGULAR_01:
        singular = SINGULAR_01[s - 1] << (2 * s - 1)
        checks.expect(sum(rank_pm[:s]) == singular, "singular count (OEIS A046747)")
    checks.expect(len(rank_cond) == len(binary), "rank_cond length")
    for r, (got, want) in enumerate(zip(rank_cond, binary)):
        checks.expect(got == want << (cells - inner), f"rank_cond[{r}] vs binary ranks")
    checks.expect(first.rank_drop_violations == 0, "rank drop violations")
    pairs = first.edge_pairs.astype(object) * (1 << fixed)
    diagonal = all(pairs[p, p] == 1 << (cells - 1) for p in range(inner))
    off = all(pairs[p, q] == 1 << (cells - 2)
              for p in range(inner) for q in range(inner) if p != q)
    checks.expect(diagonal, "edge marginals")
    checks.expect(off, "edge pair marginals")
    checks.expect(resumed.to_json_dict() == first.to_json_dict(), "resumed != first run")
    checks.expect(cond_visited == first.visited, "cond pass slice size")
    checks.expect(cond_total == cond_visited, "sum of cond_counts != visited")


def resume_point(cfg: CensusConfig, first, tail_bits: int = RESUME_TAIL_BITS):
    """A state part-way through ``first``'s pass: (aggregates, tail size, next chunk).

    Codes are walked in order, so the last ``2^-tail_bits`` of them, and
    of the chunks, are the codes whose top ``tail_bits`` bits are all 1.
    A census with those entries fixed to +1 counts the tail alone; the
    aggregates are sums, so ``first`` minus the tail is the state the pass
    had reached when it started the tail's first chunk.
    """
    s, t = cfg.dims
    total = 1 << (s * t)
    n_chunks = total // cfg.chunk_size
    tail_filters = {(b // t + 1, b % t + 1): 1 for b in range(s * t - tail_bits, s * t)}
    tail = run_census(CensusConfig(dims=cfg.dims, worker_count=cfg.worker_count,
                                   chunk_size=cfg.chunk_size,
                                   filters={**cfg.filters, **tail_filters}),
                      aggregates=RANK_AGGREGATES)
    head = CensusResult(dims=cfg.dims, visited=first.visited - tail.visited)
    for agg in RANK_AGGREGATES:
        setattr(head, agg, getattr(first, agg) - getattr(tail, agg))
    return head, tail.visited, n_chunks - (n_chunks >> tail_bits)


def run_census_slice(inputs: dict, expected: dict, tracer, workers: int, tmp_dir: str,
                     tick=reference.no_tick) -> dict:
    dims = tuple(inputs["dims"])
    filters = {(i, j): sign for i, j, sign in inputs["fixed"]}
    total = 1 << (dims[0] * dims[1])
    # The library's chunk size, cut so the resumed tail spans two chunks at least.
    chunk_size = min(CensusConfig(dims=dims).chunk_size, total >> (RESUME_TAIL_BITS + 1))
    tmp = tempfile.mkdtemp(prefix="census-", dir=tmp_dir)
    try:
        cfg = CensusConfig(dims=dims, worker_count=workers, filters=filters,
                           chunk_size=chunk_size,
                           checkpoint_path=os.path.join(tmp, "slice.ckpt"))
        with tracer.span("census_oracle.run_census.rank_pass") as counts:
            first = run_census(cfg, aggregates=RANK_AGGREGATES)
            counts["matrices"] = first.visited
        tick()
        head, tail_visited, next_chunk = resume_point(cfg, first)
        save_checkpoint(cfg.checkpoint_path, cfg, head, next_chunk)
        tick()
        with tracer.span("census_oracle.run_census.resume") as counts:
            resumed = run_census(cfg, aggregates=RANK_AGGREGATES, resume=True)
            counts["matrices"] = resumed.visited - head.visited
        tick()
        with tracer.span("census_oracle.run_census.cond_counts") as counts:
            cond = run_census(CensusConfig(dims=dims, worker_count=workers, filters=filters,
                                           chunk_size=chunk_size),
                              aggregates=("cond_counts",))
            counts["matrices"] = cond.visited
        cond_visited, cond_total = cond.visited, int(cond.cond_counts.sum())
        del cond  # the dense 3^16 array must not be inherited by later pools
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tick()
    checks = Checks()
    check_census(checks, dims, len(filters), expected["binary"], first, resumed,
                 cond_visited, cond_total)
    checks.expect(0 < head.visited < first.visited, "resume point inside the pass")
    # Four passes: rank, tail, resumed tail, cond_counts.
    resumed_codes = total >> RESUME_TAIL_BITS
    return {"checks": checks, "size": {
        "matrices": first.visited + 2 * tail_visited + cond_visited,
        "codes_scanned": 3 * total + resumed_codes,
    }}


GENERATE = {
    "events": generate_events,
    "failures": generate_failures,
    "census": generate_census,
}
PREPARE = {
    "events": lambda inputs: {},
    "failures": prepare_failures,
    "census": prepare_census,
}
# The reference loop that sees host drift as each workload does.
REFERENCE = {
    "events": reference.PYTHON,
    "failures": reference.PYTHON,
    "census": reference.NUMPY,
}
RUN = {
    "events": run_events,
    "failures": run_failures,
    "census": run_census_slice,
}
