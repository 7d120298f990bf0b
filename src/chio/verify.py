"""Verification suites: every closed formula against independent recount.

Each suite returns a list of check dicts ``{"check", "ok", ...detail}``;
the CLI writes them as a table or JSON and exits nonzero if anything fails.
The acceptance tests drive the same functions, so the command line and
the test suite cannot drift apart.

Suites: chio-identity (Chio's determinant identity on every sign matrix
at n = 4 and, with ``big``, 5; rank drop), measures
(census preimages, read per support from the sparse census at n = 3, 4
and, with ``big``, 5, by :func:`preimage_support_check`, which lives
here, apart from the census engine it checks, and whose one n = 3
reading also serves the census-level averaging check; recipe
equivalence, averaging, worst-case ratio,
ambient-set independence counted over condensed sign matrices),
failures (enumerated counts against closed forms), census (partition,
determinism across process pools, k-wise agreement, singular counts),
switching (orbits and rank invariance), relations (linear relations and
density bounds).
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import combinations, islice, product
from math import comb

import numpy as np

from .matrix_core import IndexSet, PartialTernaryMatrix, SignMatrix, chio_condense, chio_extend
from .measures import (
    Event,
    fibre_cardinality,
    p_chio,
    p_chio_abs,
    p_chio_averaged,
    p_chio_sign_patterns,
    p_lcf,
    recipe_p_chio,
)
from .signed_graph import IsoType, SignedBipartiteGraph, balance_summary, betti, support_cycles
from .failure_enum import (
    check_linear_relations,
    count_failures,
    failure_count_formula,
    failure_density_bound,
    h_counts,
    realization_table,
)
from .census_oracle import (
    CensusConfig,
    _condensate_masks,
    chio_identity_chunk,
    kwise_agreement_check,
    rank_census,
    run_census,
    singular_count,
)
from .switching import (
    all_switches,
    balanced_sign_maps,
    orbit,
    rank_invariance_check,
    switch_matrix,
)
from . import SUITES, parallel


def _check(name: str, ok: bool, **details) -> dict:
    entry = {"check": name, "ok": bool(ok)}
    entry.update(details)
    return entry


# --- chio-identity ----------------------------------------------------------


def chio_identity_exhaustive(n: int, workers: int | None = None) -> dict:
    """det of the full condensate equals pivot^(n-2) times det, all 2^(n^2),
    over the chunks of the n x n census (``CensusConfig.chunk_size`` codes)."""
    start = time.perf_counter()
    total = 1 << (n * n)
    chunk = CensusConfig((n, n)).chunk_size
    tasks = [(n, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    workers = parallel.resolve_workers(workers)
    mismatches = sum(parallel.run_tasks(chio_identity_chunk, tasks, workers))
    elapsed = time.perf_counter() - start
    return _check(
        f"chio-identity exhaustive n={n}",
        mismatches == 0,
        matrices=1 << (n * n),
        mismatches=mismatches,
        seconds=round(elapsed, 2),
    )


def rank_drop_pointwise(workers: int | None = None) -> list[dict]:
    """rank of the half condensate is rank - 1 for every sign matrix."""
    checks = []
    for s in range(2, 5):
        for t in range(2, 5):
            cfg = CensusConfig(dims=(s, t), worker_count=workers)
            res = run_census(cfg, aggregates=("rank_drop_violations",))
            checks.append(
                _check(
                    f"rank-drop pointwise {s}x{t}",
                    res.rank_drop_violations == 0,
                    matrices=res.visited,
                    violations=res.rank_drop_violations,
                )
            )
    return checks


def suite_chio_identity(big: bool = False, workers: int | None = None) -> list[dict]:
    checks = [chio_identity_exhaustive(4, workers)]
    if big:
        checks.append(chio_identity_exhaustive(5, workers))
    checks.extend(rank_drop_pointwise(workers))
    return checks


# --- measures ----------------------------------------------------------------


def preimage_support_check(n: int, codes: np.ndarray, counts: np.ndarray) -> dict:
    """Check the sparse ``cond_counts`` pair of the n x n census, support by support.

    By the paper's characterization, the codes on a support S with a
    nonzero count are its 2^rank(S) signings that are even on every cycle
    mask of S (this parity test is the reader's own), each counted
    ``fibre_cardinality`` of S's all-plus event, whose one graph scan
    also gives the masks; S's total is what ``p_lcf`` (averaged over
    signs) and ``p_chio_abs`` of its {0,1} pattern give.

    Returns ``mismatches`` (codes, of all 3^((n-1)^2), whose count is not
    the formula's), ``non_power_of_two``, ``missing_supports``, and
    ``averaged_mismatches`` and ``forgetting_mismatches`` (supports), with
    ``condensates``, ``supports``, ``total`` and ``ok``.

    Raises:
        ValueError: unless the codes are sorted distinct condensate codes, one count each.
    """
    m = (n - 1) ** 2
    n_supports = 1 << m
    if codes.shape != counts.shape or (np.diff(codes) <= 0).any() or (
        codes.size and (codes[0] < 0 or codes[-1] >= 3**m)
    ):
        raise ValueError("not a sparse condensate census: codes must be sorted, distinct, in range")
    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    # cycles[c, S]: the code bits of S's c-th cycle mask, 0 past beta1(S).
    cycles = np.zeros(((n - 2) ** 2, n_supports), dtype=np.int64)
    rank = np.zeros(n_supports, dtype=np.int64)
    expected = np.zeros(n_supports, dtype=np.int64)
    targets = []
    scale = 1 << (n * n)
    for s in range(n_supports):
        bits = [b for b in range(m) if s >> b & 1]
        pattern = PartialTernaryMatrix((n, n), {p: s >> b & 1 for b, p in enumerate(positions)})
        event = Event.on_full_grid(pattern)
        expected[s] = fibre_cardinality(event)
        rank[s], masks = support_cycles(tuple(positions[b] for b in bits))
        for c, mask in enumerate(masks):
            cycles[c, s] = sum(1 << b for e, b in enumerate(bits) if mask >> e & 1)
        averaged = p_lcf(event).as_fraction() * (scale << len(bits))
        targets.append((averaged, p_chio_abs(pattern).as_fraction() * scale))

    # parity[x] is 1 when x has an odd number of set bits.
    parity = np.zeros(n_supports, dtype=np.uint8)
    for b in range(m):
        parity[1 << b : 2 << b] = parity[: 1 << b] ^ 1
    mismatches = nonpow = 0
    balanced_present = np.zeros(n_supports, dtype=np.int64)
    totals = np.zeros(n_supports, dtype=np.int64)
    chunk = 1 << 16
    for lo in range(0, codes.size, chunk):
        support, minus = _condensate_masks(codes[lo : lo + chunk], n)
        count = counts[lo : lo + chunk]
        odd = np.zeros(support.size, dtype=np.uint8)
        for row in cycles:
            odd |= parity[row[support] & minus]
        balanced = odd == 0
        mismatches += np.count_nonzero(np.where(balanced, count != expected[support], count != 0))
        nonpow += np.count_nonzero(count & (count - 1))
        balanced_present += np.bincount(support[balanced], minlength=n_supports)
        np.add.at(totals, support, count)
    # Balanced codes absent from the census.
    mismatches += ((1 << rank) - balanced_present).sum()
    failures = {
        "mismatches": int(mismatches),
        "non_power_of_two": int(nonpow),
        "missing_supports": int((totals == 0).sum()),
        "averaged_mismatches": sum(t != a for t, (a, _) in zip(totals.tolist(), targets)),
        "forgetting_mismatches": sum(t != f for t, (_, f) in zip(totals.tolist(), targets)),
    }
    total = int(counts.sum())
    ok = total == scale and not any(failures.values())
    return {"condensates": 3**m, "supports": n_supports, **failures, "total": total, "ok": ok}


def census_preimage_report(n: int, workers: int | None = None) -> dict:
    """:func:`preimage_support_check` of the n x n census's ``cond_counts``."""
    res = run_census(CensusConfig(dims=(n, n), worker_count=workers), aggregates=("cond_counts",))
    return preimage_support_check(n, res.cond_codes, res.cond_counts)


def census_measure_agreement(n: int, report: dict) -> dict:
    """Every condensate preimage count equals the closed fibre formula.

    ``fibre_cardinality`` is called once per support, on its all-plus
    event; which signings are balanced, and so counted, is decided by the
    reader's own cycle-parity test.  ``report`` is
    :func:`census_preimage_report` of the n x n census.
    """
    return _check(
        f"census preimages == fibre formula n={n}",
        report["ok"],
        condensates=report["condensates"],
        mismatches=report["mismatches"],
        non_power_of_two=report["non_power_of_two"],
    )


def _recipe_chunk(args: tuple[int, int, int, int]) -> tuple[int, int]:
    n, k, start, stop = args
    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    # Each assignment as (values, support, pattern): bit a of support marks
    # a nonzero a-th value, bit e of pattern a -1 on the e-th nonzero one,
    # as p_chio_sign_patterns indexes its patterns.
    assignments = []
    for values in product((-1, 0, 1), repeat=k):
        support = pattern = e = 0
        for a, v in enumerate(values):
            if v:
                support |= 1 << a
                pattern |= (v < 0) << e
                e += 1
        assignments.append((values, support, pattern))
    total = 0
    mismatches = 0
    for chosen in islice(combinations(positions, k), start, stop):
        by_support: dict[int, list] = {}
        for values, support, pattern in assignments:
            chio = by_support.get(support)
            if chio is None:
                nonzero = [p for a, p in enumerate(chosen) if support >> a & 1]
                chio = by_support[support] = p_chio_sign_patterns(chosen, nonzero)
            matrix = PartialTernaryMatrix((n, n), dict(zip(chosen, values)))
            total += 1
            if recipe_p_chio(matrix) != chio[pattern]:
                mismatches += 1
    return total, mismatches


def recipe_equivalence_scan(n: int, workers: int | None = None) -> dict:
    """Compare the recipe against the graph formula on every |I| <= 6 event.

    The graph side comes from :func:`p_chio_sign_patterns`, one scan per
    support; the comparison is per event.
    """
    workers = parallel.resolve_workers(workers)
    m = (n - 1) ** 2
    tasks = []
    for k in range(min(6, m) + 1):
        n_sets = comb(m, k)
        n_chunks = 1 if workers == 1 else min(n_sets, workers * 4) or 1
        tasks.extend(
            (n, k, n_sets * c // n_chunks, n_sets * (c + 1) // n_chunks)
            for c in range(n_chunks)
        )
    results = parallel.run_tasks(_recipe_chunk, tasks, workers)
    total = sum(r[0] for r in results)
    mismatches = sum(r[1] for r in results)
    expected = sum(3**k * comb(m, k) for k in range(min(6, m) + 1))
    return _check(
        f"recipe == p_chio for dom <= 6, n={n}",
        mismatches == 0 and total == expected,
        events=total,
        mismatches=mismatches,
    )


def averaging_check() -> dict:
    """Averaged measure equals lazy coin flip, formula-level over every
    domain at n = 3."""
    n = 3
    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    mismatches = 0
    events = 0
    for k in range(len(positions) + 1):
        for chosen in combinations(positions, k):
            for values in product((-1, 0, 1), repeat=k):
                matrix = PartialTernaryMatrix((n, n), dict(zip(chosen, values)))
                events += 1
                if p_chio_averaged(matrix) != p_lcf(Event(matrix)):
                    mismatches += 1
    return _check(
        f"averaged measure == lazy coin flip, all domains, n={n}",
        mismatches == 0,
        events=events,
        mismatches=mismatches,
    )


def averaging_census_check(n: int, report: dict) -> dict:
    """Averaged measure equals lazy coin flip and the |.|-measure is
    uniform, census-level: each support's summed preimage counts, read
    from ``report`` (:func:`census_preimage_report` of the n x n census)."""
    return _check(
        f"averaging and sign-forgetting vs census counts, n={n}",
        report["averaged_mismatches"] == 0 and report["forgetting_mismatches"] == 0,
        patterns=report["supports"],
        averaged_mismatches=report["averaged_mismatches"],
        forgetting_mismatches=report["forgetting_mismatches"],
    )


def worst_ratio_scan(n: int) -> dict:
    """Max measure ratio over realizable full specifications is 2^((n-2)^2),
    attained exactly at the complete bipartite graph."""
    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    m = len(positions)
    best = -1
    argmax_full_support = True
    attained = 0
    for values in product((-1, 0, 1), repeat=m):
        entries = dict(zip(positions, values))
        balanced, f0, beta0 = balance_summary((n, n), entries)
        if not balanced:
            continue
        supp = sum(1 for v in values if v)
        beta1 = supp - f0 + beta0
        if beta1 > best:
            best = beta1
            attained = 1
            argmax_full_support = supp == m
        elif beta1 == best:
            attained += 1
            argmax_full_support = argmax_full_support and supp == m
    expected = (n - 2) ** 2
    return _check(
        f"worst-case ratio 2^((n-2)^2) at n={n}",
        best == expected and argmax_full_support,
        max_ratio_log2=best,
        expected_log2=expected,
        maximizers=attained,
        maximizers_complete_bipartite=argmax_full_support,
    )


def j_independence_check() -> dict:
    """The event measure does not depend on the ambient index set J: for
    every J inside [n-1]^2, the condensates of all sign matrices on the Chio
    extension J~ hit each event B on a domain inside J p_chio(B) 2^|J~| times."""
    n = 3
    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    agrees = []
    for size in range(len(positions) + 1):
        for members in combinations(positions, size):
            ambient = IndexSet((n, n), frozenset(members))
            extended = chio_extend(ambient)
            domains = [chosen for k in range(size + 1) for chosen in combinations(members, k)]
            hits = Counter()
            for signs in product((-1, 1), repeat=len(extended)):
                condensed = chio_condense(SignMatrix(extended, dict(zip(extended, signs))))
                for chosen in domains:
                    hits[chosen, tuple(condensed[pos] for pos in chosen)] += 1
            for chosen in domains:
                for values in product((-1, 0, 1), repeat=len(chosen)):
                    matrix = PartialTernaryMatrix((n, n), dict(zip(chosen, values)))
                    expected = p_chio(Event(matrix, ambient)).as_fraction() * 2 ** len(extended)
                    agrees.append(hits[chosen, values] == expected)
    return _check(
        f"measure independent of ambient set, n={n}",
        all(agrees),
        cases=len(agrees),
        mismatches=agrees.count(False),
    )


def suite_measures(big: bool = False, workers: int | None = None) -> list[dict]:
    # One n = 3 census and one reading of it serve two checks.
    report3 = census_preimage_report(3, workers)
    checks = [
        census_measure_agreement(3, report3),
        census_measure_agreement(4, census_preimage_report(4, workers)),
    ]
    if big:
        checks.append(census_measure_agreement(5, census_preimage_report(5, workers)))
    checks.append(recipe_equivalence_scan(4, workers))
    if big:
        checks.append(recipe_equivalence_scan(5, workers))
    checks.append(averaging_check())
    checks.append(averaging_census_check(3, report3))
    checks.append(worst_ratio_scan(3))
    checks.append(worst_ratio_scan(4))
    checks.append(j_independence_check())
    return checks


# --- failures -----------------------------------------------------------------


def failure_agreement(k: int, n: int) -> dict:
    """Enumerated counts equal the closed forms including every split."""
    start = time.perf_counter()
    enum = count_failures(k, n)
    form = failure_count_formula(k, n)
    ok = (
        enum.failure_count == form.failure_count
        and enum.by_ratio == form.by_ratio
        and enum.by_value == form.by_value
        and enum.by_isotype == form.by_isotype
    )
    elapsed = time.perf_counter() - start
    return _check(
        f"failure census k={k} n={n}",
        ok,
        enumerated=enum.failure_count,
        formula=form.failure_count,
        seconds=round(elapsed, 4),
    )


def h_identity_check(n: int) -> dict:
    """The three subgraph counts assemble the k=6 closed form."""
    h_c6, h_k23, h_c4, h_geq = h_counts(n)
    form = failure_count_formula(6, n)
    table = realization_table(6, n)
    seventeen = sum(
        v for t, v in table.items() if t not in (IsoType.T4, IsoType.T12)
    )
    ok = (
        h_c6 + h_k23 + h_c4 == form.failure_count
        and h_c4 == h_geq - 3 * h_k23
        and seventeen == h_c4
    )
    return _check(
        f"k=6 subgraph-count identity n={n}",
        ok,
        h_c6=h_c6,
        h_k23=h_k23,
        h_c4_not_k23=h_c4,
        total=form.failure_count,
    )


def suite_failures() -> list[dict]:
    """Enumerated failure counts against the closed forms, k = 4, 5, 6, n = 4..12.

    Every count on both sides, split by ratio, value or isotype, is a
    polynomial of degree at most 8 in n (for n >= 3), so agreement on the
    nine points 4..12 certifies the closed forms at every such n.
    """
    checks = []
    for n in range(4, 13):
        for k in (4, 5, 6):
            checks.append(failure_agreement(k, n))
    checks.append(h_identity_check(6))
    return checks


# --- census -------------------------------------------------------------------


def census_determinism(dims: tuple[int, int]) -> dict:
    """Aggregates, condensate codes included, are bit-identical for worker
    counts 1, 2 and 8.

    The census is cut into 16 chunks, more than 8 workers, so that the
    runs at 2 and 8 workers each start a process pool.
    """
    chunk_size = 1 << (dims[0] * dims[1] - 4)
    outputs = []
    for w in (1, 2, 8):
        res = run_census(
            CensusConfig(dims=dims, worker_count=w, chunk_size=chunk_size),
            aggregates=("rank_pm", "rank_cond", "cond_counts"),
        )
        outputs.append(
            (
                tuple(int(v) for v in res.rank_pm),
                tuple(int(v) for v in res.rank_cond),
                res.cond_codes.tobytes(),
                res.cond_counts.tobytes(),
            )
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    return _check(
        f"census determinism {dims[0]}x{dims[1]}", ok, worker_counts=[1, 2, 8], chunk_size=chunk_size
    )


def rank_identity_checks(workers: int | None = None) -> list[dict]:
    checks = []
    for s, t in ((3, 3), (4, 4)):
        rc = rank_census(s, t, workers=workers)
        v = rc.verify()
        checks.append(
            _check(
                f"rank level-set identities {s}x{t}",
                v["all_ok"],
                rank_pm=rc.pm_rank_counts,
                rank_condensate=rc.condensate_rank_counts,
                rank_binary=rc.binary_rank_counts,
            )
        )
    return checks


def edge_marginal_check(workers: int | None = None) -> dict:
    """Condensate edges appear with exact density 1/2, pairwise independent."""
    n = 4
    res = run_census(
        CensusConfig(dims=(n, n), worker_count=workers), aggregates=("edge_pairs",)
    )
    m = (n - 1) ** 2
    total = 1 << (n * n)
    diag_ok = all(int(res.edge_pairs[i, i]) == total // 2 for i in range(m))
    off_ok = all(
        int(res.edge_pairs[i, j]) == total // 4
        for i in range(m)
        for j in range(m)
        if i != j
    )
    return _check(
        f"edge marginals exact at n={n}",
        diag_ok and off_ok,
        positions=m,
        single_count=total // 2,
        pair_count=total // 4,
    )


def singular_consistency(n: int, workers: int | None = None) -> dict:
    """Singular count factors through the smaller binary singular count."""
    rep = singular_count(n, workers=workers)
    # q4_left is the number of singular (n-1)x(n-1) {0,1} matrices.
    return _check(
        f"singular count factorization n={n}",
        rep.singular_count == rep.q4_left << (2 * n - 1),
        singular=rep.singular_count,
        binary_singular=rep.q4_left,
        q4_left=rep.q4_left,
        q4_right=str(rep.q4_right),
    )


def suite_census(big: bool = False, workers: int | None = None) -> list[dict]:
    checks = [census_determinism((3, 3)), census_determinism((4, 4))]
    checks.extend(rank_identity_checks(workers))
    checks.append(edge_marginal_check(workers))
    kw = kwise_agreement_check(4, workers=workers)
    checks.append(
        _check(
            "k-wise empirical agreement n=4",
            kw["all_ok"],
            per_k=[
                {
                    "k": e["k"],
                    "disagreements": e["disagreements"],
                    "matches_failure_set": e["matches_failure_set"],
                }
                for e in kw["per_k"]
            ],
        )
    )
    for n in (2, 3, 4):
        checks.append(singular_consistency(n, workers))
    if big:
        rc5 = rank_census(5, 5, workers)
        visited = sum(rc5.pm_rank_counts)
        checks.append(
            _check(
                "census 5x5 (big)",
                visited == 1 << 25 and rc5.rank_drop_violations == 0 and rc5.verify()["all_ok"],
                visited=visited,
                rank_pm=rc5.pm_rank_counts,
            )
        )
    return checks


# --- switching ----------------------------------------------------------------


_MAX_EDGES = 6  # of the connected graphs the switching checks walk


def _connected_support_graphs():
    """All connected bipartite graphs with <= _MAX_EDGES edges, as supports
    on an (a x b) grid covering every row and column."""
    for a in range(1, _MAX_EDGES + 1):
        for b in range(a, _MAX_EDGES + 1):
            if a + b > _MAX_EDGES + 1:
                continue
            cells = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
            min_edges = a + b - 1
            for e in range(min_edges, _MAX_EDGES + 1):
                for support in combinations(cells, e):
                    rows = {i for i, _ in support}
                    cols = {j for _, j in support}
                    if len(rows) != a or len(cols) != b:
                        continue
                    edges = frozenset(support)
                    graph = SignedBipartiteGraph(
                        dims=(a + 1, b + 1),
                        row_vertices=frozenset(rows),
                        col_vertices=frozenset(cols),
                        edges=edges,
                    )
                    if betti(graph).beta0 == 1:
                        yield graph


def orbit_transitivity_check() -> dict:
    """Orbits of balanced signings are exactly the balanced signings."""
    graphs = 0
    failures = 0
    for graph in _connected_support_graphs():
        graphs += 1
        edges = sorted(graph.edges)
        signs = list(balanced_sign_maps(graph))
        balanced_set = {tuple(sign[e] for e in edges) for sign in signs}
        orb = orbit(graph.with_sign(signs[0]))
        expected_size = 2 ** (graph.f0 - 1)
        if orb != balanced_set or len(orb) != expected_size:
            failures += 1
    return _check(
        f"orbits == balanced signings, connected graphs <= {_MAX_EDGES} edges",
        failures == 0,
        graphs=graphs,
        failures=failures,
    )


def rank_invariance_all_patterns() -> dict:
    """Every balanced signing of every {0,1} d x d pattern keeps its rank."""
    d = 3
    positions = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    bad = 0
    for values in product((0, 1), repeat=d * d):
        pattern = PartialTernaryMatrix((d + 1, d + 1), dict(zip(positions, values)))
        report = rank_invariance_check(pattern)
        if not report.all_equal:
            bad += 1
    return _check(
        f"rank invariance of balanced signings, all {d}x{d} patterns",
        bad == 0,
        patterns=1 << (d * d),
        failing_patterns=bad,
    )


def switch_action_laws() -> dict:
    """The group law on every pair of switchings, and the two-element
    kernel, on the full grid."""
    n = 4
    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    base = PartialTernaryMatrix(
        (n, n), {p: (1 if (p[0] + p[1]) % 2 else -1) for p in positions}
    )
    switches = all_switches(n, n)
    switched = [switch_matrix(base, g) for g in switches]
    ok = all(
        switch_matrix(switched[g], h).entries == switched[g ^ h].entries
        for g in switches
        for h in switches
    )
    kernel = [g for g in switches if switched[g].entries == base.entries]
    ok = ok and len(kernel) == 2
    return _check(f"switch action laws n={n}", ok, kernel_size=len(kernel))


def suite_switching() -> list[dict]:
    return [
        orbit_transitivity_check(),
        rank_invariance_all_patterns(),
        switch_action_laws(),
    ]


# --- relations ------------------------------------------------------------------


def linear_relations_check() -> dict:
    """The five linear relations hold at n = 4..12.

    Both sides are polynomials of degree at most 8, so agreement on these
    nine points certifies the symbolic identity.
    """
    points = range(4, 13)
    bad = []
    for n in points:
        for entry in check_linear_relations(n):
            if not entry["holds"]:
                bad.append((n, entry["relation"]))
    return _check(
        "linear relations among realization counts",
        not bad,
        n_values=list(points),
        failures=bad,
    )


def density_bound_check() -> dict:
    """Exact failure counts stay below the circuit union bound, n = 4..8."""
    bad = []
    for n in range(4, 9):
        for k in range(1, 7):
            count, bound = failure_density_bound(k, n)
            if count is None or count > bound:
                bad.append((k, n))
    return _check("failure counts within union bound", not bad, failures=bad)


def suite_relations() -> list[dict]:
    return [linear_relations_check(), density_bound_check()]


def run_suites(
    names: list[str],
    big: bool = False,
    workers: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Run the requested suites and return all checks in order (``seed`` is ignored)."""
    registry = {
        "chio-identity": lambda: suite_chio_identity(big, workers),
        "measures": lambda: suite_measures(big, workers),
        "failures": suite_failures,
        "census": lambda: suite_census(big, workers),
        "switching": suite_switching,
        "relations": suite_relations,
    }
    checks = []
    for name in names:
        if name not in registry:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        for entry in registry[name]():
            entry["suite"] = name
            checks.append(entry)
    return checks
