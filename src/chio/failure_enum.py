"""Enumeration and closed-form counting of measure disagreements.

A specification of ``k`` entries disagrees with the lazy coin flip
measure exactly when its graph contains a circuit, i.e. when the support
contains a matrix circuit.  For ``k <= 6`` the possible graphs are the
twenty catalogued nonforest types, every circuit has length four or six,
and closed-form counts exist for ``k`` in {4, 5, 6}:

* k = 4: ``16 C(n-1,2)^2`` failures, half with measure zero, half with
  ratio 2.
* k = 5: ``48 ((n-1)^2 - 4) C(n-1,2)^2``, again split in halves.
* k = 6: a degree-8 polynomial assembled from three subgraph counts
  (a 6-circuit count, a complete-2x3 count, and an inclusion-exclusion
  count of 4-circuits avoiding the 2x3), with ratio classes 0, 2 and 4.

The enumerator is honest: it walks index sets in lexicographic order and
value assignments in base-3 order, decides balance per assignment from
circuit sign parities, and classifies isomorphism types through the
graph module.  An index set without a circuit has no failure and is
skipped before any work.  Whatever depends only on a set's shape, its
rows and columns relabelled by rank, is worked out once per shape and
kept for one call (nothing is cached across calls): the failing
assignments with their isotype, ratio and value for the record stream,
and the failing supports with their balanced-signing counts for the
counter.  That is exact because the relabelling is monotone, so every
slot keeps its position and every circuit its mask, and it is a graph
isomorphism, so isotype, f0, beta0 and beta1 do not change.  The
counter still tests every signing of every circuit-containing support
for balance, once per distinct circuit pattern.  The closed forms are
evaluated over exact rationals and asserted integral, so a transcribed
coefficient error fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb
from typing import Iterator

from .matrix_core import Index2, PartialTernaryMatrix
from .measures import DyadicProb
from .signed_graph import (
    IsoType,
    NONFOREST_TAGS,
    SignedBipartiteGraph,
    circuit_count_formula,
    four_circuits,
    is_six_circuit,
    isotype_and_betti,
)
from . import parallel

VALUE_EXPONENTS = (7, 8, 9, 10, 11)
RATIO_CLASSES = (0, 2, 4)


@dataclass(frozen=True)
class FailureRecord:
    """One specification on which the two measures disagree."""

    matrix: PartialTernaryMatrix
    isotype: IsoType
    ratio: int  # 0 when the condensation measure vanishes, else 2^beta1
    value: DyadicProb

    def to_json_dict(self) -> dict:
        return {
            "B": self.matrix.to_json_dict(),
            "isotype": self.isotype.label,
            "ratio_log2": None if self.ratio == 0 else self.ratio.bit_length() - 1,
            "value": self.value.to_json_dict(),
        }


@dataclass
class CountReport:
    """Aggregate failure counts for one (k, n), by ratio, value and type."""

    k: int
    n: int
    total_events: int
    failure_count: int
    by_ratio: dict[int, int] = field(default_factory=dict)
    by_value: dict[DyadicProb, int] = field(default_factory=dict)
    by_isotype: dict[IsoType, int] = field(default_factory=dict)

    def validate(self) -> None:
        for name, counts in (
            ("by_ratio", self.by_ratio),
            ("by_value", self.by_value),
            ("by_isotype", self.by_isotype),
        ):
            if sum(counts.values()) != self.failure_count:
                raise AssertionError(f"{name} does not sum to the failure count")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "total": self.total_events,
            "failures": self.failure_count,
            "by_ratio": {str(r): self.by_ratio.get(r, 0) for r in RATIO_CLASSES},
            "by_value": {
                "zero": self.by_value.get(DyadicProb.zero(), 0),
                **{
                    str(e): self.by_value.get(DyadicProb.pow_half(e), 0)
                    for e in VALUE_EXPONENTS
                },
            },
            "by_isotype": {
                tag.label: self.by_isotype.get(tag, 0) for tag in NONFOREST_TAGS
            },
        }

    @staticmethod
    def csv_header() -> list[str]:
        return (
            ["k", "n", "total", "failures", "ratio0", "ratio2", "ratio4"]
            + [f"v{e}" for e in VALUE_EXPONENTS]
            + [tag.label for tag in NONFOREST_TAGS]
        )

    def to_csv_row(self) -> list[int]:
        return (
            [self.k, self.n, self.total_events, self.failure_count]
            + [self.by_ratio.get(r, 0) for r in RATIO_CLASSES]
            + [self.by_value.get(DyadicProb.pow_half(e), 0) for e in VALUE_EXPONENTS]
            + [self.by_isotype.get(tag, 0) for tag in NONFOREST_TAGS]
        )


def total_event_count(k: int, n: int) -> int:
    """Number of k-entry specifications on the (n-1) x (n-1) grid."""
    return 3**k * comb((n - 1) ** 2, k)


def grid_positions(n: int) -> list[Index2]:
    return [(i, j) for i in range(1, n) for j in range(1, n)]


def _holds_circuit(chosen: tuple[Index2, ...]) -> bool:
    """Whether at most six positions, sorted by row, contain a matrix circuit.

    With at most six positions every circuit has length four or six.  A
    4-circuit is two rows sharing two columns; a 6-circuit spans three
    rows with every degree two (:func:`is_six_circuit`).  Existence is
    decided from per-row column bitmasks; no circuit is listed.
    """
    masks: list[int] = []
    last = None
    for i, j in chosen:
        if i == last:
            masks[-1] |= 1 << j
        else:
            masks.append(1 << j)
            last = i
    for a, mask in enumerate(masks):
        if mask & (mask - 1):
            for other in masks[a + 1 :]:
                if (mask & other).bit_count() > 1:
                    return True
    return len(masks) == 3 and is_six_circuit(chosen)


def _shape(chosen: tuple[Index2, ...]) -> tuple[Index2, ...]:
    """The index set with its rows and its columns relabelled 1, 2, ... by rank.

    The relabelling is monotone, so the positions keep their order (and
    each slot its position), and it is a graph isomorphism that keeps
    every vertex: circuit masks, isotype, f0, beta0 and beta1 of every
    support are those of the original set.
    """
    row_rank = {i: r for r, i in enumerate(sorted({i for i, _ in chosen}), 1)}
    col_rank = {j: c for c, j in enumerate(sorted({j for _, j in chosen}), 1)}
    # From a list, not a generator: tuple(generator) over-allocates and
    # shrinks, which fills the interpreter's free list of small tuples.
    return tuple([(row_rank[i], col_rank[j]) for i, j in chosen])


class _IndexSetContext:
    """Per-index-set scratch data (built on shapes): circuits and per-support metrics."""

    __slots__ = ("n", "positions", "k", "circuit_masks", "six_mask", "_cache")

    def __init__(self, n: int, positions: tuple[Index2, ...]):
        self.n = n
        self.positions = positions
        self.k = len(positions)
        slot = {pos: b for b, pos in enumerate(positions)}
        self.circuit_masks = [
            sum(1 << slot[pos] for pos in c) for c in four_circuits(positions)
        ]
        self.six_mask = (1 << self.k) - 1 if is_six_circuit(positions) else 0
        self._cache: dict[int, tuple] = {}

    def circuits_in_support(self, mask: int) -> list[int] | None:
        """Circuit masks inside the support, or None when there are none."""
        found = [c for c in self.circuit_masks if c & mask == c]
        if self.six_mask and mask == self.six_mask:
            found.append(self.six_mask)
        return found or None

    def support_metrics(self, mask: int) -> tuple:
        """(isotype, value exponent, beta1, circuit masks) for a support mask."""
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        edges = frozenset(
            self.positions[b] for b in range(self.k) if mask >> b & 1
        )
        graph = SignedBipartiteGraph(
            dims=(self.n, self.n),
            row_vertices=frozenset(i for i, _ in self.positions),
            col_vertices=frozenset(j for _, j in self.positions),
            edges=edges,
        )
        isotype, data = isotype_and_betti(graph)
        exponent = self.k + data.f0 - data.beta0
        circuits = self.circuits_in_support(mask) or []
        result = (isotype, exponent, data.beta1, circuits)
        self._cache[mask] = result
        return result


def _balanced(minus_mask: int, circuits: list[int]) -> bool:
    """Every circuit carries an even number of negative entries."""
    return all((minus_mask & c).bit_count() % 2 == 0 for c in circuits)


def _check_range(k: int, n: int) -> None:
    if not 0 <= k <= 6:
        raise ValueError("enumeration supports 0 <= k <= 6")
    if n < 2:
        raise ValueError("n must be at least 2")


def _circuit_sets(k: int, n: int, start: int = 0, stop: int | None = None):
    """(index set, shape) of each circuit-bearing set among combinations [start, stop)."""
    for chosen in islice(combinations(grid_positions(n), k), start, stop):
        if _holds_circuit(chosen):
            yield chosen, _shape(chosen)


def _failing_assignments(n: int, shape: tuple[Index2, ...]) -> list[tuple]:
    """(values, isotype, ratio, value) of every failing assignment, in base-3 order."""
    ctx = _IndexSetContext(n, shape)
    failing = []
    for values in product((-1, 0, 1), repeat=ctx.k):
        support_mask = 0
        minus_mask = 0
        for b, v in enumerate(values):
            if v != 0:
                support_mask |= 1 << b
                if v == -1:
                    minus_mask |= 1 << b
        circuits = ctx.circuits_in_support(support_mask)
        if circuits is None:
            continue
        isotype, exponent, beta1, _ = ctx.support_metrics(support_mask)
        if _balanced(minus_mask, circuits):
            failing.append((values, isotype, 2**beta1, DyadicProb.pow_half(exponent)))
        else:
            failing.append((values, isotype, 0, DyadicProb.zero()))
    return failing


def enumerate_failures(k: int, n: int) -> Iterator[FailureRecord]:
    """Yield every k-entry specification with a cyclic graph, exactly once.

    Index sets run in lexicographic order of their sorted position lists,
    assignments in base-3 order (digit values -1, 0, +1).  The failing
    assignments of an index set, with their isotype, ratio and value, are
    worked out once per shape (see :func:`_shape`) and kept for the
    length of the call; each record is then built on the set's own
    positions.

    Raises:
        ValueError: for k > 6 (isotype classification is catalogue-backed)
            or k < 0 or n < 2.
    """
    _check_range(k, n)
    memo: dict[tuple[Index2, ...], list[tuple]] = {}
    for chosen, shape in _circuit_sets(k, n):
        failing = memo.get(shape)
        if failing is None:
            failing = memo[shape] = _failing_assignments(n, shape)
        for values, isotype, ratio, value in failing:
            yield FailureRecord(
                matrix=PartialTernaryMatrix((n, n), dict(zip(chosen, values))),
                isotype=isotype,
                ratio=ratio,
                value=value,
            )


def _balanced_signings(support_mask: int, circuits: tuple[int, ...]) -> int:
    """Balanced signings of a support, each of its 2^size signings tested.

    The signings run over the submasks of the support; a set bit means
    entry -1.
    """
    count = 0
    minus_mask = support_mask
    while True:
        count += _balanced(minus_mask, circuits)
        if not minus_mask:
            return count
        minus_mask = (minus_mask - 1) & support_mask


def _failing_supports(
    n: int, shape: tuple[Index2, ...], walks: dict[tuple, int]
) -> Iterator[tuple[int, int, str, int, int]]:
    """(size, balanced signings, isotype label, exponent, beta1) per failing support.

    ``walks`` maps a support and its circuit masks to the support's
    balanced-signing count, so each circuit pattern is walked once.
    """
    ctx = _IndexSetContext(n, shape)
    for support_mask in range(1 << ctx.k):
        circuits = ctx.circuits_in_support(support_mask)
        if circuits is None:
            continue
        isotype, exponent, beta1, _ = ctx.support_metrics(support_mask)
        pattern = (support_mask, tuple(circuits))
        balanced = walks.get(pattern)
        if balanced is None:
            balanced = walks[pattern] = _balanced_signings(*pattern)
        yield support_mask.bit_count(), balanced, isotype.label, exponent, beta1


def _count_range(args: tuple[int, int, int, int]) -> dict:
    """Counting worker over a contiguous range of index sets.

    The range's circuit-bearing sets are tallied by shape, and each shape's
    failing supports are then worked out once and weighted by its tally.
    """
    k, n, start, stop = args
    shapes: dict[tuple[Index2, ...], int] = {}
    for _, shape in _circuit_sets(k, n, start, stop):
        shapes[shape] = shapes.get(shape, 0) + 1
    by_ratio: dict[int, int] = {}
    by_value: dict[int | None, int] = {}
    by_isotype: dict[str, int] = {}
    failures = 0
    walks: dict[tuple, int] = {}
    for shape, sets in shapes.items():
        for size, balanced, label, exponent, beta1 in _failing_supports(n, shape, walks):
            total = sets << size
            balanced *= sets
            failures += total
            ratio = 2**beta1
            by_ratio[ratio] = by_ratio.get(ratio, 0) + balanced
            by_ratio[0] = by_ratio.get(0, 0) + total - balanced
            by_value[exponent] = by_value.get(exponent, 0) + balanced
            by_value[None] = by_value.get(None, 0) + total - balanced
            by_isotype[label] = by_isotype.get(label, 0) + total
    return {
        "failures": failures,
        "by_ratio": by_ratio,
        "by_value": by_value,
        "by_isotype": by_isotype,
    }


def count_failures(k: int, n: int, workers: int | None = None) -> CountReport:
    """Count failures by exhaustive enumeration, aggregated per class.

    Every index set is visited.  Those without a circuit are skipped at
    once; the others are tallied by shape (:func:`_shape`), and each shape
    is worked out once per range and weighted by its tally: that is exact
    because the rank relabelling is an isomorphism that keeps the slot
    order, so every set of a shape has the same circuit masks and the same
    isotype and Betti data on every support.  Per shape, every signing of
    every circuit-containing support is still decided from circuit
    parities, each distinct circuit pattern (a support with its circuit
    masks) walked once per range.  The index-set space is split into
    contiguous ranges merged in fixed order, so the result does not
    depend on the worker count.

    Raises:
        ValueError: for k outside 0..6 or n < 2.
    """
    _check_range(k, n)
    n_sets = comb((n - 1) ** 2, k)
    workers = parallel.resolve_workers(workers)
    n_chunks = 1 if workers == 1 else min(n_sets, workers * 8) or 1
    bounds = [
        (k, n, n_sets * c // n_chunks, n_sets * (c + 1) // n_chunks)
        for c in range(n_chunks)
    ]
    partials = parallel.run_tasks(_count_range, bounds, workers)

    by_ratio: dict[int, int] = {}
    by_value: dict[int | None, int] = {}
    by_isotype: dict[str, int] = {}
    failures = 0
    for part in partials:
        failures += part["failures"]
        for key, v in part["by_ratio"].items():
            by_ratio[key] = by_ratio.get(key, 0) + v
        for key, v in part["by_value"].items():
            by_value[key] = by_value.get(key, 0) + v
        for key, v in part["by_isotype"].items():
            by_isotype[key] = by_isotype.get(key, 0) + v

    report = CountReport(
        k=k,
        n=n,
        total_events=total_event_count(k, n),
        failure_count=failures,
        by_ratio={r: c for r, c in sorted(by_ratio.items()) if c},
        by_value={
            (DyadicProb.zero() if e is None else DyadicProb.pow_half(e)): c
            for e, c in sorted(by_value.items(), key=lambda kv: (kv[0] is None, kv[0] or 0))
            if c
        },
        by_isotype={IsoType(lbl): c for lbl, c in sorted(by_isotype.items()) if c},
    )
    report.validate()
    return report


# --- closed forms ------------------------------------------------------------


def xi(n: int) -> int:
    """Number of signed matrix 4-circuits: 2^4 C(n-1,2)^2."""
    return 16 * comb(n - 1, 2) ** 2


def circuit_count(length: int, n: int) -> int:
    """|Cir(length, n)|; length 2 gives 0 (simple graphs have no 2-circuits)."""
    if length == 2:
        return 0
    return circuit_count_formula(length, n, n)


def h_counts(n: int) -> tuple[int, int, int, int]:
    """Subgraph counts behind the k = 6 closed form.

    Returns ``(h_c6, h_k23, h_c4_not_k23, h_geq)``: specifications whose
    graph contains a 6-circuit; a complete 2x3; a 4-circuit but no
    complete 2x3 (inclusion-exclusion, each 2x3 holds three 4-circuits);
    and the raw over-counting sum.
    """
    h_c6 = 2**6 * 6 * comb(n - 1, 3) ** 2
    h_k23 = 2 * 2**6 * comb(n - 1, 3) * comb(n - 1, 2)
    h_geq = 16 * comb(n - 1, 2) ** 2 * 9 * comb((n - 1) ** 2 - 4, 2)
    h_c4_not_k23 = h_geq - 3 * h_k23
    return h_c6, h_k23, h_c4_not_k23, h_geq


def realization_count_formula(isotype: IsoType, k: int, n: int) -> int:
    """Closed-form number of k-entry specifications with the given type.

    Raises:
        ValueError: for a (type, k) pair without a catalogued formula.
    """
    x = xi(n)
    m = n - 3
    tables: dict[int, dict[IsoType, int]] = {
        4: {IsoType.T1: x},
        5: {
            IsoType.T2: 4 * m * x,
            IsoType.T3: 8 * m * x,
            IsoType.T5: m**2 * x,
            IsoType.T7: 2 * m**2 * x,
        },
        6: {
            IsoType.T2: 2 * m * x,
            IsoType.T3: 8 * m * x,
            IsoType.T4: 2**7 * comb(n - 1, 2) * comb(n - 1, 3),
            IsoType.T5: (8 * m**2 + 8 * comb(m, 2)) * x,
            IsoType.T6: (24 * m**2 + 32 * comb(m, 2)) * x,
            IsoType.T7: 8 * m**2 * x,
            IsoType.T8: 16 * comb(m, 2) * x,
            IsoType.T9: 16 * m**2 * x,
            IsoType.T10: 16 * m**2 * x,
            IsoType.T11: 16 * comb(m, 2) * x,
            IsoType.T12: 2**6 * circuit_count(6, n),
            IsoType.T13: 10 * m * comb(m, 2) * x,
            IsoType.T14: 16 * m * comb(m, 2) * x,
            IsoType.T15: 24 * m * comb(m, 2) * x,
            IsoType.T16: 32 * m * comb(m, 2) * x,
            IsoType.T17: 8 * m * comb(m, 2) * x,
            IsoType.T18: 2 * comb(m, 2) ** 2 * x,
            IsoType.T19: 8 * comb(m, 2) ** 2 * x,
            IsoType.T20: 8 * comb(m, 2) ** 2 * x,
        },
    }
    try:
        return tables[k][isotype]
    except KeyError:
        raise ValueError(f"no realization formula for ({isotype.label}, k={k})") from None


def realization_table(k: int, n: int) -> dict[IsoType, int]:
    """All catalogued realization counts for the given k."""
    tags = {
        4: [IsoType.T1],
        5: [IsoType.T2, IsoType.T3, IsoType.T5, IsoType.T7],
        6: [t for t in NONFOREST_TAGS if t is not IsoType.T1],
    }
    if k not in tags:
        raise ValueError("realization tables exist for k in {4, 5, 6}")
    return {t: realization_count_formula(t, k, n) for t in tags[k]}


# Degree-8 polynomials for the k = 6 failure classes, kept as exact
# rational coefficient lists (highest degree first) and checked against
# the combinatorial construction on every evaluation.
_POLY_F6 = [
    Fraction(18), Fraction(-180), Fraction(1868, 3), Fraction(-2176, 3),
    Fraction(-754, 3), Fraction(428, 3), Fraction(8144, 3),
    Fraction(-11536, 3), Fraction(1504),
]
_POLY_F6_RATIO0 = [
    Fraction(9), Fraction(-90), Fraction(934, 3), Fraction(-360),
    Fraction(-449, 3), Fraction(154), Fraction(3664, 3),
    Fraction(-1816), Fraction(720),
]
_POLY_F6_RATIO2 = [
    Fraction(9), Fraction(-90), Fraction(934, 3), Fraction(-368),
    Fraction(-233, 3), Fraction(-94), Fraction(4888, 3),
    Fraction(-2136), Fraction(816),
]
_POLY_F6_RATIO4 = [
    Fraction(8, 3), Fraction(-24), Fraction(248, 3), Fraction(-136),
    Fraction(320, 3), Fraction(-32),
]
_POLY_H_C4_NOT_K23 = [
    Fraction(18), Fraction(-180), Fraction(612), Fraction(-608),
    Fraction(-774), Fraction(1348), Fraction(1200), Fraction(-2864),
    Fraction(1248),
]


def _poly_int(coeffs: list[Fraction], n: int) -> int:
    value = Fraction(0)
    for c in coeffs:
        value = value * n + c
    if value.denominator != 1:
        raise AssertionError(f"polynomial value {value} at n={n} is not integral")
    return value.numerator


def failure_count_formula(k: int, n: int) -> CountReport:
    """Closed-form failure report for k in {4, 5, 6}; no enumeration.

    Internally cross-checks the degree-8 polynomial forms against the
    combinatorial construction and the realization-count tables.  When
    the (n-1) x (n-1) grid has fewer than k entries the report is all
    zero, as from :func:`count_failures`.

    Raises:
        ValueError: for k outside {4, 5, 6} or n < 2.
    """
    if k not in (4, 5, 6):
        raise ValueError("closed forms exist for k in {4, 5, 6}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if (n - 1) ** 2 < k:
        # The closed forms would take comb of negative arguments here.
        return CountReport(k, n, total_events=0, failure_count=0)
    total = total_event_count(k, n)
    if k == 4:
        failures = xi(n)
        by_isotype = realization_table(4, n)
        half = failures // 2
        report = CountReport(
            k, n, total, failures,
            by_ratio={0: half, 2: half},
            by_value={DyadicProb.zero(): half, DyadicProb.pow_half(7): half},
            by_isotype=by_isotype,
        )
    elif k == 5:
        failures = 48 * ((n - 1) ** 2 - 4) * comb(n - 1, 2) ** 2
        by_isotype = realization_table(5, n)
        if sum(by_isotype.values()) != failures:
            raise AssertionError("k=5 realization table does not sum to the total")
        half = failures // 2
        report = CountReport(
            k, n, total, failures,
            by_ratio={0: half, 2: half},
            by_value={
                DyadicProb.zero(): half,
                DyadicProb.pow_half(8): (by_isotype[IsoType.T2] + by_isotype[IsoType.T5]) // 2,
                DyadicProb.pow_half(9): (by_isotype[IsoType.T3] + by_isotype[IsoType.T7]) // 2,
            },
            by_isotype=by_isotype,
        )
    else:
        h_c6, h_k23, h_c4, _ = h_counts(n)
        failures = h_c6 + h_k23 + h_c4
        by_isotype = realization_table(6, n)
        if sum(by_isotype.values()) != failures:
            raise AssertionError("k=6 realization table does not sum to the total")
        seventeen = failures - by_isotype[IsoType.T4] - by_isotype[IsoType.T12]
        if seventeen != h_c4:
            raise AssertionError("seventeen-type sum disagrees with the 4-circuit count")
        ratio2 = (h_c4 + h_c6) // 2
        ratio4 = h_k23 // 4
        ratio0 = failures - ratio2 - ratio4
        one_beta = lambda *tags: sum(by_isotype[t] for t in tags) // 2
        by_value = {
            DyadicProb.zero(): ratio0,
            DyadicProb.pow_half(9): one_beta(IsoType.T2, IsoType.T5, IsoType.T13, IsoType.T18),
            DyadicProb.pow_half(10): one_beta(
                IsoType.T3, IsoType.T6, IsoType.T7, IsoType.T14, IsoType.T15, IsoType.T19
            ) + by_isotype[IsoType.T4] // 4,
            DyadicProb.pow_half(11): one_beta(
                IsoType.T8, IsoType.T9, IsoType.T10, IsoType.T11,
                IsoType.T12, IsoType.T16, IsoType.T17, IsoType.T20,
            ),
        }
        for coeffs, expected in (
            (_POLY_F6, failures),
            (_POLY_F6_RATIO0, ratio0),
            (_POLY_F6_RATIO2, ratio2),
            (_POLY_F6_RATIO4, ratio4),
            (_POLY_H_C4_NOT_K23, h_c4),
        ):
            if _poly_int(coeffs, n) != expected:
                raise AssertionError("polynomial form disagrees with construction")
        report = CountReport(
            k, n, total, failures,
            by_ratio={0: ratio0, 2: ratio2, 4: ratio4},
            by_value=by_value,
            by_isotype=by_isotype,
        )
    # Keep only populated classes so reports compare cleanly with
    # enumeration output; serialization re-fills the canonical key sets.
    report.by_ratio = {r: c for r, c in report.by_ratio.items() if c}
    report.by_value = {v: c for v, c in report.by_value.items() if c}
    report.by_isotype = {t: c for t, c in report.by_isotype.items() if c}
    report.validate()
    return report


def check_linear_relations(
    n: int, enumerated: dict[int, dict[IsoType, int]] | None = None
) -> list[dict]:
    """Verify the five linear relations among realization counts.

    Each relation compares a multiple of one type count against a sum of
    others, on the closed forms and optionally on enumerated by-isotype
    maps (keyed by k).
    """
    relations = [
        ("r1", 5, 2, [IsoType.T2], [IsoType.T3]),
        ("r2", 5, 2, [IsoType.T5], [IsoType.T7]),
        ("r3", 6, 8, [IsoType.T5],
         [IsoType.T6, IsoType.T7, IsoType.T8, IsoType.T9, IsoType.T10, IsoType.T11]),
        ("r4", 6, 8, [IsoType.T13],
         [IsoType.T14, IsoType.T15, IsoType.T16, IsoType.T17]),
        ("r5", 6, 8, [IsoType.T18], [IsoType.T19, IsoType.T20]),
    ]
    results = []
    for name, k, factor, lhs_tags, rhs_tags in relations:
        lhs = factor * sum(realization_count_formula(t, k, n) for t in lhs_tags)
        rhs = sum(realization_count_formula(t, k, n) for t in rhs_tags)
        entry = {
            "relation": name,
            "k": k,
            "description": "%d*(%s) == %s" % (
                factor,
                "+".join(t.label for t in lhs_tags),
                "+".join(t.label for t in rhs_tags),
            ),
            "lhs": lhs,
            "rhs": rhs,
            "holds": lhs == rhs,
        }
        if enumerated is not None and k in enumerated:
            counts = enumerated[k]
            lhs_e = factor * sum(counts.get(t, 0) for t in lhs_tags)
            rhs_e = sum(counts.get(t, 0) for t in rhs_tags)
            entry["lhs_enumerated"] = lhs_e
            entry["rhs_enumerated"] = rhs_e
            entry["holds_enumerated"] = lhs_e == rhs_e
        results.append(entry)
    return results


def failure_density_bound(k: int, n: int) -> tuple[int | None, int]:
    """(exact failure count if known, union-bound over matrix circuits).

    The bound sums, over circuit lengths 2j <= k, the ways to place a
    signed circuit and fill the remaining positions arbitrarily.  The
    count is the closed form for k in {4, 5, 6}, zero for k <= 3 and
    None beyond the catalogued range.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = 0
    for j in range(1, k // 2 + 1):
        bound += (
            2 ** (2 * j)
            * 3 ** (k - 2 * j)
            * comb((n - 1) ** 2 - 2 * j, k - 2 * j)
            * circuit_count(2 * j, n)
        )
    if k <= 3:
        count: int | None = 0
    elif k <= 6:
        count = failure_count_formula(k, n).failure_count
    else:
        count = None
    if count is not None and count > bound:
        raise AssertionError("exact count exceeds the union bound")
    return count, bound


def failure_density(k: int, n: int) -> Fraction | None:
    """Exact failure fraction among all k-entry specifications, if known."""
    count, _ = failure_density_bound(k, n)
    if count is None:
        return None
    return Fraction(count, total_event_count(k, n))
