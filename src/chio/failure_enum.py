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

Every split follows from the count of each type by one rule.  A signed
graph with f1 edges and cycle rank beta1 is balanced on 2^(f1 - beta1)
of its 2^f1 signings, so of the c realizations of a type, ``c >> beta1``
have ratio 2^beta1 and value 2^-(k + f1 - beta1), and the rest have
ratio 0 and value zero.  The type counts come from one realization
table per n (:func:`realization_table`), f1 and beta1 from one literal
table; the enumerator reads neither.

The enumerator is honest: it lists the index sets that hold a circuit,
in lexicographic order, and value assignments in base-3 order, decides
balance per assignment from circuit sign parities, and classifies
isomorphism types through the graph module.  An index set without a
circuit has no failure, so only circuit-bearing sets are generated.
Whatever depends only on a set's shape, its rows and columns relabelled
by rank (:func:`_shape`), is worked out once per shape: one table of the
failing supports, each with its circuit masks, isotype, value exponent
and beta1 (:func:`_failing_supports`).  That is exact because the
relabelling is monotone, so every slot keeps its position and every
circuit its mask, and it is a graph isomorphism, so isotype, f0, beta0
and beta1 do not change.  The shapes do not depend on n: a
circuit-bearing k-set uses at most k - 2 rows and k - 2 columns, so
they are the shapes of the circuit-bearing k-subsets of the
(k-2) x (k-2) grid (:func:`_shapes`; 1, 21 and 380 of them for
k = 4, 5, 6), and a shape on r rows and c columns is the shape of
exactly C(n-1, r) C(n-1, c) index sets, one per choice of rows and
columns.  The counter walks each shape's table, testing every signing of
every failing support for balance, once per distinct circuit pattern,
and sums the tallies of the shapes with one extent (r, c) into one
n-independent table per k (:func:`_extent_tallies`), built once per
process; a count weights each extent's tallies by C(n-1, r) C(n-1, c).
The record stream embeds each shape at every choice of rows and columns
(:func:`_circuit_sets`) and looks up each assignment's support in the
shape's table, rebuilt by every call.  The tables share one memo of
support graphs, keyed by the support's own shape and the set's rows and
columns: graphs with one key are isomorphic, so each is classified
once.  Across calls the enumerator keeps only its list of shapes and the
counter's extent tables, 81 counts over 8 extents at k = 6.  A record
keeps its positions and values and builds its matrix only when read; the
stream allocates each record and fills its slots directly
(:func:`_record`), skipping the per-field ``object.__setattr__`` of the
frozen dataclass constructor.  Its values and isotypes are shared
instances that hash by identity, so tallies keyed by them run at C speed.
The closed forms are evaluated over exact rationals and asserted
integral, so a transcribed coefficient error fails loudly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from itertools import combinations, product
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

VALUE_EXPONENTS = (7, 8, 9, 10, 11)
RATIO_CLASSES = (0, 2, 4)


@dataclass(frozen=True, slots=True)
class FailureRecord:
    """One specification on which the two measures disagree.

    ``positions`` is the sorted index set and ``values`` the entry at each
    position.  ``matrix`` is built and validated on its first read and
    kept in the ``_matrix`` slot, which takes no part in equality.
    """

    dims: tuple[int, int]
    positions: tuple[Index2, ...]
    values: tuple[int, ...]
    isotype: IsoType
    ratio: int  # 0 when the condensation measure vanishes, else 2^beta1
    value: DyadicProb
    _matrix: PartialTernaryMatrix | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def matrix(self) -> PartialTernaryMatrix:
        if self._matrix is None:
            matrix = PartialTernaryMatrix(self.dims, dict(zip(self.positions, self.values)))
            object.__setattr__(self, "_matrix", matrix)
        return self._matrix


# The record stream fills each slot through its descriptor: a frozen
# dataclass __init__ goes through object.__setattr__ once per field.  The
# unpacking fails at import if a field is added and not set here.
(
    _set_dims, _set_positions, _set_values, _set_isotype, _set_ratio, _set_value, _set_matrix,
) = (FailureRecord.__dict__[f.name].__set__ for f in fields(FailureRecord))


def _record(
    dims: tuple[int, int],
    positions: tuple[Index2, ...],
    values: tuple[int, ...],
    isotype: IsoType,
    ratio: int,
    value: DyadicProb,
) -> FailureRecord:
    """``FailureRecord(dims, positions, values, isotype, ratio, value)`` without ``__init__``."""
    rec = object.__new__(FailureRecord)
    _set_dims(rec, dims)
    _set_positions(rec, positions)
    _set_values(rec, values)
    _set_isotype(rec, isotype)
    _set_ratio(rec, ratio)
    _set_value(rec, value)
    _set_matrix(rec, None)
    return rec


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


def _balanced(minus_mask: int, circuits: tuple[int, ...]) -> bool:
    """Every circuit carries an even number of negative entries."""
    return all((minus_mask & c).bit_count() % 2 == 0 for c in circuits)


def _check_range(k: int, n: int) -> None:
    if not 0 <= k <= 6:
        raise ValueError("enumeration supports 0 <= k <= 6")
    if n < 2:
        raise ValueError("n must be at least 2")


@cache
def _shapes(k: int) -> tuple[tuple[Index2, ...], ...]:
    """The shapes of the circuit-bearing k-sets, sorted; they do not depend on n.

    A circuit-bearing k-set is a 4-circuit, on two rows and two columns,
    joined with k - 4 other positions or, at k = 6, a 6-circuit on three
    rows and three columns, so it uses at most k - 2 rows and k - 2
    columns: its shape is the shape of a k-subset of the (k-2) x (k-2)
    grid on which the library's circuit search finds a circuit.
    """
    found = {
        _shape(chosen)
        for chosen in combinations(grid_positions(k - 1), k)
        if four_circuits(chosen) or is_six_circuit(chosen)
    }
    return tuple(sorted(found))


def _extent(shape: tuple[Index2, ...]) -> tuple[int, int]:
    """(rows, columns) of a shape: its largest row and column labels."""
    return max(i for i, _ in shape), max(j for _, j in shape)


def _circuit_sets(k: int, n: int) -> list[tuple[tuple[Index2, ...], tuple[Index2, ...]]]:
    """(set, shape) for every sorted k-subset of the grid that holds a circuit.

    Each shape on r rows and c columns is embedded at every r-set R of
    rows and c-set C of columns, (i, j) going to (R[i-1], C[j-1]).  A set
    determines its rows, its columns and its shape, so every set comes
    out exactly once; the embedding is monotone, so it comes out sorted.
    The pairs are sorted by set, in lexicographic order, and the sets
    share one position tuple per grid cell.
    """
    cells = [[(i, j) for j in range(n)] for i in range(n)]
    pairs = []
    labels = range(1, n)
    for shape in _shapes(k):
        r, c = _extent(shape)
        for rows in combinations(labels, r):
            for cols in combinations(labels, c):
                chosen = tuple([cells[rows[i - 1]][cols[j - 1]] for i, j in shape])
                pairs.append((chosen, shape))
    pairs.sort()
    return pairs


def _failing_supports(
    shape: tuple[Index2, ...], graphs: dict
) -> dict[int, tuple[tuple[int, ...], IsoType, int, int]]:
    """{support mask: (circuit masks, isotype, value exponent, beta1)} per failing support.

    A support fails when it holds a circuit: a 4-circuit of the set or,
    when the whole set is one, the 6-circuit.  Isotype and Betti data come
    from the graph of the support on all vertices of the set.  That graph
    is fixed up to isomorphism by the support's own shape and the set's
    rows and columns, so ``graphs``, a dict the caller keeps for one
    build, classifies each such key once across shapes.  The graph's grid
    is the smallest that holds the set: neither the classification nor
    the Betti data depends on it.
    """
    k = len(shape)
    slot = {pos: b for b, pos in enumerate(shape)}
    fours = [sum(1 << slot[pos] for pos in c) for c in four_circuits(shape)]
    six = (1 << k) - 1 if is_six_circuit(shape) else 0
    rows = frozenset(i for i, _ in shape)
    cols = frozenset(j for _, j in shape)
    dims = (max(rows) + 1, max(cols) + 1)
    table = {}
    for mask in range(1 << k):
        circuits = tuple(c for c in fours if c & mask == c)
        if six and mask == six:
            circuits += (six,)
        if not circuits:
            continue
        support = tuple([shape[b] for b in range(k) if mask >> b & 1])
        key = (_shape(support), rows, cols)
        classified = graphs.get(key)
        if classified is None:
            graph = SignedBipartiteGraph(
                dims=dims, row_vertices=rows, col_vertices=cols, edges=frozenset(support)
            )
            classified = graphs[key] = isotype_and_betti(graph)
        isotype, data = classified
        table[mask] = (circuits, isotype, k + data.f0 - data.beta0, data.beta1)
    return table


def _failing_assignments(shape: tuple[Index2, ...], graphs: dict) -> list[tuple]:
    """(values, isotype, ratio, value) of every failing assignment, in base-3 order."""
    table = _failing_supports(shape, graphs)
    failing = []
    for values in product((-1, 0, 1), repeat=len(shape)):
        support_mask = 0
        minus_mask = 0
        for b, v in enumerate(values):
            if v != 0:
                support_mask |= 1 << b
                if v == -1:
                    minus_mask |= 1 << b
        entry = table.get(support_mask)
        if entry is None:
            continue
        circuits, isotype, exponent, beta1 = entry
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
    length of the call; each record carries the set's own positions.

    Raises:
        ValueError: for k > 6 (isotype classification is catalogue-backed)
            or k < 0 or n < 2.
    """
    _check_range(k, n)
    dims = (n, n)
    memo: dict[tuple[Index2, ...], list[tuple]] = {}
    graphs: dict = {}
    for chosen, shape in _circuit_sets(k, n):
        failing = memo.get(shape)
        if failing is None:
            failing = memo[shape] = _failing_assignments(shape, graphs)
        for values, isotype, ratio, value in failing:
            yield _record(dims, chosen, values, isotype, ratio, value)


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


@cache
def _extent_tallies(k: int) -> tuple[tuple[tuple[int, int], tuple[tuple, tuple, tuple]], ...]:
    """(extent, (ratio, value, isotype tallies)) per extent (r, c), sorted; built once per k.

    Each tally is a tuple of (key, count) pairs, the counts summed over
    the shapes on r rows and c columns (:func:`_shapes`) for one index set
    of that shape each: every signing of every failing support
    (:func:`_failing_supports`) is decided from circuit parities, each
    distinct circuit pattern (a support with its circuit masks) walked
    once.  Nothing here depends on n; the tallies are tuples, so no caller
    can change them.
    """
    tallies: dict[tuple[int, int], tuple[Counter, Counter, Counter]] = {}
    walks: dict[tuple[int, tuple[int, ...]], int] = {}
    graphs: dict = {}
    for shape in _shapes(k):
        extent = _extent(shape)
        if extent not in tallies:
            tallies[extent] = (Counter(), Counter(), Counter())
        by_ratio, by_value, by_isotype = tallies[extent]
        for support_mask, (circuits, isotype, exponent, beta1) in _failing_supports(
            shape, graphs
        ).items():
            pattern = (support_mask, circuits)
            balanced = walks.get(pattern)
            if balanced is None:
                balanced = walks[pattern] = _balanced_signings(*pattern)
            total = 1 << support_mask.bit_count()
            by_ratio[2**beta1] += balanced
            by_ratio[0] += total - balanced
            by_value[DyadicProb.pow_half(exponent)] += balanced
            by_value[DyadicProb.zero()] += total - balanced
            by_isotype[isotype] += total
    return tuple(
        (extent, tuple(tuple(tally.items()) for tally in tallies[extent]))
        for extent in sorted(tallies)
    )


def count_failures(k: int, n: int, workers: int | None = None) -> CountReport:
    """Count failures by exhaustive enumeration, aggregated per class.

    The tallies of each extent (r, c) of the circuit-bearing k-sets
    (:func:`_extent_tallies`) are weighted by the number of index sets on
    r rows and c columns of each shape, C(n-1, r) C(n-1, c): that is exact
    because the rank relabelling is an isomorphism that keeps the slot
    order, so every set of a shape has the same circuit masks and the same
    isotype and Betti data on every support.  The tallies still come from
    deciding every signing of every failing support from circuit
    parities; they are built on the first call for a k and kept for the
    process, and every call sums them into fresh counters.

    ``workers`` is ignored: the work does not grow with n, so the whole
    count runs inline and starts no pool.

    Raises:
        ValueError: for k outside 0..6 or n < 2.
    """
    _check_range(k, n)
    by_ratio, by_value, by_isotype = Counter(), Counter(), Counter()
    for (r, c), tallies in _extent_tallies(k):
        sets = comb(n - 1, r) * comb(n - 1, c)
        if not sets:
            continue
        for counter, tally in zip((by_ratio, by_value, by_isotype), tallies):
            for key, count in tally:
                counter[key] += sets * count
    report = CountReport(
        k=k,
        n=n,
        total_events=total_event_count(k, n),
        failure_count=by_isotype.total(),
        by_ratio=by_ratio,
        by_value=by_value,
        by_isotype=by_isotype,
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


def _check_closed_form_n(n: int) -> None:
    if n < 3:
        raise ValueError("closed forms need n >= 3")


def h_counts(n: int) -> tuple[int, int, int, int]:
    """Subgraph counts behind the k = 6 closed form.

    Returns ``(h_c6, h_k23, h_c4_not_k23, h_geq)``: specifications whose
    graph contains a 6-circuit; a complete 2x3; a 4-circuit but no
    complete 2x3 (inclusion-exclusion, each 2x3 holds three 4-circuits);
    and the raw over-counting sum.

    Raises:
        ValueError: for n < 3.
    """
    _check_closed_form_n(n)
    h_c6 = 2**6 * 6 * comb(n - 1, 3) ** 2
    h_k23 = 2 * 2**6 * comb(n - 1, 3) * comb(n - 1, 2)
    h_geq = 16 * comb(n - 1, 2) ** 2 * 9 * comb((n - 1) ** 2 - 4, 2)
    h_c4_not_k23 = h_geq - 3 * h_k23
    return h_c6, h_k23, h_c4_not_k23, h_geq


@cache
def _realizations(n: int) -> dict[int, dict[IsoType, int]]:
    """{k: {type: count}}: the catalogued realization counts at one n.

    Raises:
        ValueError: for n < 3.
    """
    _check_closed_form_n(n)
    x = xi(n)
    m = n - 3
    return {
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


def realization_table(k: int, n: int) -> dict[IsoType, int]:
    """Closed-form number of k-entry specifications of each catalogued type;
    a type absent from the table has no formula at that k.

    Raises:
        ValueError: for k outside {4, 5, 6}, or for n < 3.
    """
    if k not in (4, 5, 6):
        raise ValueError("realization tables exist for k in {4, 5, 6}")
    return dict(_realizations(n)[k])


# (f1, beta1) of each catalogued type: its edge count and cycle rank.
# Transcribed from the catalogue; the tests hold it against the
# classifier on every enumerated record.
_EDGES_AND_RANK: dict[IsoType, tuple[int, int]] = {
    IsoType.T1: (4, 1), IsoType.T2: (4, 1), IsoType.T3: (5, 1), IsoType.T4: (6, 2),
    IsoType.T5: (4, 1), IsoType.T6: (5, 1), IsoType.T7: (5, 1), IsoType.T8: (6, 1),
    IsoType.T9: (6, 1), IsoType.T10: (6, 1), IsoType.T11: (6, 1), IsoType.T12: (6, 1),
    IsoType.T13: (4, 1), IsoType.T14: (5, 1), IsoType.T15: (5, 1), IsoType.T16: (6, 1),
    IsoType.T17: (6, 1), IsoType.T18: (4, 1), IsoType.T19: (5, 1), IsoType.T20: (6, 1),
}


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

    The counts by type are the realization table.  The splits follow from
    one rule: a type with f1 edges and cycle rank beta1 is balanced on
    2^(f1 - beta1) of the 2^f1 signings of each support, so 1 in 2^beta1
    of its c realizations, ``c >> beta1``, has ratio 2^beta1 and value
    2^-(k + f1 - beta1); the rest have ratio 0 and value zero.  The total
    is cross-checked against its own closed form (xi(n) at k = 4,
    48 ((n-1)^2 - 4) C(n-1,2)^2 at k = 5, the subgraph counts of
    :func:`h_counts` at k = 6), and at k = 6 the derived splits against
    the degree-8 polynomials.  When the (n-1) x (n-1) grid has fewer
    than k entries the report is all zero, as from :func:`count_failures`.

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
    by_isotype = realization_table(k, n)
    failures = sum(by_isotype.values())
    by_ratio, by_value = Counter(), Counter()
    for tag, count in by_isotype.items():
        f1, beta1 = _EDGES_AND_RANK[tag]
        balanced = count >> beta1
        by_ratio[2**beta1] += balanced
        by_value[DyadicProb.pow_half(k + f1 - beta1)] += balanced
        by_ratio[0] += count - balanced
        by_value[DyadicProb.zero()] += count - balanced
    if k == 4:
        expected = xi(n)
    elif k == 5:
        expected = 48 * ((n - 1) ** 2 - 4) * comb(n - 1, 2) ** 2
    else:
        h_c6, h_k23, h_c4, _ = h_counts(n)
        expected = h_c6 + h_k23 + h_c4
        if failures - by_isotype[IsoType.T4] - by_isotype[IsoType.T12] != h_c4:
            raise AssertionError("seventeen-type sum disagrees with the 4-circuit count")
        for coeffs, value in (
            (_POLY_F6, failures),
            (_POLY_F6_RATIO0, by_ratio[0]),
            (_POLY_F6_RATIO2, by_ratio[2]),
            (_POLY_F6_RATIO4, by_ratio[4]),
            (_POLY_H_C4_NOT_K23, h_c4),
        ):
            if _poly_int(coeffs, n) != value:
                raise AssertionError("polynomial form disagrees with construction")
    if failures != expected:
        raise AssertionError(f"k={k} realization table does not sum to the total")
    # Keep only populated classes so reports compare cleanly with
    # enumeration output; serialization re-fills the canonical key sets.
    report = CountReport(
        k, n, total_event_count(k, n), failures,
        by_ratio={r: c for r, c in by_ratio.items() if c},
        by_value={v: c for v, c in by_value.items() if c},
        by_isotype={t: c for t, c in by_isotype.items() if c},
    )
    report.validate()
    return report


def check_linear_relations(n: int) -> list[dict]:
    """Verify the five linear relations among realization counts.

    Each relation compares a multiple of one type count against a sum of
    others in the realization table.
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
    tables = _realizations(n)
    results = []
    for name, k, factor, lhs_tags, rhs_tags in relations:
        lhs = factor * sum(tables[k][t] for t in lhs_tags)
        rhs = sum(tables[k][t] for t in rhs_tags)
        results.append({
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
        })
    return results


def failure_density_bound(k: int, n: int) -> tuple[int | None, int]:
    """(exact failure count if known, union-bound over matrix circuits).

    The bound sums, over circuit lengths 2j <= k that fit on the grid,
    the ways to place a signed circuit and fill the remaining positions
    arbitrarily.  The count is the closed form for k in {4, 5, 6}, zero
    for k <= 3 and None beyond the catalogued range.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = 0
    for j in range(1, min(k, (n - 1) ** 2) // 2 + 1):
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
