"""Signed bipartite graphs attached to ternary matrices.

A partially specified {-1,0,+1} matrix ``B`` on a domain ``I`` inside
``[s-1] x [t-1]`` determines a labelled bipartite graph: one vertex
``(i, t)`` per row of the domain, one vertex ``(s, j)`` per column, and
one edge per nonzero entry, signed by that entry.  Vertices depend only
on the domain, edges only on the support, signs on the entries; none of
them depends on the grid size.  Wherever the library turns vertices into
integers, row vertex i is ``i`` and column vertex j is ``-j``: labels are
positive, so the encoding is injective at every grid size.

A signed graph is *balanced* when every circuit carries an even number of
negative edges (Harary 1953).  The library has one balance test, the
parity of fundamental cycles.  ``_scan``, the only graph traversal of the
library, is an unsigned iterative depth-first search in vertex label
order; it gives the components, the Betti data and a spanning forest,
deterministically.  ``cycle_masks`` turns the forest of an edge set into
edge bitmasks of its fundamental cycles, and a signing is balanced iff
each of them holds an even number of negative edges (Zaslavsky 1982), so
one scan decides every signing of one edge set.  ``balance_summary`` is
the one reader of balance: it parses an entries map and reads the masks
of its support from ``support_cycles``, a bounded ``lru_cache`` of
``cycle_masks`` that ``p_chio_sign_patterns`` and the census share;
``matrix_balance`` keeps its answer on the matrix.

Isomorphism types of the bipartite nonforests with at most six edges are
classified into a fixed catalogue ``t1 .. t20`` via per-component degree
fingerprints; anything cyclic outside the catalogue reports ``other``.

The matrix-circuit searches at the end, ``four_circuits`` and
``is_six_circuit``, use no traversal and are the library's only circuit
search: the recipe and the failure enumerator share them.
``circuit_count_formula`` gives the size of each circuit family in
closed form.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Mapping, Sequence

from .matrix_core import Index2, PartialTernaryMatrix

# A vertex is ("r", i) for the label (i, t) or ("c", j) for the label (s, j).
Vertex = tuple[str, int]


@dataclass(frozen=True)
class SignedBipartiteGraph:
    """Labelled bipartite graph on row labels (i,t) and column labels (s,j).

    ``edges`` are stored as the underlying matrix positions ``(i, j)``;
    the edge for position ``(i, j)`` joins ``("r", i)`` to ``("c", j)``.
    ``sign`` may be ``None`` for unsigned use.  Row labels lie in
    ``[s-1]`` and column labels in ``[t-1]``.
    """

    dims: tuple[int, int]
    row_vertices: frozenset[int]
    col_vertices: frozenset[int]
    edges: frozenset[Index2]
    sign: Mapping[Index2, int] | None = None

    def __post_init__(self) -> None:
        s, t = self.dims
        if not all(0 < i < s for i in self.row_vertices) or not all(
            0 < j < t for j in self.col_vertices
        ):
            raise ValueError(f"vertex labels must lie in [{s - 1}] and [{t - 1}]")
        for i, j in self.edges:
            if i not in self.row_vertices or j not in self.col_vertices:
                raise ValueError(f"edge {(i, j)} has a missing endpoint")
        if self.sign is not None:
            sign = dict(self.sign)
            if set(sign) != set(self.edges):
                raise ValueError("sign function must cover exactly the edge set")
            if any(v not in (-1, 1) for v in sign.values()):
                raise ValueError("edge signs must be -1 or +1")
            object.__setattr__(self, "sign", sign)

    @property
    def f0(self) -> int:
        return len(self.row_vertices) + len(self.col_vertices)

    @property
    def f1(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> list[Vertex]:
        """The sorted rows, then the sorted columns."""
        return [("r", i) for i in sorted(self.row_vertices)] + [
            ("c", j) for j in sorted(self.col_vertices)
        ]

    def with_sign(self, sign: Mapping[Index2, int]) -> "SignedBipartiteGraph":
        return SignedBipartiteGraph(
            self.dims, self.row_vertices, self.col_vertices, self.edges, sign
        )

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "vertices": [[k, i] for k, i in self.vertices],
            "edges": [
                [i, j, (self.sign[(i, j)] if self.sign is not None else 0)]
                for i, j in sorted(self.edges)
            ],
        }


@dataclass(frozen=True)
class BettiData:
    """Face counts and Betti numbers of a graph; beta1-beta0 = f1-f0."""

    f0: int
    f1: int
    beta0: int
    beta1: int

    def __post_init__(self) -> None:
        if self.beta1 - self.beta0 != self.f1 - self.f0:
            raise ValueError("Euler relation beta1 - beta0 = f1 - f0 violated")


class IsoType(enum.Enum):
    """Isomorphism classification tag for bipartite graphs with <= 6 edges."""

    FOREST = "forest"
    T1 = "t1"
    T2 = "t2"
    T3 = "t3"
    T4 = "t4"
    T5 = "t5"
    T6 = "t6"
    T7 = "t7"
    T8 = "t8"
    T9 = "t9"
    T10 = "t10"
    T11 = "t11"
    T12 = "t12"
    T13 = "t13"
    T14 = "t14"
    T15 = "t15"
    T16 = "t16"
    T17 = "t17"
    T18 = "t18"
    T19 = "t19"
    T20 = "t20"
    OTHER_NONFOREST = "other"

    # Members are singletons: hash by identity in C, not by the
    # Python-level hash of the member name that Enum defines.
    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        return self.value


NONFOREST_TAGS = tuple(IsoType(f"t{k}") for k in range(1, 21))


def build_graph(matrix: PartialTernaryMatrix) -> SignedBipartiteGraph:
    """Graph of a partial ternary matrix: domain gives vertices, support edges."""
    rows, cols, sign = set(), set(), {}
    for (i, j), value in matrix.entries.items():
        rows.add(i)
        cols.add(j)
        if value:
            sign[(i, j)] = value
    return SignedBipartiteGraph(
        dims=matrix.dims,
        row_vertices=frozenset(rows),
        col_vertices=frozenset(cols),
        edges=frozenset(sign),
        sign=sign,
    )


def _scan(
    rows: Iterable[int], cols: Iterable[int], edges: Iterable[Index2]
) -> tuple[int, dict[int, int], dict[int, int]]:
    """One iterative DFS in label order over an integer-encoded graph.

    The only graph traversal of the library; it ignores signs.  Row
    vertex i is encoded as i, column vertex j as -j; the scan starts from
    the sorted rows, then the sorted columns, the order of the labels
    (i,t) and (s,j).  Returns ``(beta0, component, parent)``:
    ``component`` numbers the components in discovery order; ``parent``
    maps each non-root vertex to the vertex it was discovered from,
    parents before children, so its items are the edges of a spanning
    forest.
    """
    order = sorted(rows) + [-j for j in sorted(cols)]
    adj: dict[int, list[int]] = {v: [] for v in order}
    for i, j in edges:
        adj[i].append(-j)
        adj[-j].append(i)
    component: dict[int, int] = {}
    parent: dict[int, int] = {}
    components = 0
    for start in order:
        if start in component:
            continue
        component[start] = components
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in component:
                    component[v] = components
                    parent[v] = u
                    stack.append(v)
        components += 1
    return components, component, parent


def _graph_scan(graph: SignedBipartiteGraph):
    """:func:`_scan` of the graph's vertices and edges, in sorted order."""
    return _scan(graph.row_vertices, graph.col_vertices, sorted(graph.edges))


def balance_summary(
    dims: tuple[int, int], entries: Mapping[Index2, int]
) -> tuple[bool, int, int]:
    """(balanced, f0, beta0) of the signed graph of an entries map.

    ``dims`` is ignored: the graph depends on the labels the
    entries join, not on the grid size.  One pass over the entries gives
    the domain's rows and columns (so f0), the support in entries order
    and the bitmask of its -1 entries.  The rank f0 - beta0 of the
    support graph and its cycle masks depend on the support alone, so
    they come from :func:`support_cycles`: the 3^k events on one index
    set share 2^k supports, and each support is scanned once.  The
    signing is balanced iff every mask holds an even number of -1
    entries; each domain vertex off the support is a component of its
    own, so beta0 is f0 minus that rank.
    """
    rows = set()
    cols = set()
    support = []
    minus = 0
    for pos, v in entries.items():
        rows.add(pos[0])
        cols.add(pos[1])
        if v:
            if v < 0:
                minus |= 1 << len(support)
            support.append(pos)
    rank, masks = support_cycles(tuple(support))
    f0 = len(rows) + len(cols)
    balanced = True
    for mask in masks:
        if (mask & minus).bit_count() & 1:
            balanced = False
            break
    return balanced, f0, f0 - rank


def matrix_balance(matrix: PartialTernaryMatrix) -> tuple[bool, int, int]:
    """:func:`balance_summary` of a matrix, computed once and kept on it."""
    summary = matrix._balance
    if summary is None:
        summary = balance_summary(matrix.dims, matrix.entries)
        object.__setattr__(matrix, "_balance", summary)
    return summary


def cycle_masks(support: Sequence[Index2]) -> tuple[int, list[int]]:
    """``(f0 - beta0, masks)`` of the graph whose edges are the positions
    of ``support`` and whose vertices are their rows and columns.

    One mask per edge outside the spanning forest of :func:`_scan`, in
    ``support`` order: bit e is set when the e-th edge of ``support``
    lies on the circuit that edge closes with the forest.  There are
    beta1 masks and they form a basis of the cycle space, so a signing
    is balanced iff each mask holds an even number of its -1 edges.
    The rank f0 - beta0 is the number of forest edges.

    Raises:
        ValueError: if a row or column label is below 1, where the
            encoding of :func:`_scan` would merge a row with a column.
    """
    bit = {pos: 1 << e for e, pos in enumerate(support)}
    rows = {i for i, _ in support}
    cols = {j for _, j in support}
    if min(rows, default=1) < 1 or min(cols, default=1) < 1:
        raise ValueError("row and column labels must be positive")
    _, _, parent = _scan(rows, cols, support)
    # Forest path from each vertex to its root, as an edge mask.  Parents
    # are discovered before their children, and roots have path 0.  The
    # forest edges leave ``bit``; each edge left closes one cycle.
    path: dict[int, int] = {}
    for v, u in parent.items():
        edge = (u, -v) if v < 0 else (v, -u)
        path[v] = path.get(u, 0) ^ bit.pop(edge)
    masks = [path.get(i, 0) ^ path.get(-j, 0) ^ b for (i, j), b in bit.items()]
    return len(parent), masks


# cycle_masks memoised per support tuple, shared by every reader of
# balance; callers pass the support in entries order and leave the masks
# as they are.  The 4096 most recently used supports are kept.
support_cycles = functools.lru_cache(maxsize=1 << 12)(cycle_masks)


def betti(graph: SignedBipartiteGraph) -> BettiData:
    """Component count by DFS; beta1 from the Euler relation."""
    return _betti_data(graph, _graph_scan(graph)[0])


def _betti_data(graph: SignedBipartiteGraph, beta0: int) -> BettiData:
    f0, f1 = graph.f0, graph.f1
    return BettiData(f0=f0, f1=f1, beta0=beta0, beta1=f1 - f0 + beta0)


# --- isomorphism-type classification ---------------------------------------

# Recognized connected component shapes, keyed by what distinguishes them:
# f-vector, degree multiset, and (for two pendant edges on a 4-circuit)
# whether the two degree-3 vertices are adjacent.
_COMPONENT_ISO = "iso"
_COMPONENT_EDGE = "edge"
_COMPONENT_PATH2 = "path2"
_COMPONENT_C4 = "c4"
_COMPONENT_C4_PENDANT = "c4_pendant"
_COMPONENT_K23 = "k23"
_COMPONENT_C6 = "c6"
_COMPONENT_C4_TAIL2 = "c4_tail2"
_COMPONENT_C4_PP_SAME = "c4_pp_same"
_COMPONENT_C4_PP_ADJ = "c4_pp_adjacent"
_COMPONENT_C4_PP_OPP = "c4_pp_opposite"

# Catalogue of bipartite nonforests with at most six edges, as multisets of
# component shapes, in f-vector order.
_CATALOGUE: dict[tuple[str, ...], IsoType] = {
    (_COMPONENT_C4,): IsoType.T1,
    (_COMPONENT_C4, _COMPONENT_ISO): IsoType.T2,
    (_COMPONENT_C4_PENDANT,): IsoType.T3,
    (_COMPONENT_K23,): IsoType.T4,
    (_COMPONENT_C4, _COMPONENT_ISO, _COMPONENT_ISO): IsoType.T5,
    (_COMPONENT_C4_PENDANT, _COMPONENT_ISO): IsoType.T6,
    (_COMPONENT_C4, _COMPONENT_EDGE): IsoType.T7,
    (_COMPONENT_C4_PP_OPP,): IsoType.T8,
    (_COMPONENT_C4_PP_ADJ,): IsoType.T9,
    (_COMPONENT_C4_TAIL2,): IsoType.T10,
    (_COMPONENT_C4_PP_SAME,): IsoType.T11,
    (_COMPONENT_C6,): IsoType.T12,
    (_COMPONENT_C4,) + (_COMPONENT_ISO,) * 3: IsoType.T13,
    (_COMPONENT_C4_PENDANT, _COMPONENT_ISO, _COMPONENT_ISO): IsoType.T14,
    (_COMPONENT_C4, _COMPONENT_EDGE, _COMPONENT_ISO): IsoType.T15,
    (_COMPONENT_C4_PENDANT, _COMPONENT_EDGE): IsoType.T16,
    (_COMPONENT_C4, _COMPONENT_PATH2): IsoType.T17,
    (_COMPONENT_C4,) + (_COMPONENT_ISO,) * 4: IsoType.T18,
    (_COMPONENT_C4, _COMPONENT_EDGE, _COMPONENT_ISO, _COMPONENT_ISO): IsoType.T19,
    (_COMPONENT_C4, _COMPONENT_EDGE, _COMPONENT_EDGE): IsoType.T20,
}


def _component_shape(fc0: int, edges: list[Index2]) -> str | None:
    """Fingerprint one connected component, or None if uncatalogued."""
    fc1 = len(edges)
    if fc1 == 0:
        return _COMPONENT_ISO
    if (fc0, fc1) == (2, 1):
        return _COMPONENT_EDGE
    if (fc0, fc1) == (3, 2):
        return _COMPONENT_PATH2
    if (fc0, fc1) == (4, 4):
        return _COMPONENT_C4
    if (fc0, fc1) == (5, 5):
        return _COMPONENT_C4_PENDANT
    if (fc0, fc1) == (5, 6):
        return _COMPONENT_K23
    if (fc0, fc1) == (6, 6):
        # Vertices in the integer encoding of _scan: row i, column -j.
        degree: dict[int, int] = {}
        for i, j in edges:
            degree[i] = degree.get(i, 0) + 1
            degree[-j] = degree.get(-j, 0) + 1
        degrees = sorted(degree.values(), reverse=True)
        if degrees == [2, 2, 2, 2, 2, 2]:
            return _COMPONENT_C6
        if degrees == [4, 2, 2, 2, 1, 1]:
            return _COMPONENT_C4_PP_SAME
        if degrees == [3, 2, 2, 2, 2, 1]:
            return _COMPONENT_C4_TAIL2
        if degrees == [3, 3, 2, 2, 1, 1]:
            h0, h1 = sorted(v for v, d in degree.items() if d == 3)
            adjacent = h0 < 0 < h1 and (h1, -h0) in edges
            return _COMPONENT_C4_PP_ADJ if adjacent else _COMPONENT_C4_PP_OPP
    return None


def isotype_and_betti(graph: SignedBipartiteGraph) -> tuple[IsoType, BettiData]:
    """Catalogue tag of the isomorphism type and the Betti data, one DFS.

    Forests always report FOREST.  Graphs containing a circuit match one
    of the twenty catalogued nonforest types when they have at most six
    edges; everything else reports OTHER_NONFOREST.
    """
    beta0, component, _ = _graph_scan(graph)
    data = _betti_data(graph, beta0)
    if data.beta1 == 0:
        return IsoType.FOREST, data
    if data.f1 > 6:
        return IsoType.OTHER_NONFOREST, data
    sizes = [0] * beta0
    for c in component.values():
        sizes[c] += 1
    edges: list[list[Index2]] = [[] for _ in sizes]
    for i, j in graph.edges:
        edges[component[i]].append((i, j))
    shapes = [_component_shape(fc0, es) for fc0, es in zip(sizes, edges)]
    if None in shapes:
        return IsoType.OTHER_NONFOREST, data
    return _CATALOGUE.get(tuple(sorted(shapes)), IsoType.OTHER_NONFOREST), data


def classify_isotype(graph: SignedBipartiteGraph) -> IsoType:
    """Catalogue tag of the isomorphism type; see :func:`isotype_and_betti`."""
    return isotype_and_betti(graph)[0]


# --- matrix circuits --------------------------------------------------------


def _all_degrees_two(positions: Iterable[Index2]) -> bool:
    """Every row and every column of the positions holds exactly two."""
    row_degree: dict[int, int] = {}
    col_degree: dict[int, int] = {}
    for i, j in positions:
        row_degree[i] = row_degree.get(i, 0) + 1
        col_degree[j] = col_degree.get(j, 0) + 1
    return all(d == 2 for d in row_degree.values()) and all(
        d == 2 for d in col_degree.values()
    )


def is_six_circuit(positions: Collection[Index2]) -> bool:
    """Six positions forming a single matrix 6-circuit, by degrees alone.

    With six edges, all degrees two forces one 6-circuit: the only other
    even split would need a 2-edge circuit, impossible in a simple graph.
    No traversal is involved, so the recipe can use it.
    """
    return len(positions) == 6 and _all_degrees_two(positions)


def four_circuits(positions: Iterable[Index2]) -> list[frozenset[Index2]]:
    """All 2x2 rectangles (matrix 4-circuits) inside a set of positions.

    Ordered by row pair, then by column pair.
    """
    by_row: dict[int, set[int]] = {}
    for i, j in positions:
        by_row.setdefault(i, set()).add(j)
    return [
        frozenset({(r1, c1), (r1, c2), (r2, c1), (r2, c2)})
        for r1, r2 in combinations(sorted(by_row), 2)
        for c1, c2 in combinations(sorted(by_row[r1] & by_row[r2]), 2)
    ]


def circuit_count_formula(length: int, s: int, t: int) -> int:
    """Closed-form size of the circuit family: C(s-1,j) C(t-1,j) j!(j-1)!/2."""
    if length % 2 != 0 or length < 4:
        raise ValueError("circuit length must be an even number >= 4")
    j = length // 2
    from math import comb, factorial

    return comb(s - 1, j) * comb(t - 1, j) * factorial(j) * factorial(j - 1) // 2
