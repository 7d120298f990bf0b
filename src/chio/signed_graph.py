"""Signed bipartite graphs attached to ternary matrices.

A partially specified {-1,0,+1} matrix ``B`` on a domain ``I`` inside
``[s-1] x [t-1]`` determines a labelled bipartite graph: one vertex
``(i, t)`` per row of the domain, one vertex ``(s, j)`` per column, and
one edge per nonzero entry, signed by that entry.  Vertices depend only
on the domain, edges only on the support, signs on the entries.

A signed graph is *balanced* when every circuit carries an even number of
negative edges, equivalently when it admits a vertex 2-colouring that is
constant across negative edges and proper across positive ones.  Balance,
colouring counts (0 or 2^beta0), the number of balanced signings
(2^(f0-beta0)), the Betti data, the components and a spanning forest all
come from one iterative depth-first search in vertex label order
(``_scan``, the only graph traversal of the library), so certificates
are deterministic.

Isomorphism types of the bipartite nonforests with at most six edges are
classified into a fixed catalogue ``t1 .. t20`` via per-component degree
fingerprints; anything cyclic outside the catalogue reports ``other``.

The matrix-circuit searches at the end use no traversal; the recipe and
the failure enumerator share them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Collection, Iterable, Iterator, Mapping

from .matrix_core import Index2, IndexSet, PartialTernaryMatrix

# A vertex is ("r", i) for the label (i, t) or ("c", j) for the label (s, j).
Vertex = tuple[str, int]


def _vertex_sort_key(dims: tuple[int, int]):
    s, _ = dims

    def key(v: Vertex) -> tuple[int, int]:
        kind, idx = v
        return (idx, 0) if kind == "r" else (s, idx)

    return key


@dataclass(frozen=True)
class SignedBipartiteGraph:
    """Labelled bipartite graph on row labels (i,t) and column labels (s,j).

    ``edges`` are stored as the underlying matrix positions ``(i, j)``;
    the edge for position ``(i, j)`` joins ``("r", i)`` to ``("c", j)``.
    ``sign`` may be ``None`` for unsigned use.
    """

    dims: tuple[int, int]
    row_vertices: frozenset[int]
    col_vertices: frozenset[int]
    edges: frozenset[Index2]
    sign: Mapping[Index2, int] | None = None

    def __post_init__(self) -> None:
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
        vs = [("r", i) for i in self.row_vertices] + [("c", j) for j in self.col_vertices]
        return sorted(vs, key=_vertex_sort_key(self.dims))

    def negative_edge_count(self) -> int:
        if self.sign is None:
            raise ValueError("graph carries no sign function")
        return sum(1 for v in self.sign.values() if v == -1)

    def unsigned(self) -> "SignedBipartiteGraph":
        return SignedBipartiteGraph(
            self.dims, self.row_vertices, self.col_vertices, self.edges, None
        )

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


@dataclass(frozen=True)
class Coloring:
    """A vertex 2-colouring with values in {-1,+1}."""

    assignment: Mapping[Vertex, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))

    def __getitem__(self, v: Vertex) -> int:
        return self.assignment[v]


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

    @property
    def label(self) -> str:
        return self.value


NONFOREST_TAGS = tuple(IsoType(f"t{k}") for k in range(1, 21))


def build_graph(matrix: PartialTernaryMatrix) -> SignedBipartiteGraph:
    """Graph of a partial ternary matrix: domain gives vertices, support edges."""
    support = matrix.support
    return SignedBipartiteGraph(
        dims=matrix.dims,
        row_vertices=matrix.domain.rows,
        col_vertices=matrix.domain.cols,
        edges=support,
        sign={pos: matrix[pos] for pos in support},
    )


def _scan(
    s: int,
    rows: Iterable[int],
    cols: Iterable[int],
    signed_edges: list[tuple[Index2, int]],
) -> tuple[bool, int, dict[int, int], dict[int, int], dict[int, int]]:
    """One iterative DFS in label order over an integer-encoded graph.

    The only graph traversal of the library.  Row vertex i is encoded as
    i, column vertex j as s + j, so numeric order equals the lexicographic
    order of the labels (i,t) and (s,j).  Returns ``(balanced, beta0,
    colour, component, parent)``.  The colouring gives +1 to the first
    vertex of each component and propagates greedily: across a negative
    edge colours agree, across a positive one they differ.  ``component``
    numbers the components in discovery order; ``parent`` maps each
    non-root vertex to the vertex it was discovered from, so its items
    are the edges of a spanning forest.
    """
    order = sorted(rows) + [s + j for j in sorted(cols)]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in order}
    for (i, j), sg in signed_edges:
        adj[i].append((s + j, sg))
        adj[s + j].append((i, sg))
    colour: dict[int, int] = {}
    component: dict[int, int] = {}
    parent: dict[int, int] = {}
    balanced = True
    components = 0
    for start in order:
        if start in colour:
            continue
        colour[start] = 1
        component[start] = components
        stack = [start]
        while stack:
            u = stack.pop()
            cu = colour[u]
            for v, sg in adj[u]:
                want = cu if sg == -1 else -cu
                known = colour.get(v)
                if known is None:
                    colour[v] = want
                    component[v] = components
                    parent[v] = u
                    stack.append(v)
                elif known != want:
                    balanced = False
        components += 1
    return balanced, components, colour, component, parent


def _graph_scan(graph: SignedBipartiteGraph, use_signs: bool):
    # An unsigned scan treats every edge as negative: one colour per
    # component, never unbalanced.
    sign = graph.sign if use_signs else None
    edges = sorted(graph.edges)
    signed_edges = [(e, -1 if sign is None else sign[e]) for e in edges]
    return _scan(graph.dims[0], graph.row_vertices, graph.col_vertices, signed_edges)


def _decode_colour(s: int, colour: dict[int, int]) -> dict[Vertex, int]:
    return {
        (("r", v) if v < s else ("c", v - s)): c for v, c in colour.items()
    }


def balance_summary(
    dims: tuple[int, int], entries: Mapping[Index2, int]
) -> tuple[bool, int, int]:
    """(balanced, f0, beta0) of the graph of an entries map, one DFS.

    Fast path shared by the measure evaluations; the traversal of
    :func:`balance_and_betti` without materializing graph objects.  Both
    results are independent of the edge order, so edges are not sorted.
    """
    rows = set()
    cols = set()
    signed_edges = []
    for pos, v in entries.items():
        rows.add(pos[0])
        cols.add(pos[1])
        if v:
            signed_edges.append((pos, v))
    balanced, beta0, _, _, _ = _scan(dims[0], rows, cols, signed_edges)
    return balanced, len(rows) + len(cols), beta0


def betti(graph: SignedBipartiteGraph) -> BettiData:
    """Component count by DFS; beta1 from the Euler relation."""
    return _betti_data(graph, _graph_scan(graph, use_signs=False)[1])


def _betti_data(graph: SignedBipartiteGraph, beta0: int) -> BettiData:
    f0, f1 = graph.f0, graph.f1
    return BettiData(f0=f0, f1=f1, beta0=beta0, beta1=f1 - f0 + beta0)


def balance_and_betti(
    graph: SignedBipartiteGraph,
) -> tuple[bool, Coloring | None, BettiData]:
    """Balance decision, certificate and Betti data from a single DFS."""
    if graph.sign is None:
        raise ValueError("balance requires a sign function")
    balanced, beta0, colour, _, _ = _graph_scan(graph, use_signs=True)
    certificate = Coloring(_decode_colour(graph.dims[0], colour)) if balanced else None
    return balanced, certificate, _betti_data(graph, beta0)


def is_balanced(graph: SignedBipartiteGraph) -> tuple[bool, Coloring | None]:
    """Decide balance; on success also return a greedy DFS colouring.

    The certificate is constant across negative edges and proper across
    positive ones; runtime is linear in f0 + f1.
    """
    balanced, colouring, _ = balance_and_betti(graph)
    return balanced, colouring


def count_colorings(graph: SignedBipartiteGraph) -> int:
    """Number of (-)-constant (+)-proper 2-colourings: 0 or 2^beta0."""
    balanced, _, data = balance_and_betti(graph)
    return 2**data.beta0 if balanced else 0


def spanning_forest(graph: SignedBipartiteGraph) -> list[Index2]:
    """Sorted edges of the spanning forest that the label-order DFS takes."""
    s = graph.dims[0]
    parent = _graph_scan(graph, use_signs=False)[4]
    return sorted((u, v - s) if u < s else (v, u - s) for v, u in parent.items())


def count_balanced_signings(graph: SignedBipartiteGraph) -> int:
    """Number of balanced sign functions on the edge set: 2^(f0 - beta0)."""
    data = betti(graph)
    return 2 ** (data.f0 - data.beta0)


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


def _component_shape(fc0: int, edges: list[Index2], s: int) -> str | None:
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
        # Vertices in the integer encoding of _scan: row i, column s + j.
        degree: dict[int, int] = {}
        for i, j in edges:
            degree[i] = degree.get(i, 0) + 1
            degree[s + j] = degree.get(s + j, 0) + 1
        degrees = sorted(degree.values(), reverse=True)
        if degrees == [2, 2, 2, 2, 2, 2]:
            return _COMPONENT_C6
        if degrees == [4, 2, 2, 2, 1, 1]:
            return _COMPONENT_C4_PP_SAME
        if degrees == [3, 2, 2, 2, 2, 1]:
            return _COMPONENT_C4_TAIL2
        if degrees == [3, 3, 2, 2, 1, 1]:
            h0, h1 = sorted(v for v, d in degree.items() if d == 3)
            adjacent = h0 < s < h1 and (h0, h1 - s) in edges
            return _COMPONENT_C4_PP_ADJ if adjacent else _COMPONENT_C4_PP_OPP
    return None


def isotype_and_betti(graph: SignedBipartiteGraph) -> tuple[IsoType, BettiData]:
    """Catalogue tag of the isomorphism type and the Betti data, one DFS.

    Forests always report FOREST.  Graphs containing a circuit match one
    of the twenty catalogued nonforest types when they have at most six
    edges; everything else reports OTHER_NONFOREST.
    """
    _, beta0, _, component, _ = _graph_scan(graph, use_signs=False)
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
    shapes = [_component_shape(fc0, es, graph.dims[0]) for fc0, es in zip(sizes, edges)]
    if None in shapes:
        return IsoType.OTHER_NONFOREST, data
    return _CATALOGUE.get(tuple(sorted(shapes)), IsoType.OTHER_NONFOREST), data


def classify_isotype(graph: SignedBipartiteGraph) -> IsoType:
    """Catalogue tag of the isomorphism type; see :func:`isotype_and_betti`."""
    return isotype_and_betti(graph)[0]


# --- matrix circuits --------------------------------------------------------


def is_matrix_circuit(positions: IndexSet) -> bool:
    """True iff the all-ones matrix on these positions is a single circuit.

    Raises:
        ValueError: if the position count is odd.
    """
    members = positions.members
    length = len(members)
    if length % 2 != 0:
        raise ValueError("a matrix circuit needs an even number of positions")
    if length < 4 or not _all_degrees_two(members):
        return False
    # All degrees are 2, so the graph is a disjoint union of circuits;
    # a single circuit is exactly the connected case.
    matrix = PartialTernaryMatrix(positions.dims, {pos: 1 for pos in members})
    return betti(build_graph(matrix)).beta0 == 1


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


def enumerate_circuits(length: int, s: int, t: int) -> Iterator[IndexSet]:
    """Yield every matrix circuit of the given length inside [s-1] x [t-1].

    Circuits alternate between a j-subset of rows and a j-subset of columns
    (j = length/2); each is produced exactly once.

    Raises:
        ValueError: unless ``length`` is even and at least 4.
    """
    if length % 2 != 0 or length < 4:
        raise ValueError("circuit length must be an even number >= 4")
    j = length // 2
    rows = range(1, s)
    cols = range(1, t)
    for row_set in combinations(rows, j):
        r0, rest = row_set[0], row_set[1:]
        for col_set in combinations(cols, j):
            seen: set[frozenset[Index2]] = set()
            for row_order_tail in permutations(rest):
                row_order = (r0,) + row_order_tail
                for col_order in permutations(col_set):
                    edges = set()
                    for m in range(j):
                        edges.add((row_order[m], col_order[m]))
                        edges.add((row_order[(m + 1) % j], col_order[m]))
                    key = frozenset(edges)
                    if key not in seen:
                        seen.add(key)
                        yield IndexSet((s, t), key)


def circuit_count_formula(length: int, s: int, t: int) -> int:
    """Closed-form size of the circuit family: C(s-1,j) C(t-1,j) j!(j-1)!/2."""
    if length % 2 != 0 or length < 4:
        raise ValueError("circuit length must be an even number >= 4")
    j = length // 2
    from math import comb, factorial

    return comb(s - 1, j) * comb(t - 1, j) * factorial(j) * factorial(j - 1) // 2
