"""Star-switching actions on matrices and edge signings.

The group (Z/2)^(s-1) + (Z/2)^(t-1) acts by flipping the sign of every
entry (edge) whose row or column index carries a set bit; flipping both
endpoints cancels.  The action preserves balance and support, the kernel
is {identity, all-ones}, and on a fixed graph the orbit of any balanced
signing is the whole set of balanced signings.

Balanced signings are rigid: the signing of a spanning forest extends in
exactly one balanced way, which both constructs orbits without search
and shows that all balanced signings of a {0,1} pattern share its rank.
The forest comes from the library's one unsigned depth-first search
(``signed_graph._scan``); its parent map, which lists parents before
children, colours the vertices, and the colouring forces every other
sign.  An orbit is computed on the bitmask of the -1 edges in sorted
edge order: switching one vertex XORs in its incidence mask.  A pattern
and all of its balanced signings are ranked together, in one call of the
census's batched Bareiss kernel (``batch_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

import numpy as np

from .census_oracle import batch_rank
from .matrix_core import Index2, PartialTernaryMatrix
from .signed_graph import SignedBipartiteGraph, _graph_scan, build_graph


@dataclass(frozen=True)
class SwitchElement:
    """One switching: a bit per row index and per column index."""

    row_bits: tuple[int, ...]
    col_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.row_bits + self.col_bits):
            raise ValueError("switch bits must be 0 or 1")

    @classmethod
    def identity(cls, s: int, t: int) -> "SwitchElement":
        return cls((0,) * (s - 1), (0,) * (t - 1))

    def __add__(self, other: "SwitchElement") -> "SwitchElement":
        if len(self.row_bits) != len(other.row_bits) or len(self.col_bits) != len(
            other.col_bits
        ):
            raise ValueError("mismatched switch shapes")
        return SwitchElement(
            tuple(a ^ b for a, b in zip(self.row_bits, other.row_bits)),
            tuple(a ^ b for a, b in zip(self.col_bits, other.col_bits)),
        )

    def factor(self, pos: Index2) -> int:
        """Sign multiplier for the entry at a position (1-based)."""
        i, j = pos
        return (-1) ** (self.row_bits[i - 1] ^ self.col_bits[j - 1])


def all_switches(s: int, t: int) -> Iterator[SwitchElement]:
    """All 2^(s+t-2) group elements, in binary counter order."""
    for bits in product((0, 1), repeat=(s - 1) + (t - 1)):
        yield SwitchElement(bits[: s - 1], bits[s - 1 :])


def switch_matrix(matrix: PartialTernaryMatrix, g: SwitchElement) -> PartialTernaryMatrix:
    """Entrywise sign flip; the support never changes."""
    s, t = matrix.dims
    if len(g.row_bits) != s - 1 or len(g.col_bits) != t - 1:
        raise ValueError("switch shape does not match matrix dims")
    return PartialTernaryMatrix(
        matrix.dims, {pos: g.factor(pos) * v for pos, v in matrix.entries.items()}
    )


def switch_signing(graph: SignedBipartiteGraph, g: SwitchElement) -> SignedBipartiteGraph:
    """Apply a switching to the sign function of a graph."""
    if graph.sign is None:
        raise ValueError("graph carries no sign function")
    s, t = graph.dims
    if len(g.row_bits) != s - 1 or len(g.col_bits) != t - 1:
        raise ValueError("switch shape does not match graph dims")
    return graph.with_sign({e: g.factor(e) * v for e, v in graph.sign.items()})


def signing_tuple(graph: SignedBipartiteGraph) -> tuple[int, ...]:
    """Signs in sorted edge order; canonical key for orbit sets."""
    if graph.sign is None:
        raise ValueError("graph carries no sign function")
    return tuple(graph.sign[e] for e in sorted(graph.edges))


def orbit(graph: SignedBipartiteGraph) -> set[tuple[int, ...]]:
    """Orbit of the graph's signing under all switchings.

    A signing is held as the bitmask of its -1 edges in sorted edge
    order.  Switching a vertex flips its incident edges, an XOR with its
    incidence mask, and vertices without an edge flip nothing; so the
    orbit is the signing's mask plus the XOR span of the incidence masks.
    The orbit of a balanced signing is the full set of balanced signings.
    """
    if graph.sign is None:
        raise ValueError("graph carries no sign function")
    edges = sorted(graph.edges)
    incidence: dict[tuple[str, int], int] = {}
    minus = 0
    for e, (i, j) in enumerate(edges):
        incidence[("r", i)] = incidence.get(("r", i), 0) | 1 << e
        incidence[("c", j)] = incidence.get(("c", j), 0) | 1 << e
        if graph.sign[(i, j)] < 0:
            minus |= 1 << e
    masks = {minus}
    for flip in incidence.values():
        masks |= {mask ^ flip for mask in masks}
    return {tuple(-1 if mask >> e & 1 else 1 for e in range(len(edges))) for mask in masks}


def balanced_extension(
    graph: SignedBipartiteGraph, forest_signing: Mapping[Index2, int]
) -> SignedBipartiteGraph:
    """The unique balanced signing extending a spanning-forest signing.

    One unsigned scan of the given edges on the graph's vertices checks
    them: they are acyclic iff there are f0 - beta0 of them, and they
    span iff every graph edge joins two vertices of one of their
    components.  The scan's parent map then colours the vertices.

    Raises:
        ValueError: if the given edges are not a spanning forest of the
            graph (cycle, missing coverage, or unknown edge), or a sign
            is not -1 or +1 (refused by the signed graph built last).
    """
    forest = dict(forest_signing)
    if not forest.keys() <= graph.edges:
        raise ValueError("forest edges must be edges of the graph")
    s = graph.dims[0]
    beta0, component, parent = _graph_scan(graph, forest)
    if len(forest) != graph.f0 - beta0:
        raise ValueError("not a spanning forest: contains a cycle")
    if any(component[i] != component[s + j] for i, j in graph.edges):
        raise ValueError("not a spanning forest: component split")
    return graph.with_sign(_extend(graph, parent, forest))


def _extend(
    graph: SignedBipartiteGraph, parent: dict[int, int], forest: Mapping[Index2, int]
) -> dict[Index2, int]:
    """The sign map of the balanced signing that agrees with ``forest`` on
    the edges of a ``_scan`` parent map, which lists parents first.

    Roots get colour +1, and a child its parent's colour times minus the
    sign of the edge between them; every edge then gets the sign
    ``-colour(u) * colour(v)``, which keeps the forest's own signs.
    """
    s = graph.dims[0]
    colour: dict[int, int] = {}
    for v, u in parent.items():
        edge = (u, v - s) if u < s else (v, u - s)
        colour[v] = -forest[edge] * colour.get(u, 1)
    return {(i, j): -colour.get(i, 1) * colour.get(s + j, 1) for i, j in graph.edges}


def balanced_sign_maps(graph: SignedBipartiteGraph) -> Iterator[dict[Index2, int]]:
    """The sign maps of all balanced signings, via the forest-signing bijection.

    Scans the graph once, then extends every signing of that spanning
    forest (:func:`_extend`), in sorted forest-edge order; yields
    2^(f0 - beta0) maps from the graph's edges to -1 or +1.
    """
    s = graph.dims[0]
    _, _, parent = _graph_scan(graph)
    forest_edges = sorted((u, v - s) if u < s else (v, u - s) for v, u in parent.items())
    for signs in product((-1, 1), repeat=len(forest_edges)):
        yield _extend(graph, parent, dict(zip(forest_edges, signs)))


def balanced_signings(graph: SignedBipartiteGraph) -> Iterator[SignedBipartiteGraph]:
    """All balanced signings as graphs, in the order of :func:`balanced_sign_maps`."""
    return map(graph.with_sign, balanced_sign_maps(graph))


@dataclass
class RankInvarianceReport:
    """Outcome of checking that balanced signings preserve pattern rank."""

    pattern_rank: int
    signings_checked: int
    mismatches: int

    @property
    def all_equal(self) -> bool:
        return self.mismatches == 0

    def to_json_dict(self) -> dict:
        return {
            "pattern_rank": self.pattern_rank,
            "signings_checked": self.signings_checked,
            "mismatches": self.mismatches,
            "all_equal": self.all_equal,
        }


def rank_invariance_check(pattern: PartialTernaryMatrix) -> RankInvarianceReport:
    """Verify that every balanced signing of a {0,1} pattern keeps its rank.

    The pattern and its signings, dense on ``[s-1] x [t-1]`` with missing
    entries 0, are ranked in one :func:`batch_rank` call.

    Raises:
        ValueError: if the pattern has entries outside {0,1}.
    """
    if any(v not in (0, 1) for v in pattern.entries.values()):
        raise ValueError("pattern entries must be 0 or 1")
    s, t = pattern.dims
    cells = [(i, j) for i in range(1, s) for j in range(1, t)]
    batch = [[pattern.entries.get(p, 0) for p in cells]]
    for sign in balanced_sign_maps(build_graph(pattern)):
        entries = {**pattern.entries, **sign}
        batch.append([entries.get(p, 0) for p in cells])
    ranks = batch_rank(np.array(batch, dtype=np.int8).reshape(len(batch), s - 1, t - 1))
    return RankInvarianceReport(
        pattern_rank=int(ranks[0]),
        signings_checked=len(batch) - 1,
        mismatches=int(np.count_nonzero(ranks[1:] != ranks[0])),
    )
