"""Star-switching actions on matrices and edge signings.

The group (Z/2)^(s-1) + (Z/2)^(t-1) acts by flipping the sign of every
entry (edge) whose row or column index carries a set bit; flipping both
endpoints cancels.  A switching is an int bitmask ``g`` in
``0 .. 2^(s+t-2) - 1``: bit i-1 flips row i and bit s-2+j flips column
j, and XOR is the group operation.  The action preserves balance and
support, the kernel is {0, all-ones}, and on a fixed graph the orbit of
any balanced signing is the whole set of balanced signings.

Balanced signings are rigid: the signing of a spanning forest extends in
exactly one balanced way, which both constructs orbits without search
and shows that all balanced signings of a {0,1} pattern share its rank.
The forest comes from the library's one unsigned depth-first search
(``signed_graph._scan``); its parent map, which lists parents before
children, colours the vertices, and the colouring forces every other
sign; vertices are the integers of that scan, row i as ``i`` and column
j as ``-j``.  An orbit is computed on the bitmask of the -1 edges in
sorted edge order: switching one vertex XORs in its incidence mask.  A
pattern and all of its balanced signings are ranked together, in one
call of the census's batched Bareiss kernel (``batch_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

import numpy as np

from .census_oracle import batch_rank
from .matrix_core import Index2, PartialTernaryMatrix
from .signed_graph import SignedBipartiteGraph, _graph_scan, build_graph


def all_switches(s: int, t: int) -> range:
    """All 2^(s+t-2) group elements, as bitmasks in counter order."""
    return range(1 << (s + t - 2))


def _switch(dims: tuple[int, int], g: int, signs: Mapping[Index2, int]) -> dict[Index2, int]:
    """``signs`` with the entry at (i, j) negated when bits i-1 and s-2+j
    of ``g`` differ.

    Raises:
        ValueError: if ``g`` is not in ``0 .. 2^(s+t-2) - 1``.
    """
    s, t = dims
    if not 0 <= g < 1 << (s + t - 2):
        raise ValueError(f"switch {g} is not in 0 .. 2^{s + t - 2} - 1")
    return {
        (i, j): -v if (g >> (i - 1) ^ g >> (s - 2 + j)) & 1 else v
        for (i, j), v in signs.items()
    }


def switch_matrix(matrix: PartialTernaryMatrix, g: int) -> PartialTernaryMatrix:
    """Entrywise sign flip; the support never changes."""
    return PartialTernaryMatrix(matrix.dims, _switch(matrix.dims, g, matrix.entries))


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
    incidence: dict[int, int] = {}
    minus = 0
    for e, (i, j) in enumerate(edges):
        incidence[i] = incidence.get(i, 0) | 1 << e
        incidence[-j] = incidence.get(-j, 0) | 1 << e
        if graph.sign[(i, j)] < 0:
            minus |= 1 << e
    masks = {minus}
    for flip in incidence.values():
        masks |= {mask ^ flip for mask in masks}
    return {tuple(-1 if mask >> e & 1 else 1 for e in range(len(edges))) for mask in masks}


def _extend(
    graph: SignedBipartiteGraph, parent: dict[int, int], forest: Mapping[Index2, int]
) -> dict[Index2, int]:
    """The sign map of the balanced signing that agrees with ``forest`` on
    the edges of a ``_scan`` parent map, which lists parents first.

    Roots get colour +1, and a child its parent's colour times minus the
    sign of the edge between them; every edge then gets the sign
    ``-colour(u) * colour(v)``, which keeps the forest's own signs.
    """
    colour: dict[int, int] = {}
    for v, u in parent.items():
        edge = (u, -v) if v < 0 else (v, -u)
        colour[v] = -forest[edge] * colour.get(u, 1)
    return {(i, j): -colour.get(i, 1) * colour.get(-j, 1) for i, j in graph.edges}


def balanced_sign_maps(graph: SignedBipartiteGraph) -> Iterator[dict[Index2, int]]:
    """The sign maps of all balanced signings, via the forest-signing bijection.

    Scans the graph once, then extends every signing of that spanning
    forest (:func:`_extend`), in sorted forest-edge order; yields
    2^(f0 - beta0) maps from the graph's edges to -1 or +1.
    """
    _, _, parent = _graph_scan(graph)
    forest_edges = sorted((u, -v) if v < 0 else (v, -u) for v, u in parent.items())
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
