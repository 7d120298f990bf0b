"""Star-switching actions on matrices and edge signings.

The group (Z/2)^(s-1) + (Z/2)^(t-1) acts by flipping the sign of every
entry (edge) whose row or column index carries a set bit; flipping both
endpoints cancels.  The action preserves balance and support, the kernel
is {identity, all-ones}, and on a fixed graph the orbit of any balanced
signing is the whole set of balanced signings.

Balanced signings are rigid: the signing of a spanning forest extends in
exactly one balanced way, which both constructs orbits without search
and shows that all balanced signings of a {0,1} pattern share its rank.
The forest comes from the signed-graph depth-first search, and one scan
of the signed forest gives the colouring that forces every other sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from .matrix_core import Index2, IntMatrix, PartialTernaryMatrix, rank_int
from .signed_graph import (
    SignedBipartiteGraph,
    balance_and_betti,
    betti,
    build_graph,
    spanning_forest,
)


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

    Every group element is applied (the kernel comes along for free);
    the orbit of a balanced signing is the full set of balanced signings.
    """
    s, t = graph.dims
    return {signing_tuple(switch_signing(graph, g)) for g in all_switches(s, t)}


def balanced_extension(
    graph: SignedBipartiteGraph, forest_signing: Mapping[Index2, int]
) -> SignedBipartiteGraph:
    """The unique balanced signing extending a spanning-forest signing.

    One scan of the signed forest colours every vertex, constant across
    negative forest edges and proper across positive ones; every edge then
    gets the sign ``-colour(u) * colour(v)``, which keeps the forest's own
    signs.  The forest is acyclic iff its beta1 is zero, and spans iff its
    beta0 equals that of the graph.

    Raises:
        ValueError: if the given edges are not a spanning forest of the
            graph (cycle, missing coverage, or unknown edge), or a sign
            is not -1 or +1.
    """
    forest = dict(forest_signing)
    if not set(forest) <= set(graph.edges):
        raise ValueError("forest edges must be edges of the graph")
    tree = SignedBipartiteGraph(
        graph.dims, graph.row_vertices, graph.col_vertices, frozenset(forest), forest
    )
    _, colouring, data = balance_and_betti(tree)
    if data.beta1:
        raise ValueError("not a spanning forest: contains a cycle")
    if data.beta0 != betti(graph).beta0:
        raise ValueError("not a spanning forest: component split")
    return graph.with_sign(
        {(i, j): -colouring[("r", i)] * colouring[("c", j)] for i, j in graph.edges}
    )


def balanced_signings(graph: SignedBipartiteGraph) -> Iterator[SignedBipartiteGraph]:
    """All balanced signings, via the forest-signing bijection.

    Takes the spanning forest of the label-order DFS and runs every forest
    signing through :func:`balanced_extension`; yields 2^(f0 - beta0)
    graphs.
    """
    forest_edges = spanning_forest(graph)
    for signs in product((-1, 1), repeat=len(forest_edges)):
        yield balanced_extension(graph, dict(zip(forest_edges, signs)))


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

    Raises:
        ValueError: if the pattern has entries outside {0,1}.
    """
    if any(v not in (0, 1) for v in pattern.entries.values()):
        raise ValueError("pattern entries must be 0 or 1")
    base_rank = rank_int(IntMatrix.from_ternary(pattern))
    graph = build_graph(pattern)
    checked = 0
    mismatches = 0
    for signed in balanced_signings(graph):
        balanced, _, _ = balance_and_betti(signed)
        assert balanced
        entries = dict(pattern.entries)
        for edge, sign in signed.sign.items():
            entries[edge] = sign
        rank = rank_int(IntMatrix.from_ternary(PartialTernaryMatrix(pattern.dims, entries)))
        checked += 1
        if rank != base_rank:
            mismatches += 1
    return RankInvarianceReport(
        pattern_rank=base_rank, signings_checked=checked, mismatches=mismatches
    )
