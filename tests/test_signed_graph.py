"""Graph construction, balance, colouring counts, isotypes, matrix circuits."""

import copy
import pickle
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chio.measures import p_chio_sign_patterns
from chio.matrix_core import IndexSet, PartialTernaryMatrix
from chio.signed_graph import (
    IsoType,
    SignedBipartiteGraph,
    balance_summary,
    betti,
    build_graph,
    circuit_count_formula,
    classify_isotype,
    cycle_masks,
    matrix_balance,
    support_cycles,
)

from oracles import (
    brute_count_balanced_signings,
    brute_count_colorings,
    brute_is_balanced,
    canonical_form,
    edge_subsets_forming_circuits,
    enumerate_circuits,
    is_matrix_circuit,
)

C4 = {(1, 1), (1, 2), (2, 1), (2, 2)}


def is_balanced(graph):
    return balance_summary(graph.dims, graph.sign)[0]


def count_colorings(graph):
    """(-)-constant (+)-proper 2-colourings by the formula: 0 or 2^beta0."""
    return 2 ** betti(graph).beta0 if is_balanced(graph) else 0


def count_balanced_signings(graph):
    """Balanced signings of the edge set by the formula: 2^(f0 - beta0)."""
    data = betti(graph)
    return 2 ** (data.f0 - data.beta0)


def graph_of(rows, cols, sign, dims=(5, 5)):
    return SignedBipartiteGraph(
        dims=dims,
        row_vertices=frozenset(rows),
        col_vertices=frozenset(cols),
        edges=frozenset(sign),
        sign=dict(sign) if sign else {},
    )


def unsigned(rows, cols, edges, dims=(5, 5)):
    return SignedBipartiteGraph(
        dims=dims,
        row_vertices=frozenset(rows),
        col_vertices=frozenset(cols),
        edges=frozenset(edges),
    )


class TestBuildGraph:
    def test_empty_matrix_gives_empty_graph(self):
        graph = build_graph(PartialTernaryMatrix((4, 4), {}))
        assert graph.f0 == 0 and graph.f1 == 0 and graph.sign == {}

    def test_all_minus_square_is_four_circuit(self):
        matrix = PartialTernaryMatrix((4, 4), {p: -1 for p in C4})
        graph = build_graph(matrix)
        assert graph.f0 == 4 and graph.f1 == 4
        assert all(v == -1 for v in graph.sign.values())
        data = betti(graph)
        assert data.beta0 == 1 and data.beta1 == 1

    def test_same_labelled_graph_from_different_domains(self):
        # Two specifications with different domain sizes but the same graph:
        # a four-circuit of ones plus two isolated vertices.
        b1 = PartialTernaryMatrix((4, 4), {**{p: 1 for p in C4}, (3, 3): 0})
        b2 = PartialTernaryMatrix((4, 4), {**{p: 1 for p in C4}, (2, 3): 0, (3, 2): 0})
        g1, g2 = build_graph(b1), build_graph(b2)
        assert b1.dom == 5 and b2.dom == 6
        assert (g1.row_vertices, g1.col_vertices, g1.edges) == (
            g2.row_vertices,
            g2.col_vertices,
            g2.edges,
        )
        assert g1.sign == g2.sign

    def test_vertices_from_domain_edges_from_support(self):
        matrix = PartialTernaryMatrix((5, 5), {(1, 1): 1, (2, 3): 0})
        graph = build_graph(matrix)
        assert graph.row_vertices == {1, 2} and graph.col_vertices == {1, 3}
        assert graph.edges == {(1, 1)}


class TestBalance:
    def test_all_minus_circuit_balanced(self):
        graph = graph_of({1, 2}, {1, 2}, {p: -1 for p in C4})
        assert is_balanced(graph)

    def test_one_plus_circuit_unbalanced(self):
        sign = {p: -1 for p in C4}
        sign[(1, 1)] = 1
        assert not is_balanced(graph_of({1, 2}, {1, 2}, sign))

    def test_forests_are_balanced(self):
        sign = {(1, 1): -1, (1, 2): 1, (2, 3): -1}
        assert is_balanced(graph_of({1, 2}, {1, 2, 3}, sign))

    def test_balance_matches_definition_on_small_graphs(self):
        cells = [(i, j) for i in range(1, 3) for j in range(1, 4)]
        for edge_count in range(len(cells) + 1):
            for edges in combinations(cells, edge_count):
                for signs in product((-1, 1), repeat=edge_count):
                    sign = dict(zip(edges, signs))
                    graph = graph_of({1, 2}, {1, 2, 3}, sign)
                    assert is_balanced(graph) == brute_is_balanced(sign)


class TestCounts:
    def test_colorings_balanced_circuit(self):
        assert count_colorings(graph_of({1, 2}, {1, 2}, {p: -1 for p in C4})) == 2

    def test_colorings_unbalanced_circuit(self):
        sign = {p: -1 for p in C4}
        sign[(2, 2)] = 1
        assert count_colorings(graph_of({1, 2}, {1, 2}, sign)) == 0

    def test_colorings_two_disjoint_edges(self):
        assert count_colorings(graph_of({1, 2}, {1, 2}, {(1, 1): -1, (2, 2): 1})) == 4

    def test_balanced_signings_examples(self):
        assert count_balanced_signings(unsigned({1, 2}, {1, 2}, C4)) == 8
        assert count_balanced_signings(unsigned({1}, {1}, {(1, 1)})) == 2
        k23 = {(i, j) for i in (1, 2) for j in (1, 2, 3)}
        assert count_balanced_signings(unsigned({1, 2}, {1, 2, 3}, k23)) == 16

    def test_counts_match_brute_force_on_small_graphs(self):
        cells = [(i, j) for i in range(1, 3) for j in range(1, 4)]
        for edge_count in range(len(cells) + 1):
            for edges in combinations(cells, edge_count):
                rows = {i for i, _ in edges} or {1}
                cols = {j for _, j in edges} or {1}
                graph = unsigned(rows, cols, edges)
                assert count_balanced_signings(graph) == brute_count_balanced_signings(
                    list(edges)
                )
                for signs in product((-1, 1), repeat=edge_count):
                    sign = dict(zip(edges, signs))
                    signed = graph.with_sign(sign)
                    expected = brute_count_colorings(rows, cols, sign)
                    got = count_colorings(signed)
                    assert got == expected
                    assert got in (0, 2 ** betti(graph).beta0)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_counts_match_brute_force_up_to_eight_vertices(self, data):
        # Random graphs across the full catalogue range (<= 8 vertices,
        # <= 6 edges), including isolated vertices on both sides.
        a = data.draw(st.integers(1, 4))
        b = data.draw(st.integers(1, 4))
        cells = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
        edges = tuple(
            sorted(data.draw(st.sets(st.sampled_from(cells), max_size=6)))
        )
        rows = set(range(1, a + 1))
        cols = set(range(1, b + 1))
        graph = unsigned(rows, cols, edges)
        assert count_balanced_signings(graph) == brute_count_balanced_signings(
            list(edges)
        )
        signs = data.draw(
            st.tuples(*(st.sampled_from((-1, 1)) for _ in edges))
        )
        sign = dict(zip(edges, signs))
        signed = graph.with_sign(sign)
        assert count_colorings(signed) == brute_count_colorings(rows, cols, sign)
        assert is_balanced(signed) == brute_is_balanced(sign)


class TestBetti:
    def test_empty_graph(self):
        data = betti(unsigned(set(), set(), set()))
        assert (data.f0, data.f1, data.beta0, data.beta1) == (0, 0, 0, 0)

    def test_four_circuit(self):
        data = betti(unsigned({1, 2}, {1, 2}, C4))
        assert (data.f0, data.f1, data.beta0, data.beta1) == (4, 4, 1, 1)

    def test_k23(self):
        k23 = {(i, j) for i in (1, 2) for j in (1, 2, 3)}
        data = betti(unsigned({1, 2}, {1, 2, 3}, k23))
        assert (data.f0, data.f1, data.beta0, data.beta1) == (5, 6, 1, 2)


def catalogue_references() -> dict[IsoType, SignedBipartiteGraph]:
    """One realization of each nonforest type, on a (5, 5) grid."""
    k23 = {(i, j) for i in (1, 2) for j in (1, 2, 3)}
    c6 = {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1)}
    spec = {
        IsoType.T1: ({1, 2}, {1, 2}, C4),
        IsoType.T2: ({1, 2, 3}, {1, 2}, C4),
        IsoType.T3: ({1, 2, 3}, {1, 2}, C4 | {(3, 1)}),
        IsoType.T4: ({1, 2}, {1, 2, 3}, k23),
        IsoType.T5: ({1, 2, 3}, {1, 2, 3}, C4),
        IsoType.T6: ({1, 2, 3}, {1, 2, 3}, C4 | {(3, 1)}),
        IsoType.T7: ({1, 2, 3}, {1, 2, 3}, C4 | {(3, 3)}),
        IsoType.T8: ({1, 2}, {1, 2, 3, 4}, C4 | {(1, 3), (2, 4)}),
        IsoType.T9: ({1, 2, 3}, {1, 2, 3}, C4 | {(1, 3), (3, 1)}),
        IsoType.T10: ({1, 2, 3}, {1, 2, 3}, C4 | {(1, 3), (3, 3)}),
        IsoType.T11: ({1, 2}, {1, 2, 3, 4}, C4 | {(1, 3), (1, 4)}),
        IsoType.T12: ({1, 2, 3}, {1, 2, 3}, c6),
        IsoType.T13: ({1, 2, 3, 4}, {1, 2, 3}, C4),
        IsoType.T14: ({1, 2, 3, 4}, {1, 2, 3}, C4 | {(3, 1)}),
        IsoType.T15: ({1, 2, 3, 4}, {1, 2, 3}, C4 | {(3, 3)}),
        IsoType.T16: ({1, 2, 3, 4}, {1, 2, 3}, C4 | {(3, 1), (4, 3)}),
        IsoType.T17: ({1, 2, 3, 4}, {1, 2, 3}, C4 | {(3, 3), (4, 3)}),
        IsoType.T18: ({1, 2, 3, 4}, {1, 2, 3, 4}, C4),
        IsoType.T19: ({1, 2, 3, 4}, {1, 2, 3, 4}, C4 | {(3, 3)}),
        IsoType.T20: ({1, 2, 3, 4}, {1, 2, 3, 4}, C4 | {(3, 3), (4, 4)}),
    }
    return {tag: unsigned(*args) for tag, args in spec.items()}


class TestIsotype:
    def test_catalogue_references_classify_to_their_tags(self):
        for tag, graph in catalogue_references().items():
            assert classify_isotype(graph) is tag

    def test_forest_and_other(self):
        assert classify_isotype(unsigned({1, 2}, {1, 2}, {(1, 1), (2, 2)})) is IsoType.FOREST
        # A 6-circuit next to an isolated vertex cannot arise from at most
        # six specified entries; it reports the fallback tag.
        c6 = {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1)}
        other = unsigned({1, 2, 3, 4}, {1, 2, 3}, c6)
        assert classify_isotype(other) is IsoType.OTHER_NONFOREST

    def test_agrees_with_canonical_form_on_all_small_graphs(self):
        # Every bipartite labelled graph with at most 8 vertices and at
        # most 6 edges, compared against min-over-permutations canonical forms.
        references = {
            canonical_form(set(g.row_vertices), set(g.col_vertices), set(g.edges)): tag
            for tag, g in catalogue_references().items()
        }
        checked = 0
        for a in range(1, 5):
            for b in range(a, 5):
                cells = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
                rows = set(range(1, a + 1))
                cols = set(range(1, b + 1))
                for e in range(0, 7):
                    for edges in combinations(cells, e):
                        graph = unsigned(rows, cols, set(edges))
                        got = classify_isotype(graph)
                        key = canonical_form(rows, cols, set(edges))
                        if betti(graph).beta1 == 0:
                            expected = IsoType.FOREST
                        else:
                            expected = references.get(key, IsoType.OTHER_NONFOREST)
                        assert got is expected, (rows, cols, edges)
                        checked += 1
        assert checked > 15000

    def test_members_hash_and_copy_by_identity(self):
        assert IsoType.__hash__ is object.__hash__
        assert len({IsoType(tag.value): tag for tag in IsoType}) == len(IsoType)
        for tag in (IsoType.T9, IsoType.FOREST):
            assert hash(tag) == object.__hash__(tag)
            assert pickle.loads(pickle.dumps(tag)) is tag
            assert copy.copy(tag) is tag and copy.deepcopy(tag) is tag

    def test_wedge_preserves_balance_iff_both_parts_do(self):
        # Glue a signed 4-circuit and a signed edge at one row vertex and
        # check balance multiplies.
        for circuit_signs in product((-1, 1), repeat=4):
            for edge_sign in (-1, 1):
                sign = dict(zip(sorted(C4), circuit_signs))
                sign[(1, 3)] = edge_sign  # pendant at row 1: a one-point wedge
                glued = graph_of({1, 2}, {1, 2, 3}, sign)
                part = graph_of({1, 2}, {1, 2}, dict(zip(sorted(C4), circuit_signs)))
                assert is_balanced(glued) == is_balanced(part)


class TestMatrixCircuits:
    def test_rectangle_is_circuit(self):
        assert is_matrix_circuit(IndexSet((4, 4), frozenset(C4)))

    def test_two_disjoint_cells_are_not(self):
        assert not is_matrix_circuit(IndexSet((4, 4), frozenset({(1, 1), (2, 2)})))

    def test_odd_cardinality_rejected(self):
        with pytest.raises(ValueError):
            is_matrix_circuit(IndexSet((4, 4), frozenset({(1, 1), (1, 2), (2, 1)})))

    def test_circuit_family_size_at_four_four(self):
        circuits = list(enumerate_circuits(4, 4, 4))
        assert len(circuits) == 9 == circuit_count_formula(4, 4, 4)
        assert len(set(circuits)) == 9

    def test_enumeration_matches_brute_filter(self):
        for s, t, length in ((4, 4, 4), (5, 4, 4), (4, 5, 6), (5, 5, 6)):
            cells = [(i, j) for i in range(1, s) for j in range(1, t)]
            brute = {
                frozenset(sub)
                for sub in combinations(cells, length)
                if is_matrix_circuit(IndexSet((s, t), frozenset(sub)))
            }
            enumerated = set(enumerate_circuits(length, s, t))
            assert enumerated == brute

    def test_count_formula_across_grid_sizes(self):
        for s in range(2, 8):
            for t in range(2, 8):
                for j in (2, 3):
                    count = sum(1 for _ in enumerate_circuits(2 * j, s, t))
                    assert count == circuit_count_formula(2 * j, s, t)


class TestCycleMasks:
    @staticmethod
    def check(dims, support):
        rank, masks = cycle_masks(support)
        graph = unsigned({i for i, _ in support}, {j for _, j in support}, set(support), dims)
        data = betti(graph)
        assert rank == data.f0 - data.beta0
        assert len(masks) == data.beta1
        for mask in masks:
            cycle = [pos for e, pos in enumerate(support) if mask >> e & 1]
            degree: dict = {}
            for i, j in cycle:
                degree[("r", i)] = degree.get(("r", i), 0) + 1
                degree[("c", j)] = degree.get(("c", j), 0) + 1
            assert cycle and all(d % 2 == 0 for d in degree.values())
        # A cycle basis: the masks are independent over GF(2).
        basis: list[int] = []
        for mask in masks:
            for b in basis:
                mask = min(mask, mask ^ b)
            assert mask
            basis.append(mask)

    def test_every_support_of_the_n4_grid(self):
        grid = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for k in range(len(grid) + 1):
            for support in combinations(grid, k):
                self.check((4, 4), list(support))
                self.check((4, 4), list(reversed(support)))

    def test_complete_bipartite_k45(self):
        grid = [(i, j) for i in range(1, 5) for j in range(1, 6)]
        rank, masks = cycle_masks(grid)
        assert (rank, len(masks)) == (8, 12)
        self.check((5, 6), grid)

    def test_labels_past_the_grid_size(self):
        # A path of two edges on rows 1 and 3 is a tree with one component,
        # whatever the grid size the caller names: the same answer as the
        # path moved inside a grid that holds it.
        support = ((1, 1), (3, 1))
        assert cycle_masks(support) == cycle_masks(((1, 1), (2, 1))) == (2, [])
        moved = PartialTernaryMatrix((3, 2), {(1, 1): 1, (2, 1): -1})
        assert balance_summary((2, 2), {(1, 1): 1, (3, 1): -1}) == (True, 3, 1)
        assert balance_summary((2, 2), {(1, 1): 1, (3, 1): -1}) == matrix_balance(moved)

    def test_one_memo_entry_per_support_at_every_grid_size(self):
        support_cycles.cache_clear()
        entries = {(1, 1): -1, (1, 2): 1, (2, 1): 1, (2, 2): 1}
        assert balance_summary((3, 3), entries) == balance_summary((6, 6), entries)
        assert support_cycles.cache_info().currsize == 1

    def test_labels_below_one_refused(self):
        # Row i and column -j would meet at 0.
        for support in (((0, 1),), ((1, 0),), ((0, 0), (1, 1))):
            with pytest.raises(ValueError, match="positive"):
                cycle_masks(support)
        for rows, cols in (({0, 1}, {1}), ({1}, {0}), ({4}, {1}), ({1}, {5})):
            with pytest.raises(ValueError, match="must lie in"):
                unsigned(rows, cols, set(), dims=(4, 5))

    def test_support_outside_domain_refused(self):
        # cycle_masks takes the support alone; the domain check sits in
        # p_chio_sign_patterns, ahead of the memo, so a refused support is
        # never scanned and leaves no memo entry.
        support_cycles.cache_clear()
        for domain, support in (([(1, 1)], [(1, 1), (2, 2)]), ([(1, 1), (2, 2)], [(1, 2)])):
            with pytest.raises(ValueError, match="not in the domain"):
                p_chio_sign_patterns(domain, support)
        assert support_cycles.cache_info().currsize == 0


class TestMatrixBalanceMemo:
    """The per-support cycle memo against the uncached kernel and the
    circuit definition, on every matrix."""

    GRID = [(i, j) for i in range(1, 4) for j in range(1, 4)]

    @staticmethod
    def brute_balanced(signing, circuits):
        """Circuit parity of one signing of the grid (0 off the support),
        with the circuits of each support listed once in ``circuits``."""
        support = tuple(pos for pos, v in signing.items() if v)
        if support not in circuits:
            circuits[support] = [frozenset(c) for c in edge_subsets_forming_circuits(support)]
        minus = {pos for pos, v in signing.items() if v < 0}
        return all(len(minus & circuit) % 2 == 0 for circuit in circuits[support])

    @staticmethod
    def uncached(entries):
        """(balanced, f0, beta0) from cycle_masks alone, outside the memo."""
        support = [pos for pos, v in entries.items() if v]
        rank, masks = cycle_masks(support)
        minus = sum(1 << e for e, pos in enumerate(support) if entries[pos] < 0)
        f0 = len({i for i, _ in entries}) + len({j for _, j in entries})
        return not any((mask & minus).bit_count() & 1 for mask in masks), f0, f0 - rank

    def test_memo_matches_uncached_scan(self):
        dims = (4, 4)
        support_cycles.cache_clear()
        # The memo holds cycle_masks, so balance is also held against the
        # circuit definition, once per signing of the grid.
        circuits: dict = {}
        brute: dict = {}
        count = 0
        # Every partial matrix on the 3x3 inner grid: each cell unspecified
        # or one of -1, 0, +1.
        for values in product((None, -1, 0, 1), repeat=len(self.GRID)):
            entries = {pos: v for pos, v in zip(self.GRID, values) if v is not None}
            want = self.uncached(entries)
            signs = tuple(v or 0 for v in values)
            if signs not in brute:
                brute[signs] = self.brute_balanced(dict(zip(self.GRID, signs)), circuits)
            assert want[0] == brute[signs]
            # The memo starts cold, so the first matrix of each support
            # misses it; once the triple kept on the matrix is dropped, the
            # same matrix hits it.
            matrix = PartialTernaryMatrix(dims, entries)
            assert matrix_balance(matrix) == want
            object.__setattr__(matrix, "_balance", None)
            assert matrix_balance(matrix) == want
            assert balance_summary(dims, entries) == want
            # Reversed insertion order: a new support key, with the minus
            # bits and the cycle masks in the reversed order.
            reverse = dict(reversed(entries.items()))
            assert matrix_balance(PartialTernaryMatrix(dims, reverse)) == want
            count += 1
        assert count == 4**9
        # One key per support each way round; at most one cell reads the same.
        assert support_cycles.cache_info().currsize == 2 * 2**9 - 1 - 9

    def test_memo_is_bounded_and_keeps_results(self):
        # 2^13 distinct supports, on 13 cells of the 4x4 inner grid, pass
        # through a memo of 2^12.
        dims = (5, 5)
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)][:13]
        support_cycles.cache_clear()
        assert support_cycles.cache_info().maxsize == 4096
        for bits in product((0, 1), repeat=len(cells)):
            # One fixed signing, restricted to each support in turn.
            entries = {pos: b * (-1) ** (pos[0] * pos[1]) for pos, b in zip(cells, bits)}
            assert matrix_balance(PartialTernaryMatrix(dims, entries)) == self.uncached(entries)
            assert support_cycles.cache_info().currsize <= 4096
        info = support_cycles.cache_info()
        assert info.misses == 2 ** len(cells) and info.currsize == 4096
