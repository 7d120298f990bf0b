"""Switching actions, orbits, rigidity, rank invariance."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chio import census_oracle, signed_graph
from chio.matrix_core import PartialTernaryMatrix
from chio.signed_graph import SignedBipartiteGraph, balance_summary, betti, build_graph
from chio.switching import (
    _switch,
    all_switches,
    balanced_sign_maps,
    balanced_signings,
    orbit,
    rank_invariance_check,
    signing_tuple,
    switch_matrix,
)

from oracles import brute_count_balanced_signings, brute_is_balanced

C4 = {(1, 1), (1, 2), (2, 1), (2, 2)}
ALL_MINUS = {p: -1 for p in C4}


def is_balanced(graph):
    return balance_summary(graph.dims, graph.sign)[0]


def scan_forest(graph):
    """The edges of the spanning forest whose signings ``balanced_sign_maps``
    extends: the parent edges of the graph's scan."""
    _, _, parent = signed_graph._graph_scan(graph)
    return sorted((u, -v) if v < 0 else (v, -u) for v, u in parent.items())


def circuit_graph(sign=ALL_MINUS, dims=(4, 4)):
    """The 4-circuit on rows and columns {1, 2}; unsigned for ``sign=None``."""
    return SignedBipartiteGraph(
        dims=dims,
        row_vertices=frozenset({1, 2}),
        col_vertices=frozenset({1, 2}),
        edges=frozenset(C4),
        sign=sign,
    )


class TestAction:
    def test_identity_fixes_matrices(self):
        matrix = PartialTernaryMatrix((4, 4), {p: -1 for p in C4})
        assert switch_matrix(matrix, 0).entries == matrix.entries

    def test_all_ones_is_in_the_kernel(self):
        matrix = PartialTernaryMatrix((4, 4), {p: -1 for p in C4})
        assert switch_matrix(matrix, 0b111111).entries == matrix.entries

    def test_row_flip(self):
        matrix = PartialTernaryMatrix((4, 4), {p: -1 for p in C4})
        flipped = switch_matrix(matrix, 0b000001)
        assert flipped[(1, 1)] == flipped[(1, 2)] == 1
        assert flipped[(2, 1)] == flipped[(2, 2)] == -1

    def test_column_flip(self):
        # Bit s-2+j flips column j: bit 5 is column 2 on a 5 x 4 grid.
        matrix = PartialTernaryMatrix((5, 4), {(i, j): -1 for i in (1, 4) for j in (1, 2)})
        flipped = switch_matrix(matrix, 1 << 5)
        assert flipped[(1, 2)] == flipped[(4, 2)] == 1
        assert flipped[(1, 1)] == flipped[(4, 1)] == -1

    def test_switch_outside_the_group_refused(self):
        matrix = PartialTernaryMatrix((4, 5), {(1, 1): 1})
        graph = build_graph(matrix)
        for g in (-1, 1 << 7):
            with pytest.raises(ValueError, match=r"not in 0 \.\. 2\^7 - 1"):
                switch_matrix(matrix, g)
            with pytest.raises(ValueError, match=r"not in 0 \.\. 2\^7 - 1"):
                _switch(graph.dims, g, graph.sign)
        assert switch_matrix(matrix, (1 << 7) - 1).entries == matrix.entries

    def test_support_is_preserved(self):
        matrix = PartialTernaryMatrix((4, 4), {(1, 1): 0, (2, 2): 1})
        support = {p for p, v in matrix.entries.items() if v}
        for g in all_switches(4, 4):
            switched = switch_matrix(matrix, g).entries
            assert {p for p, v in switched.items() if v} == support

    def test_group_law_exhaustive_on_3x3_grid(self):
        positions = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        matrix = PartialTernaryMatrix(
            (4, 4), {p: (1 if (p[0] * p[1]) % 3 == 0 else -1) for p in positions}
        )
        switches = list(all_switches(4, 4))
        for g in switches:
            for h in switches:
                lhs = switch_matrix(switch_matrix(matrix, g), h)
                rhs = switch_matrix(matrix, g ^ h)
                assert lhs.entries == rhs.entries

    def test_kernel_is_exactly_two_elements(self):
        positions = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        matrix = PartialTernaryMatrix((4, 4), {p: 1 for p in positions})
        kernel = [
            g for g in all_switches(4, 4)
            if switch_matrix(matrix, g).entries == matrix.entries
        ]
        # The identity and the all-ones mask.
        assert kernel == [0, (1 << 6) - 1]

    def test_matrix_and_signing_actions_agree_exhaustively_n3(self):
        cells = [(i, j) for i in range(1, 3) for j in range(1, 3)]
        for values in product((-1, 0, 1), repeat=4):
            matrix = PartialTernaryMatrix((3, 3), dict(zip(cells, values)))
            graph = build_graph(matrix)
            balanced_before = is_balanced(graph) if graph.edges else True
            for g in all_switches(3, 3):
                switched = build_graph(switch_matrix(matrix, g))
                assert switched.edges == graph.edges
                if graph.edges:
                    assert switched.sign == _switch(graph.dims, g, graph.sign)
                    assert is_balanced(switched) == balanced_before

    def test_balance_is_switching_invariant(self):
        for signs in product((-1, 1), repeat=4):
            graph = circuit_graph(dict(zip(sorted(C4), signs)))
            before = is_balanced(graph)
            for g in all_switches(4, 4):
                assert is_balanced(graph.with_sign(_switch(graph.dims, g, graph.sign))) == before


class TestOrbits:
    def test_circuit_orbit_is_balanced_set(self):
        graph = circuit_graph()
        orb = orbit(graph)
        assert len(orb) == 8
        balanced_set = {signing_tuple(g) for g in balanced_signings(graph)}
        assert orb == balanced_set

    def test_single_edge_orbit(self):
        graph = SignedBipartiteGraph(
            dims=(3, 3),
            row_vertices=frozenset({1}),
            col_vertices=frozenset({1}),
            edges=frozenset({(1, 1)}),
            sign={(1, 1): -1},
        )
        assert orbit(graph) == {(-1,), (1,)}

    def test_unbalanced_orbit_avoids_balanced_signings(self):
        sign = {p: -1 for p in C4}
        sign[(1, 1)] = 1
        graph = circuit_graph(sign)
        orb = orbit(graph)
        assert len(orb) == 8
        balanced_set = {signing_tuple(g) for g in balanced_signings(circuit_graph())}
        assert orb.isdisjoint(balanced_set)

    def test_orbit_size_for_connected_samples(self):
        k23 = {(i, j) for i in (1, 2) for j in (1, 2, 3)}
        graph = SignedBipartiteGraph(
            dims=(4, 4),
            row_vertices=frozenset({1, 2}),
            col_vertices=frozenset({1, 2, 3}),
            edges=frozenset(k23),
            sign={e: -1 for e in k23},
        )
        data = betti(graph)
        assert len(orbit(graph)) == 2 ** (data.f0 - data.beta0) == 16

    def test_orbit_is_that_of_every_switching(self):
        # The orbit switches only rows and columns with an edge; spare rows,
        # columns and isolated vertices must not change it.
        rng = random.Random(3)
        cells = [(i, j) for i in range(1, 4) for j in range(1, 5)]
        for _ in range(40):
            edges = rng.sample(cells, rng.randint(0, 6))
            graph = SignedBipartiteGraph(
                dims=(5, 6),
                row_vertices=frozenset(range(1, 4)),
                col_vertices=frozenset(range(1, 5)),
                edges=frozenset(edges),
                sign={e: rng.choice((-1, 1)) for e in edges},
            )
            every = {
                signing_tuple(graph.with_sign(_switch(graph.dims, g, graph.sign)))
                for g in all_switches(5, 6)
            }
            assert orbit(graph) == every


class TestBalancedExtension:
    def test_circuit_parity_forced(self):
        graph = circuit_graph(None)
        forest = scan_forest(graph)
        assert len(forest) == 3
        (extended,) = [s for s in balanced_sign_maps(graph) if all(s[e] == -1 for e in forest)]
        (rest,) = C4 - set(forest)
        assert extended[rest] == -1
        assert is_balanced(graph.with_sign(extended))

    def test_all_tree_signings_of_k23_extend(self):
        k23 = {(i, j) for i in (1, 2) for j in (1, 2, 3)}
        graph = SignedBipartiteGraph(
            dims=(4, 4),
            row_vertices=frozenset({1, 2}),
            col_vertices=frozenset({1, 2, 3}),
            edges=frozenset(k23),
        )
        forest = scan_forest(graph)
        signs = list(balanced_sign_maps(graph))
        assert all(is_balanced(graph.with_sign(sign)) for sign in signs)
        # A bijection between the signings of the forest and the balanced signings.
        restricted = sorted(tuple(sign[e] for e in forest) for sign in signs)
        assert restricted == sorted(product((-1, 1), repeat=4))

    def test_one_scan_per_graph(self, monkeypatch):
        calls = []
        real = signed_graph._scan
        monkeypatch.setattr(signed_graph, "_scan", lambda *args: calls.append(1) or real(*args))
        k23 = {(i, j) for i in (1, 2) for j in (1, 2, 3)}
        for edges in (C4, k23, {(1, 1), (2, 2)}):
            graph = SignedBipartiteGraph(
                dims=(4, 4),
                row_vertices=frozenset({1, 2, 3}),
                col_vertices=frozenset({1, 2, 3}),
                edges=frozenset(edges),
            )
            calls.clear()
            signings = list(balanced_signings(graph))
            assert len(calls) == 1
            assert len(signings) == 2 ** (graph.f0 - betti(graph).beta0)

    def test_every_signing_is_balanced(self):
        # rank_invariance_check relies on this and does not re-decide it.
        shapes = (
            C4,
            {(i, j) for i in (1, 2) for j in (1, 2, 3)},
            C4 | {(2, 3)},
            {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1)},
            {(1, 1), (2, 2), (3, 3)},
        )
        for edges in shapes:
            graph = SignedBipartiteGraph(
                dims=(4, 4),
                row_vertices=frozenset({1, 2, 3}),
                col_vertices=frozenset({1, 2, 3}),
                edges=frozenset(edges),
            )
            signings = list(balanced_sign_maps(graph))
            # balanced_signings wraps the same maps, in the same order.
            assert [signed.sign for signed in balanced_signings(graph)] == signings
            assert all(brute_is_balanced(sign) for sign in signings)
            assert len(signings) == brute_count_balanced_signings(sorted(edges))

    def test_extension_count_matches_formula(self):
        graph = circuit_graph(None)
        signings = {signing_tuple(g) for g in balanced_signings(graph)}
        data = betti(graph)
        assert len(signings) == 2 ** (data.f0 - data.beta0)

    def test_order_independence_against_greedy_oracle(self):
        # Greedy circuit-parity filling in random edge orders must agree.
        rng = random.Random(7)
        k23 = {(i, j) for i in (1, 2) for j in (1, 2, 3)}
        graph = SignedBipartiteGraph(
            dims=(4, 4),
            row_vertices=frozenset({1, 2}),
            col_vertices=frozenset({1, 2, 3}),
            edges=frozenset(k23),
        )
        forest = scan_forest(graph)
        for expected in balanced_sign_maps(graph):
            tree_sign = {e: expected[e] for e in forest}
            for _ in range(4):
                remaining = [e for e in k23 if e not in tree_sign]
                rng.shuffle(remaining)
                greedy = dict(tree_sign)
                for edge in remaining:
                    choice = None
                    for candidate in (-1, 1):
                        trial = dict(greedy)
                        trial[edge] = candidate
                        if brute_is_balanced(trial):
                            choice = candidate
                            break
                    assert choice is not None
                    greedy[edge] = choice
                assert greedy == dict(expected)


class TestRankInvariance:
    def test_all_ones_2x2(self):
        pattern = PartialTernaryMatrix((3, 3), {p: 1 for p in C4})
        report = rank_invariance_check(pattern)
        assert report.pattern_rank == 1
        assert report.signings_checked == 8
        assert report.all_equal

    def test_identity_pattern_3x3(self):
        pattern = PartialTernaryMatrix((4, 4), {(i, i): 1 for i in (1, 2, 3)})
        report = rank_invariance_check(pattern)
        assert report.pattern_rank == 3 and report.all_equal

    def test_all_ones_3x3_rank_one_but_unbalanced_signings_jump(self):
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        pattern = PartialTernaryMatrix((4, 4), {p: 1 for p in cells})
        report = rank_invariance_check(pattern)
        assert report.pattern_rank == 1 and report.all_equal
        # Some unbalanced signing has a larger rank.
        from chio.matrix_core import IntMatrix, rank_int

        signed = {p: 1 for p in cells}
        signed[(1, 1)] = -1
        assert rank_int(IntMatrix.from_ternary(PartialTernaryMatrix((4, 4), signed))) > 1

    def test_shifted_signing_rank_is_reported(self, monkeypatch):
        real = census_oracle.batch_rank

        def shifted(mats):
            ranks = real(mats)
            ranks[3] += 1
            return ranks

        monkeypatch.setattr(census_oracle, "batch_rank", shifted)
        report = rank_invariance_check(PartialTernaryMatrix((3, 3), {p: 1 for p in C4}))
        assert report.pattern_rank == 1 and report.signings_checked == 8
        assert report.mismatches == 1 and not report.all_equal

    def test_rejects_signed_input(self):
        with pytest.raises(ValueError):
            rank_invariance_check(PartialTernaryMatrix((3, 3), {(1, 1): -1}))

    @given(st.integers(0, 2**9 - 1))
    @settings(max_examples=40)
    def test_random_patterns_hold(self, code):
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        pattern = PartialTernaryMatrix(
            (4, 4), {p: (code >> b) & 1 for b, p in enumerate(cells)}
        )
        assert rank_invariance_check(pattern).all_equal
