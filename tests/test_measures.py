"""Dyadic probabilities and the three measures on specification events."""

import copy
import pickle
import random
import sys
import threading
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chio.matrix_core import IndexSet, PartialTernaryMatrix, chio_extend, full_inner_box
from chio.measures import (
    DyadicProb,
    Event,
    fibre_cardinality,
    p_chio,
    p_chio_abs,
    p_chio_averaged,
    p_chio_sign_patterns,
    p_lcf,
    ratio_chio_lcf,
    recipe_p_chio,
)
from chio import signed_graph
from chio.signed_graph import build_graph

from oracles import brute_count_colorings, brute_fibre_count, edge_subsets_forming_circuits

C4 = {(1, 1), (1, 2), (2, 1), (2, 2)}


def ternary(n, entries):
    return PartialTernaryMatrix((n, n), entries)


def all_matrices(n, k):
    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    for chosen in combinations(positions, k):
        for values in product((-1, 0, 1), repeat=k):
            yield ternary(n, dict(zip(chosen, values)))


class TestDyadicProb:
    def test_arithmetic(self):
        assert DyadicProb.pow_half(0).as_fraction() == 1
        assert DyadicProb.pow_half(3).as_fraction() == Fraction(1, 8)
        assert DyadicProb.zero().as_fraction() == 0

    def test_from_fraction(self):
        assert DyadicProb.from_fraction(Fraction(1, 8)).exponent == 3
        assert DyadicProb.from_fraction(Fraction(0)).is_zero
        with pytest.raises(ValueError):
            DyadicProb.from_fraction(Fraction(3, 8))

    def test_json(self):
        assert DyadicProb.zero().to_json_dict() == {"zero": True}
        assert DyadicProb.pow_half(5).to_json_dict() == {"log2": -5}

    def test_shared_instances(self):
        assert DyadicProb.pow_half(9) is DyadicProb.pow_half(9)
        assert DyadicProb.zero() is DyadicProb.zero()
        with pytest.raises(ValueError):
            DyadicProb.pow_half(-1)
        with pytest.raises(ValueError):
            DyadicProb(-1)
        built = DyadicProb(9)
        assert built is DyadicProb.pow_half(9)
        assert built == DyadicProb.pow_half(9) and hash(built) == hash(DyadicProb.pow_half(9))
        assert repr(DyadicProb.pow_half(9)) == "DyadicProb(2^-9)"
        for value in (DyadicProb.pow_half(9), DyadicProb.zero()):
            assert pickle.loads(pickle.dumps(value)) == value

    def test_one_instance_per_value(self):
        assert DyadicProb(None) is DyadicProb.zero()
        assert DyadicProb(exponent=0) is DyadicProb.pow_half(0)
        assert DyadicProb.from_fraction(Fraction(1, 512)) is DyadicProb.pow_half(9)
        for value in (DyadicProb.pow_half(9), DyadicProb.zero()):
            assert pickle.loads(pickle.dumps(value)) is value
            assert copy.copy(value) is value and copy.deepcopy(value) is value
            assert replace(value) is value
        assert replace(DyadicProb.zero(), exponent=3) is DyadicProb.pow_half(3)
        assert DyadicProb.pow_half(3) != DyadicProb.pow_half(4) != DyadicProb.zero()
        assert hash(DyadicProb.pow_half(3)) == object.__hash__(DyadicProb.pow_half(3))
        with pytest.raises(FrozenInstanceError):
            DyadicProb.pow_half(3).exponent = 4

    def test_threads_racing_on_first_calls_share_instances(self):
        # Values compare by identity, so a second instance of one value
        # would be unequal to the first.
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = []
            barrier = threading.Barrier(4)

            def work():
                barrier.wait(timeout=30)
                got.append([DyadicProb.pow_half(e) for e in range(2000, 6000)])

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads) and len(got) == 4
        assert all(a is b for row in got[1:] for a, b in zip(row, got[0], strict=True))

    @pytest.mark.parametrize("exponent", [9.5, 9.0, True, "9", Fraction(9), -2])
    def test_exponent_must_be_a_non_negative_int(self, exponent):
        # 9 is cached first, so a 9.0 or True that hit its entry would pass.
        DyadicProb.pow_half(9), DyadicProb.pow_half(1)
        with pytest.raises(ValueError):
            DyadicProb.pow_half(exponent)
        with pytest.raises(ValueError):
            DyadicProb(exponent)


class TestEvents:
    def test_domain_must_be_inside_ambient(self):
        matrix = ternary(4, {(1, 1): 1})
        with pytest.raises(ValueError):
            Event(matrix, IndexSet((4, 4), frozenset({(2, 2)})))

    def test_events_are_immutable(self):
        matrix = ternary(4, {(1, 1): 1})
        for event in (Event(matrix), Event.on_full_grid(matrix)):
            for name in ("matrix", "_ambient", "ambient", "other"):
                with pytest.raises(AttributeError):
                    setattr(event, name, None)
            assert event.matrix is matrix
        again = pickle.loads(pickle.dumps(Event.on_full_grid(matrix)))
        assert again == Event.on_full_grid(matrix) and again._ambient is not None

    def test_default_ambient_is_the_domain_built_on_read(self):
        matrix = ternary(4, {(1, 1): 1, (2, 3): 0})
        event = Event(matrix)
        p_lcf(event), p_chio(event), ratio_chio_lcf(event)
        assert event._ambient is None
        assert event.ambient == matrix.domain
        assert event == Event(matrix, matrix.domain)

    def test_cover_height_fully_specified(self):
        # The cover height of an event is |ambient~| - |I| - |p1(I)| - |p2(I)|.
        empty = IndexSet((2, 2), frozenset())
        assert len(chio_extend(empty)) == 1

    @given(st.data())
    @settings(max_examples=60)
    def test_cover_height_at_least_one(self, data):
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        ambient = data.draw(st.sets(st.sampled_from(cells)))
        domain = data.draw(st.sets(st.sampled_from(sorted(ambient)))) if ambient else set()
        index = IndexSet((4, 4), frozenset(domain))
        extended = chio_extend(IndexSet((4, 4), frozenset(ambient)))
        assert len(extended) - len(index) - len(index.rows) - len(index.cols) >= 1


class TestLcf:
    def test_empty_event_is_certain(self):
        assert p_lcf(Event(ternary(4, {}))) == DyadicProb.pow_half(0)

    def test_signed_circuit(self):
        matrix = ternary(4, {p: -1 for p in C4})
        assert p_lcf(Event(matrix)) == DyadicProb.pow_half(8)

    def test_three_specified_one_nonzero(self):
        matrix = ternary(4, {(1, 1): 1, (2, 2): 0, (3, 3): 0})
        assert p_lcf(Event(matrix)) == DyadicProb.pow_half(4)


class TestChioMeasure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_zero_entry(self, n):
        event = Event.on_full_grid(ternary(n, {(1, 1): 0}))
        assert p_chio(event) == DyadicProb.pow_half(1)

    def test_balanced_circuit_value(self):
        event = Event.on_full_grid(ternary(4, {p: -1 for p in C4}))
        assert p_chio(event) == DyadicProb.pow_half(7)
        assert ratio_chio_lcf(event) == 2

    def test_unbalanced_circuit_vanishes(self):
        entries = {p: -1 for p in C4}
        entries[(1, 2)] = 1
        event = Event.on_full_grid(ternary(4, entries))
        assert p_chio(event).is_zero
        assert ratio_chio_lcf(event) == 0

    def test_ratio_one_for_small_domains(self):
        for k in range(4):
            for matrix in all_matrices(4, k):
                assert ratio_chio_lcf(Event(matrix)) == 1

    def test_ratio_four_on_balanced_k23(self):
        entries = {(i, j): -1 for i in (1, 2) for j in (1, 2, 3)}
        assert ratio_chio_lcf(Event(ternary(4, entries))) == 4

    def test_measure_sums_to_one_via_fibres(self):
        for n in (2, 3, 4):
            grid = full_inner_box(n, n)
            positions = sorted(grid.members)
            total = 0
            for values in product((-1, 0, 1), repeat=len(positions)):
                matrix = ternary(n, dict(zip(positions, values)))
                total += fibre_cardinality(Event.on_full_grid(matrix))
            assert total == 1 << (n * n)

    def test_nonzero_values_scale_coin_flip_by_cycle_rank_n4(self):
        # Nonzero measures are exactly 2^beta1 times the coin flip value.
        for k in range(7):
            for matrix in all_matrices(4, k):
                event = Event(matrix)
                value = p_chio(event)
                ratio = ratio_chio_lcf(event)
                if value.is_zero:
                    assert ratio == 0
                else:
                    assert value.as_fraction() == ratio * p_lcf(event).as_fraction()


class TestFibres:
    def test_single_zero_fibre_n3(self):
        event = Event.on_full_grid(ternary(3, {(1, 1): 0}))
        assert fibre_cardinality(event) == 256

    def test_empty_event_smallest_grid(self):
        event = Event(ternary(2, {}))
        assert fibre_cardinality(event) == 2

    def test_signed_circuit_full_grid_n4(self):
        event = Event.on_full_grid(ternary(4, {p: -1 for p in C4}))
        assert fibre_cardinality(event) == 512

    def test_fibre_matches_brute_count_n3(self):
        cells = [(i, j) for i in range(1, 3) for j in range(1, 3)]
        for k in range(len(cells) + 1):
            for chosen in combinations(cells, k):
                for values in product((-1, 0, 1), repeat=k):
                    spec = dict(zip(chosen, values))
                    event = Event.on_full_grid(ternary(3, spec))
                    assert fibre_cardinality(event) == brute_fibre_count(
                        (3, 3), spec, set(cells)
                    )

    def test_fibre_factors_through_colorings(self):
        # Dual route: fibres are cover height doublings of colouring counts.
        cells = [(i, j) for i in range(1, 3) for j in range(1, 4)]
        for k in range(4):
            for chosen in combinations(cells, k):
                for values in product((-1, 0, 1), repeat=k):
                    matrix = PartialTernaryMatrix((3, 4), dict(zip(chosen, values)))
                    ambient = IndexSet((3, 4), frozenset(cells))
                    event = Event(matrix, ambient)
                    domain = matrix.domain
                    h = len(chio_extend(ambient)) - len(domain) - len(domain.rows) - len(domain.cols)
                    graph = build_graph(matrix)
                    colourings = brute_count_colorings(
                        graph.row_vertices, graph.col_vertices, graph.sign
                    )
                    assert fibre_cardinality(event) == (1 << h) * colourings

    def test_j_independence(self):
        # fibre_cardinality reads the ambient set; its fibre over
        # 2^|ambient~| must not move with it.
        matrix = ternary(4, {p: -1 for p in C4})
        base = p_chio(Event(matrix)).as_fraction()
        for extra in range(5):
            rest = [p for p in full_inner_box(4, 4).members if p not in C4]
            for sup in combinations(rest, extra):
                ambient = IndexSet((4, 4), frozenset(C4) | frozenset(sup))
                fibre = fibre_cardinality(Event(matrix, ambient))
                assert Fraction(fibre) == 2 ** len(chio_extend(ambient)) * base

    def test_j_independence_check_counts(self, monkeypatch):
        # The check counts condensed sign matrices, so p_chio wrong on one
        # event fails it once per ambient set around that event's domain.
        from chio import verify

        assert verify.j_independence_check() == {
            "check": "measure independent of ambient set, n=3",
            "ok": True,
            "cases": 625,
            "mismatches": 0,
        }
        wrong = ternary(3, {(1, 1): -1, (2, 2): 1})
        real = verify.p_chio

        def p_chio(event):
            return DyadicProb.zero() if event.matrix == wrong else real(event)

        monkeypatch.setattr(verify, "p_chio", p_chio)
        report = verify.j_independence_check()
        assert not report["ok"] and report["cases"] == 625 and report["mismatches"] == 4

    @given(st.data())
    @settings(max_examples=100)
    def test_j_independence_random_events(self, data):
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        domain = data.draw(st.sets(st.sampled_from(cells), max_size=6))
        values = {p: data.draw(st.sampled_from((-1, 0, 1))) for p in sorted(domain)}
        matrix = ternary(4, values)
        extra = data.draw(
            st.sets(st.sampled_from([p for p in cells if p not in domain]))
        )
        ambient = IndexSet((4, 4), frozenset(domain) | frozenset(extra))
        fibre = fibre_cardinality(Event(matrix, ambient))
        base = p_chio(Event(matrix)).as_fraction()
        assert Fraction(fibre) == 2 ** len(chio_extend(ambient)) * base


def assert_kernel_matches_p_chio(dims, domain):
    """Every support of ``domain``, every sign pattern, against p_chio."""
    for r in range(len(domain) + 1):
        for support in combinations(domain, r):
            values = p_chio_sign_patterns(domain, list(support))
            assert len(values) == 1 << r
            for pattern, value in enumerate(values):
                entries = dict.fromkeys(domain, 0)
                for e, pos in enumerate(support):
                    entries[pos] = -1 if pattern >> e & 1 else 1
                assert value == p_chio(Event(PartialTernaryMatrix(dims, entries)))


class TestSignPatternKernel:
    def test_matches_p_chio_n4_every_domain_up_to_six(self):
        grid = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for k in range(7):
            for domain in combinations(grid, k):
                assert_kernel_matches_p_chio((4, 4), domain)

    def test_matches_p_chio_random_n5_domains(self):
        rng = random.Random(5)
        grid = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        for _ in range(12):
            domain = sorted(rng.sample(grid, rng.randint(5, 8)))
            assert_kernel_matches_p_chio((5, 5), domain)

    def test_support_outside_domain_raises(self):
        # Checked on every call, also when the memo already holds the support.
        p_chio_sign_patterns([(1, 1), (2, 2)], [(1, 1), (2, 2)])
        for domain in ([(1, 1)], [(1, 1), (2, 1)], []):
            with pytest.raises(ValueError, match="not in the domain"):
                p_chio_sign_patterns(domain, [(1, 1), (2, 2)])
        with pytest.raises(ValueError, match="not in the domain"):
            p_chio_sign_patterns([(1, 1), (2, 2)], [(1, 2)])

    def test_every_support_of_the_n4_grid_against_circuits(self):
        # The full 3x3 grid as the domain and each support inside it:
        # every pattern against the circuit definition, and the rank
        # against a brute count of the 2^beta0 colourings constant on
        # every edge of the grid graph.
        grid = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for k in range(len(grid) + 1):
            for support in combinations(grid, k):
                circuits = [frozenset(c) for c in edge_subsets_forming_circuits(list(support))]
                colourings = brute_count_colorings({1, 2, 3}, {1, 2, 3}, dict.fromkeys(support, -1))
                beta0 = colourings.bit_length() - 1
                balanced = DyadicProb.pow_half(len(grid) + 6 - beta0)
                values = p_chio_sign_patterns(grid, list(support))
                for pattern, value in enumerate(values):
                    minus = {pos for e, pos in enumerate(support) if pattern >> e & 1}
                    even = all(len(minus & circuit) % 2 == 0 for circuit in circuits)
                    assert value == (balanced if even else DyadicProb.zero())

    def test_pattern_bits(self):
        # The all -1 four-circuit is balanced, one +1 on it is not.
        values = p_chio_sign_patterns(sorted(C4), sorted(C4))
        assert values[0b1111] == DyadicProb.pow_half(7)
        assert values[0b1110].is_zero and values[0b0000] == DyadicProb.pow_half(7)


class TestOneScanPerMatrix:
    def test_measures_share_one_scan(self, monkeypatch):
        calls = []
        real = signed_graph._scan
        monkeypatch.setattr(signed_graph, "_scan", lambda *args: calls.append(1) or real(*args))
        signed_graph.support_cycles.cache_clear()
        ambient = full_inner_box(4, 4)
        supports = set()
        for matrix in all_matrices(4, 4):
            supports.add(tuple(pos for pos, v in matrix.entries.items() if v))
            event = Event(matrix, ambient)
            p_chio(event)
            ratio_chio_lcf(event)
            fibre_cardinality(event)
            p_chio(Event(matrix))
        # One scan per support: the subsets of at most four of the nine cells.
        assert len(calls) == len(supports) == 256

    def test_one_memo_entry_per_support(self):
        # p_chio and p_chio_averaged both key the memo by the support in
        # entries order, so unsorted entries are scanned and held once.
        signed_graph.support_cycles.cache_clear()
        matrix = ternary(3, {(2, 2): 1, (1, 1): 1, (1, 2): -1, (2, 1): 1})
        assert p_chio(Event(matrix)).is_zero
        assert p_chio_averaged(matrix) == p_lcf(Event(matrix))
        assert signed_graph.support_cycles.cache_info().currsize == 1

    def test_averaged_scans_once_per_matrix(self, monkeypatch):
        # The averaged measure reads the per-support memo: one scan on the
        # first call, none on a repeat with a fresh matrix of that support.
        calls = []
        real = signed_graph._scan
        monkeypatch.setattr(signed_graph, "_scan", lambda *args: calls.append(1) or real(*args))
        signed_graph.support_cycles.cache_clear()
        entries = {(i, j): 1 for i in range(1, 4) for j in range(1, 4)}
        assert p_chio_averaged(ternary(4, entries)) == p_lcf(Event(ternary(4, entries)))
        assert len(calls) == 1
        assert p_chio_averaged(ternary(4, entries)) == DyadicProb.pow_half(18)
        assert len(calls) == 1


class TestAveragedAndForgetting:
    def test_empty_average(self):
        assert p_chio_averaged(ternary(4, {})) == DyadicProb.pow_half(0)

    def test_circuit_average_equals_lcf(self):
        matrix = ternary(4, {p: -1 for p in C4})
        assert p_chio_averaged(matrix) == DyadicProb.pow_half(8) == p_lcf(Event(matrix))

    def test_average_equals_lcf_small_domains(self):
        for k in range(5):
            for matrix in all_matrices(4, k):
                assert p_chio_averaged(matrix) == p_lcf(Event(matrix))

    def test_abs_measure_uniform(self):
        assert p_chio_abs(ternary(4, {})) == DyadicProb.pow_half(0)
        pattern = ternary(4, {p: 1 for p in C4})
        assert p_chio_abs(pattern) == DyadicProb.pow_half(4)
        with pytest.raises(ValueError):
            p_chio_abs(ternary(4, {(1, 1): -1}))


class TestRecipe:
    def test_rejects_large_domains(self):
        entries = {(i, j): 0 for i in range(1, 4) for j in range(1, 4) if (i, j) != (3, 3)}
        entries[(3, 3)] = 0
        with pytest.raises(ValueError):
            recipe_p_chio(ternary(4, entries))

    def test_five_entries_zero_offside(self):
        entries = {p: -1 for p in C4}
        entries[(2, 3)] = 0
        assert recipe_p_chio(ternary(4, entries)) == DyadicProb.pow_half(8)

    def test_five_entries_nonzero_offside(self):
        entries = {p: -1 for p in C4}
        entries[(2, 3)] = -1
        assert recipe_p_chio(ternary(4, entries)) == DyadicProb.pow_half(9)

    def test_six_circuit_even_plus(self):
        entries = {(1, 1): 1, (1, 2): 1, (2, 2): -1, (2, 3): -1, (3, 3): -1, (3, 1): -1}
        assert recipe_p_chio(ternary(4, entries)) == DyadicProb.pow_half(11)

    def test_six_circuit_odd_plus(self):
        entries = {(1, 1): 1, (1, 2): -1, (2, 2): -1, (2, 3): -1, (3, 3): -1, (3, 1): -1}
        assert recipe_p_chio(ternary(4, entries)).is_zero

    def test_grid_pattern_balanced(self):
        entries = {(i, j): -1 for i in (1, 2) for j in (1, 2, 3)}
        assert recipe_p_chio(ternary(4, entries)) == DyadicProb.pow_half(10)

    def test_grid_pattern_hidden_unbalanced_circuit(self):
        entries = {(i, j): -1 for i in (1, 2) for j in (1, 2, 3)}
        entries[(1, 3)] = 1  # the first rectangle stays balanced, another breaks
        assert recipe_p_chio(ternary(4, entries)).is_zero

    def test_matches_measure_exhaustively_n4(self):
        for k in range(7):
            for matrix in all_matrices(4, k):
                assert recipe_p_chio(matrix) == p_chio(Event(matrix))
