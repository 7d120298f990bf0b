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
from chio import measures, signed_graph
from chio.signed_graph import build_graph, four_circuits

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

    @given(st.data())
    @settings(max_examples=200)
    def test_ambient_check_matches_brute_containment(self, data):
        # The whole inner box skips the containment test; every other
        # ambient set still takes it.
        s, t = data.draw(st.tuples(st.integers(3, 8), st.integers(3, 8)))
        box = sorted(full_inner_box(s, t).members)
        domain = sorted(data.draw(st.sets(st.sampled_from(box), max_size=6)))
        values = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=len(domain), max_size=len(domain)))
        matrix = PartialTernaryMatrix((s, t), dict(zip(domain, values)))
        kind = data.draw(st.sampled_from(["full box", "box minus one", "subset", "other dims"]))
        if kind == "full box":
            ambient = full_inner_box(s, t)
        elif kind == "box minus one":
            # Half the time the dropped cell is one the matrix specifies.
            cell = data.draw(st.sampled_from(domain if domain and data.draw(st.booleans()) else box))
            ambient = IndexSet((s, t), frozenset(box) - {cell})
        elif kind == "subset":
            extra = data.draw(st.sets(st.sampled_from(box)))
            ambient = IndexSet((s, t), frozenset(extra | set(domain[data.draw(st.integers(0, 6)):])))
        else:
            dims = data.draw(st.tuples(st.integers(3, 8), st.integers(3, 8)).filter(lambda d: d != (s, t)))
            ambient = full_inner_box(*dims)
        if ambient.dims == (s, t) and set(matrix.entries) <= set(ambient.members):
            assert Event(matrix, ambient).ambient is ambient
        else:
            with pytest.raises(ValueError):
                Event(matrix, ambient)

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

    def test_kept_pair_is_read_without_a_rescan(self, monkeypatch):
        calls = []
        real = signed_graph.balance_rank
        monkeypatch.setattr(signed_graph, "balance_rank", lambda *a: calls.append(1) or real(*a))
        unbalanced = {p: 1 for p in C4} | {(1, 1): -1}
        cases = (({p: 1 for p in C4}, (True, 3)), (unbalanced, (False, 3)), ({(1, 1): 0}, (True, 0)))
        for entries, pair in cases:
            event = Event.on_full_grid(ternary(4, entries))
            p_chio(event)
            assert len(calls) == 1
            assert event.matrix._balance == pair
            p_chio(event), ratio_chio_lcf(event), fibre_cardinality(event)
            assert len(calls) == 1
            calls.clear()

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

    @staticmethod
    def assert_reads_least_circuit(n, positions):
        """On every assignment of ``positions``: the circuit the recipe
        reads from its domain row, the first one with four nonzero
        entries, is the least such 4-circuit by sorted positions, and its
        extras are the rest of the domain, sorted; the recipe equals
        p_chio."""
        domain = frozenset(positions)
        _, circuits, _, _ = measures._domain_facts(tuple(positions))
        assert [sorted(c) for c, _ in circuits] == sorted(sorted(c) for c in four_circuits(domain))
        for values in product((-1, 0, 1), repeat=len(positions)):
            entries = dict(zip(positions, values))
            nonzero = [c for c in four_circuits(domain) if all(entries[p] for p in c)]
            read = next(((c, x) for c, x in circuits if all(entries[p] for p in c)), None)
            if nonzero:
                least = min(nonzero, key=sorted)
                assert read == (least, tuple(sorted(domain - least)))
            else:
                assert read is None
            matrix = ternary(n, entries)
            assert recipe_p_chio(matrix) == p_chio(Event(matrix))

    def test_matches_measure_exhaustively_n4(self):
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for k in range(7):
            for positions in combinations(cells, k):
                self.assert_reads_least_circuit(4, positions)

    def test_reads_least_circuit_on_random_six_sets(self):
        rng = random.Random(35)
        for n in range(5, 9):
            cells = [(i, j) for i in range(1, n) for j in range(1, n)]
            rows = sorted(rng.sample(range(1, n), 3))
            cols = sorted(rng.sample(range(1, n), 3))
            grids = [
                [(i, j) for i in rows[:2] for j in cols],
                [(i, j) for i in rows for j in cols[:2]],
            ]
            for positions in grids + [rng.sample(cells, 6) for _ in range(8)]:
                self.assert_reads_least_circuit(n, positions)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_entry_order_does_not_change_the_value(self, data):
        # The domain memo is keyed by the positions in entries order; the
        # value of every event on the index set must not depend on it.
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        positions = data.draw(st.lists(st.sampled_from(cells), min_size=4, max_size=6, unique=True))
        orders = [positions] + [data.draw(st.permutations(positions)) for _ in range(2)]
        for values in product((-1, 0, 1), repeat=len(positions)):
            entries = dict(zip(positions, values))
            got = {recipe_p_chio(ternary(5, {p: entries[p] for p in order})) for order in orders}
            assert got == {p_chio(Event(ternary(5, entries)))}

    def test_domain_memo_is_bounded(self):
        assert measures._domain_facts.cache_parameters()["maxsize"] is not None
