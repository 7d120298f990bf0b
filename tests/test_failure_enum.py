"""Failure censuses against closed forms, realization tables, relations."""

import hashlib
import json
import multiprocessing
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from itertools import combinations, product
from math import comb

import pytest

from chio import failure_enum
from chio.matrix_core import PartialTernaryMatrix
from chio.measures import DyadicProb, Event, p_chio, p_lcf, ratio_chio_lcf
from chio.signed_graph import (
    IsoType,
    SignedBipartiteGraph,
    build_graph,
    classify_isotype,
    four_circuits,
    is_six_circuit,
    isotype_and_betti,
)
from chio.failure_enum import (
    CountReport,
    FailureRecord,
    _EDGES_AND_RANK,
    _balanced_signings,
    _circuit_sets,
    _extent,
    _failing_supports,
    _record,
    _shape,
    _shapes,
    check_linear_relations,
    count_failures,
    enumerate_failures,
    failure_count_formula,
    failure_density_bound,
    grid_positions,
    h_counts,
    realization_table,
    total_event_count,
    xi,
)
from oracles import enumerate_circuits


def aggregate(records):
    by_ratio, by_value, by_isotype = {}, {}, {}
    count = 0
    for rec in records:
        count += 1
        by_ratio[rec.ratio] = by_ratio.get(rec.ratio, 0) + 1
        by_value[rec.value] = by_value.get(rec.value, 0) + 1
        by_isotype[rec.isotype] = by_isotype.get(rec.isotype, 0) + 1
    return count, by_ratio, by_value, by_isotype


class TestEnumeration:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_no_failures_below_four_entries(self, k):
        assert list(enumerate_failures(k, 5)) == []

    def test_k4_n4_census(self):
        records = list(enumerate_failures(4, 4))
        assert len(records) == 144
        assert all(rec.isotype is IsoType.T1 for rec in records)
        keys = {tuple(sorted(rec.matrix.entries.items())) for rec in records}
        assert len(keys) == 144  # each specification exactly once

    def test_k5_n4_isotypes(self):
        tags = {rec.isotype for rec in enumerate_failures(5, 4)}
        assert tags == {IsoType.T2, IsoType.T3, IsoType.T5, IsoType.T7}

    def test_first_record_is_deterministic(self):
        first = next(enumerate_failures(4, 4))
        assert sorted(first.matrix.entries) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert list(first.matrix.entries.values()) == [-1, -1, -1, -1]
        assert first.ratio == 2 and first.value == DyadicProb.pow_half(7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_failures(7, 4))
        with pytest.raises(ValueError):
            count_failures(7, 4)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            list(enumerate_failures(4, n))
        with pytest.raises(ValueError, match="at least 2"):
            count_failures(4, n, workers=1)
        with pytest.raises(ValueError, match="at least 2"):
            failure_count_formula(4, n)

    @pytest.mark.parametrize("k", range(7))
    def test_records_match_per_event_path(self, k):
        # Every specification where the measures differ, in index-set then
        # base-3 order, each record re-derived on its own matrix.
        expected = []
        for chosen in combinations(grid_positions(4), k):
            for values in product((-1, 0, 1), repeat=k):
                matrix = PartialTernaryMatrix((4, 4), dict(zip(chosen, values)))
                event = Event(matrix)
                if p_chio(event) != p_lcf(event):
                    expected.append(list(matrix.entries.items()))
        records = list(enumerate_failures(k, 4))
        assert [list(rec.matrix.entries.items()) for rec in records] == expected
        for rec in records:
            assert rec.matrix.dims == (4, 4)
            assert rec.value == p_chio(Event(rec.matrix))
            assert rec.ratio == ratio_chio_lcf(Event(rec.matrix))
            assert rec.isotype is classify_isotype(build_graph(rec.matrix))

    @pytest.mark.parametrize(
        "k, n",
        [(4, 4), (5, 4), (6, 4), (5, 5), (6, 5)],
        ids=["4", "5", "6", "5-5", "6-5"],
    )
    def test_counter_agrees_with_generator(self, k, n):
        report = count_failures(k, n, workers=1)
        count, by_ratio, by_value, by_isotype = aggregate(enumerate_failures(k, n))
        assert report.failure_count == count
        assert report.by_ratio == by_ratio
        assert report.by_value == by_value
        assert report.by_isotype == by_isotype


def per_shape_count(k, n):
    """(failures, by_ratio, by_value, by_isotype) weighted shape by shape.

    The counter as it was before its extent tables: every shape's table
    and balance walks built afresh for this call, its tallies weighted by
    C(n-1, r) C(n-1, c) on their own, nothing kept across calls.
    """
    by_ratio, by_value, by_isotype = Counter(), Counter(), Counter()
    walks, graphs = {}, {}
    for shape in _shapes(k):
        r, c = _extent(shape)
        sets = comb(n - 1, r) * comb(n - 1, c)
        if not sets:
            continue
        for mask, (circuits, isotype, exponent, beta1) in _failing_supports(shape, graphs).items():
            pattern = (mask, circuits)
            if pattern not in walks:
                walks[pattern] = _balanced_signings(mask, circuits)
            total = sets << mask.bit_count()
            balanced = sets * walks[pattern]
            by_ratio[2**beta1] += balanced
            by_ratio[0] += total - balanced
            by_value[DyadicProb.pow_half(exponent)] += balanced
            by_value[DyadicProb.zero()] += total - balanced
            by_isotype[isotype] += total
    return by_isotype.total(), dict(by_ratio), dict(by_value), dict(by_isotype)


class TestExtentTables:
    @pytest.mark.parametrize("k", range(7))
    def test_counts_match_the_per_shape_weighting(self, k):
        # n = 2 and 3 leave some extents, or all of them, with no index set.
        for n in range(2, 14):
            report = count_failures(k, n)
            assert report.total_events == total_event_count(k, n)
            assert (
                report.failure_count, report.by_ratio, report.by_value, report.by_isotype
            ) == per_shape_count(k, n)

    def test_table_is_built_once_per_k(self, monkeypatch, fresh_extent_tallies):
        real = failure_enum._failing_supports
        calls = []

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(failure_enum, "_failing_supports", counted)
        first = count_failures(6, 5)
        assert len(calls) == len(_shapes(6))
        second = count_failures(6, 7)
        assert len(calls) == len(_shapes(6))
        assert first.failure_count == failure_count_formula(6, 5).failure_count
        assert second.failure_count == failure_count_formula(6, 7).failure_count
        count_failures(5, 7)
        assert len(calls) == len(_shapes(6)) + len(_shapes(5))

    @pytest.mark.parametrize("k, n", [(4, 4), (5, 6), (6, 5)])
    def test_reports_share_no_counters(self, k, n):
        report = count_failures(k, n)
        want = per_shape_count(k, n)
        for counts in (report.by_ratio, report.by_value, report.by_isotype):
            for key in list(counts):
                counts[key] += 1
            counts["stray"] = 1
        report.by_value.clear()
        again = count_failures(k, n)
        assert (again.failure_count, again.by_ratio, again.by_value, again.by_isotype) == want
        assert again.by_ratio is not report.by_ratio


def circuit_listing(k, n):
    """The circuit-bearing k-subsets of the grid, from the oracle's circuits.

    Every such set is a 4-circuit joined with k - 4 other positions or, at
    k = 6, a 6-circuit alone; a set holding several 4-circuits comes out
    once for each, and the set drops the repeats.
    """
    found = set()
    if k >= 4:
        grid = grid_positions(n)
        for circuit in enumerate_circuits(4, n, n):
            others = [pos for pos in grid if pos not in circuit]
            for rest in combinations(others, k - 4):
                found.add(tuple(sorted(circuit.union(rest))))
    if k == 6:
        found.update(tuple(sorted(c)) for c in enumerate_circuits(6, n, n))
    return found


class TestShapes:
    @pytest.mark.parametrize(
        "k, n", [(k, n) for n in (2, 3, 4, 5) for k in range(7)] + [(5, 6)]
    )
    def test_skip_agrees_with_circuit_listing(self, k, n):
        # The generated circuit-bearing sets are exactly the index sets the
        # circuit listing finds a circuit in, in the same order.
        listed = [
            chosen
            for chosen in combinations(grid_positions(n), k)
            if four_circuits(chosen) or is_six_circuit(chosen)
        ]
        assert [chosen for chosen, _ in _circuit_sets(k, n)] == listed
        assert set(listed) == circuit_listing(k, n)

    @pytest.mark.parametrize("k", range(7))
    def test_shape_counts(self, k):
        assert len(_shapes(k)) == (0, 0, 0, 0, 1, 21, 380)[k]

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_shapes_match_every_subset_of_the_grid(self, k):
        # The shapes of all k-subsets of the (k-2) x (k-2) grid that hold a
        # circuit, listed from the oracle's circuits.
        brute = {_shape(chosen) for chosen in circuit_listing(k, k - 1)}
        assert _shapes(k) == tuple(sorted(brute))

    @pytest.mark.parametrize("k, n", [(k, n) for n in range(2, 8) for k in range(7)])
    def test_shape_weights_count_the_listed_sets(self, k, n):
        # A shape on r rows and c columns is the shape of one listed set
        # per choice of r rows and c columns.
        weights = {}
        for shape in _shapes(k):
            r = max(i for i, _ in shape)
            c = max(j for _, j in shape)
            if comb(n - 1, r) * comb(n - 1, c):
                weights[shape] = comb(n - 1, r) * comb(n - 1, c)
        assert Counter(map(_shape, circuit_listing(k, n))) == weights

    @pytest.mark.parametrize("k, n", [(4, 5), (5, 5), (6, 4), (6, 6)])
    def test_circuit_sets_carry_their_shapes(self, k, n):
        pairs = _circuit_sets(k, n)
        assert all(shape == _shape(chosen) for chosen, shape in pairs)
        assert len({chosen for chosen, _ in pairs}) == len(pairs)

    @pytest.mark.parametrize("n", [5, 6])
    def test_shape_keeps_circuits_and_support_metrics(self, n):
        # Random sets, sets built around a 4-circuit, and 6-circuits.
        rng = random.Random(n)
        positions = grid_positions(n)
        for trial in range(150):
            k = rng.randint(4, 6)
            rows = rng.sample(range(1, n), 3)
            cols = rng.sample(range(1, n), 3)
            if trial % 3 == 0:
                chosen = set(rng.sample(positions, k))
            elif trial % 3 == 1:
                chosen = {(i, j) for i in rows[:2] for j in cols[:2]}
                chosen |= set(rng.sample(sorted(set(positions) - chosen), k - 4))
            else:
                chosen = {(rows[a], cols[b]) for a in range(3) for b in (a, (a + 1) % 3)}
            chosen = tuple(sorted(chosen))
            shape = _shape(chosen)
            assert shape == tuple(sorted(shape))
            assert {i for i, _ in shape} == set(range(1, len({i for i, _ in chosen}) + 1))
            assert {j for _, j in shape} == set(range(1, len({j for _, j in chosen}) + 1))
            table = _failing_supports(chosen, {})
            assert table or trial % 3 == 0  # built around a circuit: never empty
            assert table == _failing_supports(shape, {})

    @pytest.mark.parametrize("k, n", [(6, 5), (5, 6)])
    def test_graph_memo_matches_direct_classification(self, k, n):
        # One memo across every shape of the call, as count_failures keeps
        # it; each entry against the support's own graph, classified afresh.
        graphs: dict = {}
        lookups = 0
        for shape in _shapes(k):
            table = _failing_supports(shape, graphs)
            assert table.keys() == _failing_supports(shape, {}).keys()
            rows = frozenset(i for i, _ in shape)
            cols = frozenset(j for _, j in shape)
            for mask, (_, isotype, exponent, beta1) in table.items():
                edges = frozenset(shape[b] for b in range(k) if mask >> b & 1)
                graph = SignedBipartiteGraph((n, n), rows, cols, edges)
                direct, data = isotype_and_betti(graph)
                assert (isotype, exponent, beta1) == (
                    direct, k + data.f0 - data.beta0, data.beta1
                )
                lookups += 1
        assert len(graphs) < lookups


class TestRecords:
    # sha256 of the records of enumerate_failures(6, 4), one sorted-key JSON
    # line each, as written before records built their matrices lazily.
    K6_N4_DIGEST = "13cb0232f5148fcce111266e92fb6c6669ccfbc339d5cce1d59319f1436f326c"

    def test_matrix_is_built_from_positions_and_values(self):
        for rec in enumerate_failures(5, 4):
            assert rec.positions == tuple(sorted(rec.positions))
            assert rec.matrix == PartialTernaryMatrix(
                (4, 4), dict(zip(rec.positions, rec.values))
            )

    def test_matrix_is_kept(self):
        rec = next(enumerate_failures(4, 4))
        assert rec.matrix is rec.matrix

    def test_replace(self):
        rec = next(enumerate_failures(4, 4))
        changed = replace(rec, ratio=rec.ratio + 1)
        assert changed.ratio == rec.ratio + 1
        assert changed.matrix == rec.matrix and changed != rec
        assert replace(rec) == rec

    def test_fields_are_frozen(self):
        rec = next(enumerate_failures(4, 4))
        for name in ("ratio", "value", "_matrix"):
            with pytest.raises(FrozenInstanceError):
                setattr(rec, name, None)

    def test_record_fills_every_field(self):
        args = ((4, 4), ((1, 1), (1, 2)), (1, -1), IsoType.T1, 2, DyadicProb.pow_half(7))
        rec = _record(*args)
        # Reading a slot that was never filled raises AttributeError.
        got = tuple(getattr(rec, f.name) for f in fields(FailureRecord))
        assert got == args + (None,)
        assert rec == FailureRecord(*args) and type(rec) is FailureRecord

    def test_stream_records_equal_constructed_ones(self):
        init_fields = [f.name for f in fields(FailureRecord) if f.init]
        records = 0
        for rec in enumerate_failures(5, 5):
            built = FailureRecord(*(getattr(rec, name) for name in init_fields))
            assert rec == built and rec._matrix is None
            records += 1
        assert records == failure_count_formula(5, 5).failure_count

    def test_json_stream_is_unchanged(self):
        digest = hashlib.sha256()
        for rec in enumerate_failures(6, 4):
            payload = {
                "B": rec.matrix.to_json_dict(),
                "isotype": rec.isotype.label,
                "ratio_log2": None if rec.ratio == 0 else rec.ratio.bit_length() - 1,
                "value": rec.value.to_json_dict(),
            }
            digest.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == self.K6_N4_DIGEST


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_formula_matches_enumeration(self, k, n):
        enum = count_failures(k, n, workers=1)
        form = failure_count_formula(k, n)
        assert enum.total_events == form.total_events
        assert enum.failure_count == form.failure_count
        assert enum.by_ratio == form.by_ratio
        assert enum.by_value == form.by_value
        assert enum.by_isotype == form.by_isotype

    def test_frozen_examples(self):
        assert failure_count_formula(4, 4).failure_count == 144 == xi(4)
        assert failure_count_formula(5, 4).failure_count == 2160
        assert failure_count_formula(6, 4).failure_count == 12576
        assert failure_count_formula(6, 5).failure_count == 342144

    def test_half_splits_for_k4_k5(self):
        for n in (4, 5, 6, 7):
            for k in (4, 5):
                report = failure_count_formula(k, n)
                assert report.by_ratio[0] == report.by_ratio[2] == report.failure_count // 2

    def test_k6_ratio_classes(self):
        report = failure_count_formula(6, 5)
        assert set(report.by_ratio) == {0, 2, 4}
        assert report.by_ratio[4] == h_counts(5)[1] // 4

    def test_rejects_other_k(self):
        with pytest.raises(ValueError):
            failure_count_formula(3, 5)

    def test_total_event_count(self):
        assert total_event_count(4, 4) == 81 * 126
        assert total_event_count(6, 6) == 729 * 177100

    def test_value_classes(self):
        assert set(failure_count_formula(4, 5).by_value) == {
            DyadicProb.zero(),
            DyadicProb.pow_half(7),
        }
        assert set(failure_count_formula(5, 5).by_value) == {
            DyadicProb.zero(),
            DyadicProb.pow_half(8),
            DyadicProb.pow_half(9),
        }
        assert set(failure_count_formula(6, 5).by_value) == {
            DyadicProb.zero(),
            DyadicProb.pow_half(9),
            DyadicProb.pow_half(10),
            DyadicProb.pow_half(11),
        }


class TestRealizations:
    def test_examples(self):
        assert realization_table(4, 5)[IsoType.T1] == xi(5)
        assert realization_table(5, 4)[IsoType.T2] == 576
        for n in (4, 5, 6):
            from chio.signed_graph import circuit_count_formula

            assert realization_table(6, n)[IsoType.T12] == 64 * circuit_count_formula(6, n, n)

    def test_rejects_unlisted_pairs(self):
        assert IsoType.T1 not in realization_table(5, 4)
        assert IsoType.FOREST not in realization_table(4, 4)
        with pytest.raises(ValueError):
            realization_table(7, 4)

    @pytest.mark.parametrize("n", [2, 1, 0])
    def test_closed_forms_need_n_at_least_3(self, n):
        for call in (
            lambda: h_counts(n),
            lambda: realization_table(4, n)[IsoType.T1],
            lambda: realization_table(6, n),
            lambda: check_linear_relations(n),
        ):
            with pytest.raises(ValueError, match="n >= 3"):
                call()

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_tables_match_enumeration(self, k, n):
        table = realization_table(k, n)
        enumerated = count_failures(k, n, workers=1).by_isotype
        assert {t: v for t, v in table.items() if v} == enumerated

    @pytest.mark.parametrize("n", [4, 5])
    def test_balanced_fraction_is_two_to_minus_beta1(self, n):
        # Among realizations of each type, exactly 2^-beta1 are balanced.
        for k in (4, 5, 6):
            per_type: dict = {}
            for rec in enumerate_failures(k, n):
                total, balanced = per_type.get(rec.isotype, (0, 0))
                per_type[rec.isotype] = (total + 1, balanced + (rec.ratio > 0))
            for tag, (total, balanced) in per_type.items():
                beta1 = 2 if tag is IsoType.T4 else 1
                assert balanced * 2**beta1 == total, (k, n, tag)


    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_records_match_edges_and_rank(self, k, n):
        # The transcribed (f1, beta1) of each type against the classifier's
        # type and the enumerator's balance decision on every record.
        for rec in enumerate_failures(k, n):
            f1, beta1 = _EDGES_AND_RANK[rec.isotype]
            assert sum(v != 0 for v in rec.values) == f1, rec
            assert rec.ratio in (0, 2**beta1), rec


class TestRelations:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_closed_form_relations(self, n):
        assert all(entry["holds"] for entry in check_linear_relations(n))


class TestHCounts:
    def test_frozen_n4(self):
        assert h_counts(4) == (384, 384, 11808, 12960)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_partition_identity(self, n):
        h_c6, h_k23, h_c4, h_geq = h_counts(n)
        assert h_c4 == h_geq - 3 * h_k23
        assert h_c6 + h_k23 + h_c4 == failure_count_formula(6, n).failure_count

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_seventeen_type_sum(self, n):
        table = realization_table(6, n)
        seventeen = sum(v for t, v in table.items() if t not in (IsoType.T4, IsoType.T12))
        assert seventeen == h_counts(n)[2]

    def test_h_c6_counts_c6_containing_specs(self):
        h_c6 = h_counts(4)[0]
        assert h_c6 == 384
        with_c6 = sum(
            1 for rec in enumerate_failures(6, 4) if rec.isotype is IsoType.T12
        )
        assert with_c6 == h_c6


class TestDensityBounds:
    def test_union_bound_tight_for_one_circuit(self):
        count, bound = failure_density_bound(4, 4)
        assert (count, bound) == (144, 144)
        count, bound = failure_density_bound(5, 5)
        assert (count, bound) == (20736, 20736)

    def test_small_k_zero(self):
        for k in (1, 2, 3):
            count, bound = failure_density_bound(k, 6)
            assert count == 0 and count <= bound

    def test_k6_strict(self):
        count, bound = failure_density_bound(6, 5)
        assert count == 342144 and count < bound

    def test_unknown_beyond_catalogue(self):
        count, bound = failure_density_bound(7, 5)
        assert count is None and bound > 0


class TestReports:
    def test_json_shape(self):
        payload = failure_count_formula(4, 4).to_json_dict()
        text = json.dumps(payload, sort_keys=True)
        assert '"failures": 144' in text
        assert payload["by_ratio"] == {"0": 72, "2": 72, "4": 0}
        assert payload["by_value"]["7"] == 72 and payload["by_value"]["zero"] == 72

    def test_csv_row_alignment(self):
        header = CountReport.csv_header()
        row = failure_count_formula(6, 4).to_csv_row()
        assert len(header) == len(row)
        csv_map = dict(zip(header, row))
        assert csv_map["failures"] == 12576
        assert csv_map["ratio4"] == 96
        assert csv_map["t4"] == 384 and csv_map["t12"] == 384

    @pytest.mark.parametrize(
        "k, n",
        [(k, 5) for k in range(4)] + [(5, 3), (6, 3), (6, 2), (4, 2), (5, 6), (6, 6)],
    )
    def test_empty_counts_start_no_pool(self, k, n, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        # The counter runs inline at every size, (5, 6) and (6, 6) included.
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        for workers in (1, 2):
            report = count_failures(k, n, workers=workers)
            classes = (report.by_ratio, report.by_value, report.by_isotype)
            if k < 4:
                assert report.failure_count == 0 and classes == ({}, {}, {})
                continue
            form = failure_count_formula(k, n)
            assert classes == (form.by_ratio, form.by_value, form.by_isotype)
            assert report.to_json_dict() == form.to_json_dict()
            assert report.to_csv_row() == form.to_csv_row()

    def test_worker_determinism(self):
        # Each worker's range of index sets builds its own shape tables.
        # (4, 3) has one index set and (5, 3) none: fewer than the workers.
        for k, n in ((5, 4), (6, 5), (4, 3), (5, 3)):
            single = count_failures(k, n, workers=1)
            for workers in (2, 3):
                multi = count_failures(k, n, workers=workers)
                assert json.dumps(single.to_json_dict(), sort_keys=True) == json.dumps(
                    multi.to_json_dict(), sort_keys=True
                )
                assert (multi.by_ratio, multi.by_value, multi.by_isotype) == (
                    single.by_ratio, single.by_value, single.by_isotype
                )
                # Keys pickled back from the workers are the shared instances.
                for value in multi.by_value:
                    assert value is DyadicProb(value.exponent)
