"""Failure censuses against closed forms, realization tables, relations."""

import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from chio.matrix_core import PartialTernaryMatrix
from chio.measures import DyadicProb, Event, p_chio, p_lcf, ratio_chio_lcf
from chio.signed_graph import IsoType, build_graph, classify_isotype, four_circuits, is_six_circuit
from chio.failure_enum import (
    CountReport,
    _IndexSetContext,
    _holds_circuit,
    _shape,
    check_linear_relations,
    count_failures,
    enumerate_failures,
    failure_count_formula,
    failure_density,
    failure_density_bound,
    grid_positions,
    h_counts,
    realization_count_formula,
    realization_table,
    total_event_count,
    xi,
)


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


class TestShapes:
    @pytest.mark.parametrize("k, n", [(k, 5) for k in range(7)] + [(5, 6)])
    def test_skip_agrees_with_circuit_listing(self, k, n):
        for chosen in combinations(grid_positions(n), k):
            listed = bool(four_circuits(chosen)) or is_six_circuit(chosen)
            assert _holds_circuit(chosen) == listed, chosen

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
            original = _IndexSetContext(n, chosen)
            relabelled = _IndexSetContext(n, shape)
            assert original.circuit_masks == relabelled.circuit_masks
            assert original.six_mask == relabelled.six_mask
            for mask in range(1 << len(chosen)):
                assert original.support_metrics(mask) == relabelled.support_metrics(mask)


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
        assert realization_count_formula(IsoType.T1, 4, 5) == xi(5)
        assert realization_count_formula(IsoType.T2, 5, 4) == 576
        for n in (4, 5, 6):
            from chio.signed_graph import circuit_count_formula

            assert realization_count_formula(IsoType.T12, 6, n) == 64 * circuit_count_formula(6, n, n)

    def test_rejects_unlisted_pairs(self):
        with pytest.raises(ValueError):
            realization_count_formula(IsoType.T1, 5, 4)
        with pytest.raises(ValueError):
            realization_count_formula(IsoType.FOREST, 4, 4)

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


class TestRelations:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_closed_form_relations(self, n):
        assert all(entry["holds"] for entry in check_linear_relations(n))

    @pytest.mark.parametrize("n", [4, 5])
    def test_relations_on_enumerated_counts(self, n):
        enumerated = {
            5: count_failures(5, n, workers=1).by_isotype,
            6: count_failures(6, n, workers=1).by_isotype,
        }
        for entry in check_linear_relations(n, enumerated):
            assert entry["holds"] and entry["holds_enumerated"], entry


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

    def test_density_fraction(self):
        assert failure_density(4, 4) == Fraction(144, total_event_count(4, 4))


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

    def test_worker_determinism(self):
        # Each chunk of the index sets builds its own shape memo.
        for k, n in ((5, 4), (6, 5)):
            single = count_failures(k, n, workers=1)
            multi = count_failures(k, n, workers=2)
            assert json.dumps(single.to_json_dict(), sort_keys=True) == json.dumps(
                multi.to_json_dict(), sort_keys=True
            )
