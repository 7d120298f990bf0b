"""Census engine: preimage counts, rank histograms, checkpoints, determinism."""

import multiprocessing
import os
import zipfile
from collections import Counter
from itertools import permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chio.matrix_core import (
    IntMatrix,
    PartialTernaryMatrix,
    SignMatrix,
    chio_condense,
    det_int,
    rank_int,
)
from chio import census_oracle, signed_graph, verify
from chio.measures import Event, fibre_cardinality
from chio.verify import preimage_support_check
from oracles import condensate_code, decode_condensate
from chio.census_oracle import (
    AGGREGATE_NAMES,
    CHECKPOINT_VERSION,
    BudgetExceeded,
    CensusConfig,
    CensusResult,
    batch_rank,
    binary_rank_counts,
    _condensate_masks,
    kwise_agreement_check,
    load_checkpoint,
    rank_census,
    run_census,
    save_checkpoint,
    singular_count,
    ternary_rank_supp_counts,
)


def _batch_det(mats) -> list[int]:
    """Determinants of an ``(n, k, k)`` batch from the rank kernel."""
    _, det = census_oracle._rank_soa(np.asarray(mats).transpose(1, 2, 0), det=True)
    assert det.dtype == np.int64
    return det.tolist()


def _dets(mats) -> list[int]:
    return [det_int(IntMatrix(np.asarray(a).tolist())) for a in mats]


class TestBatchRank:
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60)
    def test_matches_exact_rank(self, r, c, pm_8x8, data):
        entries = st.integers(-2, 2)
        if pm_8x8:
            # An elimination without exact division roughly squares its
            # intermediates each step; at 8x8 they pass 2^63.
            r, c, entries = 8, 8, st.sampled_from((-1, 1))
        mats = data.draw(
            st.lists(
                st.lists(
                    st.lists(entries, min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                ),
                min_size=1,
                max_size=8,
            )
        )
        got = batch_rank(np.array(mats, dtype=np.int64))
        expected = [rank_int(IntMatrix(m)) for m in mats]
        assert list(got) == expected
        if r == c:
            assert _batch_det(mats) == _dets(mats)

    def test_refuses_bound_past_int64(self):
        # 16x16 +-1: Hadamard bound 16^8 = 2^32, so 2 H^2 = 2^65.
        with pytest.raises(ValueError):
            batch_rank(np.ones((2, 16, 16), dtype=np.int64))

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_tall_and_wide_shapes(self, r, c, data):
        row = st.lists(st.integers(-3, 3), min_size=c, max_size=c)
        mats = data.draw(st.lists(st.lists(row, min_size=r, max_size=r), min_size=1, max_size=12))
        # Each matrix again with a zero column, so that some elimination
        # steps find no pivot; and an all-zero matrix.
        zero_col = data.draw(st.integers(0, c - 1))
        mats += [[[0 if j == zero_col else v for j, v in enumerate(line)] for line in m] for m in mats]
        mats.append([[0] * c for _ in range(r)])
        got = batch_rank(np.array(mats, dtype=np.int64))
        assert list(got) == [rank_int(IntMatrix(m)) for m in mats]

    def test_no_pivot_step_keeps_the_divisor(self):
        # Column 2 has no pivot after the first step; column 3 must still
        # be divided by the first pivot, 2.
        mats = [[[2, 0, 1], [1, 0, 1], [0, 0, 0]]]
        assert list(batch_rank(np.array(mats))) == [2]

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_two_adic_division_is_exact(self, dtype):
        # In the kernel |prev| and |q| are minors below 2^(w/2-1), so
        # x = prev * q fits in w bits.
        w = np.iinfo(dtype).bits
        half = 1 << (w // 2 - 1)
        rng = np.random.default_rng(w)
        e = rng.integers(0, w // 2 - 1, 4000)
        odd = 2 * rng.integers(0, half >> (e + 1)) + 1
        prev = rng.choice([-1, 1], e.size) * (odd << e)
        q = rng.integers(1 - half, half, e.size)
        x = (prev * q).astype(dtype)
        shift, inv = census_oracle._odd_inverse(prev.astype(dtype))
        got = ((x >> shift).view(inv.dtype) * inv).view(dtype)
        assert got.tolist() == q.tolist()

    @pytest.mark.parametrize(
        "r, c, m, dtype",
        [(5, 5, 1, np.int16), (8, 8, 1, np.int32), (6, 6, 3, np.int64), (3, 7, 3, np.int32)],
    )
    def test_each_work_dtype(self, r, c, m, dtype):
        k = min(r, c)
        bound = 2 * m ** (2 * k) * k**k
        narrower = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}[dtype]
        assert np.iinfo(narrower).max < bound <= np.iinfo(dtype).max
        rng = np.random.default_rng(r * c * m)
        values = np.array([-1, 1] if m == 1 else range(-m, m + 1))
        mats = rng.choice(values, size=(400, r, c))
        mats[0, 0, 0] = m
        # Rank-deficient cases with the same entries: a repeated row, a
        # negated column.
        mats[1:100, 1] = mats[1:100, 0]
        mats[100:200, :, 1] = -mats[100:200, :, 0]
        got = batch_rank(mats)
        assert list(got) == [rank_int(IntMatrix(a.tolist())) for a in mats]
        if r == c:
            assert _batch_det(mats) == _dets(mats)

    def test_all_4x4_sign_matrices(self):
        codes = np.arange(1 << 16)
        mats = (2 * ((codes[:, None] >> np.arange(16)) & 1) - 1).reshape(-1, 4, 4)
        got = batch_rank(mats)
        assert list(got) == [rank_int(IntMatrix(a.tolist())) for a in mats]
        assert _batch_det(mats) == _dets(mats)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_scrambled_permutation_matrices(self, k):
        # Every pivot is 1, so the determinant is the sign alone:
        # (-1)^(k - cycles) of the permutation taking row i to column perms[i].
        perms = list(permutations(range(k)))
        mats = np.zeros((len(perms), k, k), dtype=np.int64)
        for m, perm in enumerate(perms):
            mats[m, range(k), perm] = 1
        signs = []
        for perm in perms:
            seen, cycles = set(), 0
            for start in range(k):
                cycles += start not in seen
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
            signs.append((-1) ** (k - cycles))
        assert _batch_det(mats) == signs

    def test_determinant_of_non_square_batch_refused(self):
        with pytest.raises(ValueError, match="3x4"):
            census_oracle._rank_soa(np.ones((3, 4, 2), dtype=np.int8), det=True)

    def test_all_3x3_ternary_matrices(self):
        mats = np.array(list(product((-1, 0, 1), repeat=9))).reshape(-1, 3, 3)
        got = batch_rank(mats)
        assert list(got) == [rank_int(IntMatrix(a.tolist())) for a in mats]

    @pytest.mark.parametrize("n", [4, 5])
    def test_one_odd_inverse_per_division(self, monkeypatch, n):
        # Steps 1 .. n-2 divide; step 0 divides by 1 and step n-1 ends the run.
        calls = []
        real = census_oracle._odd_inverse
        monkeypatch.setattr(
            census_oracle, "_odd_inverse", lambda prev: calls.append(prev.size) or real(prev)
        )
        mats = np.random.default_rng(n).choice([-1, 1], size=(300, n, n))
        got = batch_rank(mats)
        assert calls == [300] * (n - 2)
        assert list(got) == [rank_int(IntMatrix(a.tolist())) for a in mats]


def _cond_pair(n):
    """The sparse ``(cond_codes, cond_counts)`` pair of the n x n census."""
    res = run_census(CensusConfig(dims=(n, n), worker_count=1), aggregates=("cond_counts",))
    return res.cond_codes, res.cond_counts


class TestCondensateCounts:
    def test_n2_frozen_counts(self):
        codes, counts = _cond_pair(2)
        assert codes.tolist() == [0, 1, 2]
        found = dict(zip(codes.tolist(), counts.tolist()))
        values = {
            v: found[condensate_code({(1, 1): v})]
            for v in (-1, 0, 1)
        }
        assert values == {-1: 4, 0: 8, 1: 4}

    def test_n3_counts_match_fibre_formula(self):
        codes, counts = _cond_pair(3)
        assert int(counts.sum()) == 512
        found = dict(zip(codes.tolist(), counts.tolist()))
        for code in range(3**4):
            matrix = PartialTernaryMatrix((3, 3), decode_condensate(code, 3, 3))
            assert found.get(code, 0) == fibre_cardinality(Event.on_full_grid(matrix))

    def test_counts_are_zero_or_powers_of_two(self):
        _, counts = _cond_pair(3)
        for value in counts:
            v = int(value)
            assert v > 0 and (v & (v - 1)) == 0

    def test_code_roundtrip(self):
        entries = {(i, j): ((i + j) % 3 - 1) for i in range(1, 4) for j in range(1, 4)}
        assert decode_condensate(condensate_code(entries), 4, 4) == entries

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            run_census(CensusConfig(dims=(6, 6)), aggregates=("cond_counts",))
        with pytest.raises(BudgetExceeded):
            CensusConfig(dims=(6, 6)).validate()
        with pytest.raises(BudgetExceeded):
            singular_count(6)


def _dense_mismatches(n, codes, counts):
    """Codes, among all 3^((n-1)^2), whose count is not the fibre formula's."""
    found = dict(zip(codes.tolist(), counts.tolist()))
    mismatches = 0
    for code in range(3 ** ((n - 1) ** 2)):
        matrix = PartialTernaryMatrix((n, n), decode_condensate(code, n, n))
        mismatches += found.get(code, 0) != fibre_cardinality(Event.on_full_grid(matrix))
    return mismatches


def _full_support_code(n, minus=()):
    """The code of the condensate that is -1 at the entries ``minus``, +1 elsewhere."""
    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    entries = {p: -1 if p in minus else 1 for p in positions}
    return condensate_code(entries)


class TestPreimageSupportCheck:
    @pytest.mark.parametrize("n", [3, 4])
    def test_masks_match_scalar_decoder(self, n):
        positions = [(i, j) for i in range(1, n) for j in range(1, n)]
        codes = np.arange(3 ** len(positions), dtype=np.int64)
        support, minus = _condensate_masks(codes, n)
        for code in codes.tolist():
            entries = decode_condensate(code, n, n)
            assert support[code] == sum(1 << b for b, p in enumerate(positions) if entries[p])
            assert minus[code] == sum(1 << b for b, p in enumerate(positions) if entries[p] < 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_census_passes(self, n):
        report = preimage_support_check(n, *_cond_pair(n))
        assert report["ok"] and report["total"] == 1 << (n * n)
        assert report["supports"] == 1 << (n - 1) ** 2
        assert report["condensates"] == 3 ** ((n - 1) ** 2)
        assert report["mismatches"] == report["missing_supports"] == 0
        assert report["averaged_mismatches"] == report["forgetting_mismatches"] == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_doubled_count(self, n):
        codes, counts = _cond_pair(n)
        counts = counts.copy()
        counts[codes.size // 2] *= 2
        report = preimage_support_check(n, codes, counts)
        assert not report["ok"] and report["non_power_of_two"] == 0
        assert report["mismatches"] == 1 == _dense_mismatches(n, codes, counts)
        assert report["averaged_mismatches"] == report["forgetting_mismatches"] == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_balanced_code_swapped_for_unbalanced(self, n):
        # All-plus is balanced; one -1 on the full grid closes an odd 4-cycle.
        codes, counts = _cond_pair(n)
        balanced, unbalanced = _full_support_code(n), _full_support_code(n, {(1, 1)})
        assert balanced in codes and unbalanced not in codes
        codes = np.where(codes == balanced, unbalanced, codes)
        order = codes.argsort()
        codes, counts = codes[order], counts[order]
        report = preimage_support_check(n, codes, counts)
        assert not report["ok"]
        assert report["mismatches"] == 2 == _dense_mismatches(n, codes, counts)
        # The support's total is unchanged, so the averaging identity holds.
        assert report["averaged_mismatches"] == report["forgetting_mismatches"] == 0
        assert report["missing_supports"] == 0 and report["total"] == 1 << (n * n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_support_dropped(self, n):
        codes, counts = _cond_pair(n)
        support, _ = _condensate_masks(codes, n)
        keep = support != support[codes.size // 3]
        codes, counts = codes[keep], counts[keep]
        report = preimage_support_check(n, codes, counts)
        assert not report["ok"] and report["missing_supports"] == 1
        assert report["mismatches"] == (~keep).sum() == _dense_mismatches(n, codes, counts)
        assert report["averaged_mismatches"] == report["forgetting_mismatches"] == 1
        assert report["total"] < 1 << (n * n)

    def test_total_off(self):
        codes, counts = _cond_pair(3)
        counts = counts.copy()
        counts[-1] += 1
        report = preimage_support_check(3, codes, counts)
        assert not report["ok"] and report["total"] == 513
        assert report["non_power_of_two"] == 1
        assert report["mismatches"] == 1 == _dense_mismatches(3, codes, counts)

    def test_refuses_malformed_pairs(self):
        codes, counts = _cond_pair(3)
        for bad_codes, bad_counts in (
            (codes[::-1], counts[::-1]),
            (np.concatenate((codes, [3**4])), np.concatenate((counts, [1]))),
            (codes, counts[:-1]),
        ):
            with pytest.raises(ValueError):
                preimage_support_check(3, bad_codes, bad_counts)

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_graph_scan_per_support(self, monkeypatch, n):
        pair = _cond_pair(n)
        scans = []
        scan = signed_graph._scan
        monkeypatch.setattr(signed_graph, "_scan", lambda *a: scans.append(a) or scan(*a))
        signed_graph.support_cycles.cache_clear()
        assert preimage_support_check(n, *pair)["ok"]
        assert len(scans) == 1 << (n - 1) ** 2

    def test_suite_measures_reads_the_3x3_census_once(self, monkeypatch):
        # Its preimage check and its census-level averaging check share one report.
        censuses = []
        real = verify.run_census

        def counting(cfg, aggregates, *args, **kwargs):
            censuses.append((cfg.dims, tuple(aggregates)))
            return real(cfg, aggregates, *args, **kwargs)

        monkeypatch.setattr(verify, "run_census", counting)
        checks = {c["check"]: c for c in verify.suite_measures(workers=1)}
        assert censuses.count(((3, 3), ("cond_counts",))) == 1
        assert checks["census preimages == fibre formula n=3"]["ok"]
        assert checks["averaging and sign-forgetting vs census counts, n=3"]["ok"]

    def test_does_not_need_bitwise_count(self, monkeypatch):
        # numpy >= 1.24 is supported; np.bitwise_count only came in 2.0.
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert preimage_support_check(3, *_cond_pair(3))["ok"]
        res = run_census(CensusConfig(dims=(3, 4), worker_count=1), aggregates=AGGREGATE_NAMES)
        _assert_matches(res, _masked_reference((3, 4), {}))


class TestRankCensus:
    def test_two_by_two(self):
        rc = rank_census(2, 2, workers=1)
        assert rc.pm_rank_counts == [0, 8, 8]
        assert rc.condensate_rank_counts == [8, 8]
        assert rc.binary_rank_counts == [1, 1]
        assert rc.verify()["all_ok"]

    def test_three_by_three(self):
        rc = rank_census(3, 3, workers=1)
        assert rc.pm_rank_counts == [0, 32, 288, 192]
        assert rc.verify()["all_ok"]

    def test_rectangular(self):
        rc = rank_census(3, 4, workers=1)
        assert sum(rc.pm_rank_counts) == 1 << 12
        assert rc.verify()["all_ok"]

    def test_rank_drop_violations_zero(self):
        for dims in ((2, 3), (3, 3), (4, 3)):
            res = run_census(
                CensusConfig(dims=dims, worker_count=1),
                aggregates=("rank_drop_violations",),
            )
            assert res.rank_drop_violations == 0


class TestSingular:
    def test_frozen_counts(self):
        assert singular_count(2, workers=1).singular_count == 8
        assert singular_count(3, workers=1).singular_count == 320

    def test_factorization_identity(self):
        for n in (2, 3, 4):
            rep = singular_count(n, workers=1)
            binary_singular = int(binary_rank_counts(n - 1, n - 1)[: n - 1].sum())
            assert rep.singular_count == binary_singular << (2 * n - 1)
            assert rep.q4_left == binary_singular

    def test_q4_right_side_positive(self):
        rep = singular_count(3, workers=1)
        assert rep.q4_right > 0

    def test_ternary_joint_counts_partition(self):
        joint = ternary_rank_supp_counts(2, 2)
        assert int(joint.sum()) == 81


class TestRankHistograms:
    @pytest.mark.parametrize("rows, cols, tile", [(3, 4, 7), (4, 4, 4093)])
    def test_binary_counts_in_small_chunks(self, monkeypatch, rows, cols, tile):
        cells = rows * cols
        ranks = [
            rank_int(IntMatrix([[(code >> (i * cols + j)) & 1 for j in range(cols)] for i in range(rows)]))
            for code in range(1 << cells)
        ]
        expected = np.bincount(ranks, minlength=min(rows, cols) + 1).tolist()
        assert binary_rank_counts(rows, cols).tolist() == expected
        monkeypatch.setattr(census_oracle, "_TILE", tile)
        assert binary_rank_counts(rows, cols).tolist() == expected

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2), (3, 3)])
    def test_ternary_joint_matches_scalar_rank(self, monkeypatch, rows, cols):
        cells = rows * cols
        expected = np.zeros((min(rows, cols) + 1, cells + 1), dtype=np.int64)
        for values in product((-1, 0, 1), repeat=cells):
            matrix = IntMatrix([list(values[i * cols : (i + 1) * cols]) for i in range(rows)])
            expected[rank_int(matrix), sum(v != 0 for v in values)] += 1
        assert ternary_rank_supp_counts(rows, cols).tolist() == expected.tolist()
        monkeypatch.setattr(census_oracle, "_TILE", 50)
        assert ternary_rank_supp_counts(rows, cols).tolist() == expected.tolist()

    @pytest.mark.parametrize("rows, cols", [(3, 3), (3, 4)])
    def test_ternary_support_columns(self, rows, cols):
        # Summed over rank, support s counts C(cells, s) positions times 2^s signs.
        cells = rows * cols
        joint = ternary_rank_supp_counts(rows, cols)
        assert joint.sum(axis=0).tolist() == [comb(cells, s) << s for s in range(cells + 1)]


class TestKwise:
    def test_n3_all_ok(self):
        report = kwise_agreement_check(3, workers=1)
        assert report["all_ok"]
        assert all(e["disagreements"] == 0 for e in report["per_k"] if e["k"] <= 3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            kwise_agreement_check(5)


class TestChioIdentity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_check_passes(self, n):
        check = verify.chio_identity_exhaustive(n, workers=1)
        assert check["ok"] and check["matrices"] == 1 << (n * n) and check["mismatches"] == 0

    def test_corrupted_determinant_is_caught(self, monkeypatch):
        real = census_oracle._rank_soa

        def off_by_one(entries, det=False):
            if not det:
                return real(entries)
            rank, d = real(entries, det=True)
            return rank, d + 1

        monkeypatch.setattr(census_oracle, "_rank_soa", off_by_one)
        # 8 det C = det A at n = 4, so 8 (det C + 1) != det A + 1 on every matrix.
        check = verify.chio_identity_exhaustive(4, workers=1)
        assert not check["ok"] and check["mismatches"] == 1 << 16
        # Tiles cover a chunk's range exactly.
        monkeypatch.setattr(census_oracle, "_TILE", 333)
        assert census_oracle.chio_identity_chunk((4, 100, 5000)) == 4900


class TestTiles:
    @pytest.mark.parametrize("tile", [7, 100, 333, 1 << 15])
    def test_tiles_cover_the_range_within_blocks(self, monkeypatch, tile):
        monkeypatch.setattr(census_oracle, "_TILE", tile)
        block = 1 << 15
        ranges = [(0, 1), (5, 5), (3, 1000), (block - 10, block + 10), (12345, 4 * block + 77)]
        for start, stop in ranges:
            at = start
            for first, n in census_oracle._tiles(start, stop):
                assert first == at and 1 <= n <= tile
                assert first // block == (first + n - 1) // block
                at = first + n
            assert at == stop

    @pytest.mark.parametrize("tile", [7, 100])
    @pytest.mark.parametrize("filters", [None, {(1, 2): -1, (3, 3): 1}])
    @pytest.mark.parametrize("dims", [(3, 4), (4, 4)])
    def test_tiles_leave_results_unchanged(self, monkeypatch, tile, filters, dims):
        def census(chunk_size):
            cfg = CensusConfig(dims=dims, worker_count=1, chunk_size=chunk_size, filters=filters)
            return run_census(cfg, aggregates=AGGREGATE_NAMES)

        # One chunk, and tiles as long as the 2^15-code blocks allow.
        monkeypatch.setattr(census_oracle, "_TILE", 1 << 30)
        whole = census(1 << 16)
        monkeypatch.setattr(census_oracle, "_TILE", tile)
        # Chunks of several tiles and a remainder and, at 3x4, of a tile and a bit.
        for chunk_size in (1003, tile + 3) if dims == (3, 4) else (1003,):
            tiled = census(chunk_size)
            assert tiled.to_json_dict() == whole.to_json_dict()
            assert tiled.cond_codes.tobytes() == whole.cond_codes.tobytes()
            assert tiled.cond_counts.tobytes() == whole.cond_counts.tobytes()

    def test_chunk_pieces_are_sorted_tiles(self, monkeypatch):
        monkeypatch.setattr(census_oracle, "_TILE", 100)
        maps = []
        real = census_oracle._mapped
        monkeypatch.setattr(census_oracle, "_mapped", lambda *a: maps.append(a) or real(*a))
        out = census_oracle._chunk_task((3, 4, 0, 1024, ("cond_counts",), {(2, 2): 1}))
        assert out["visited"] == 512
        pieces = out["cond_counts"]
        assert [int(counts.sum()) for _, counts in pieces] == [100] * 5 + [12]
        assert all((np.diff(codes) > 0).all() for codes, _ in pieces)
        # Every piece is an int64 view into one of the chunk's two maps.
        assert maps == [(512, np.int64)] * 2
        assert all(c.dtype == n.dtype == np.int64 for c, n in pieces)
        assert all(c.base is not None and n.base is not None for c, n in pieces)

    def test_batches_fit_a_tile(self, monkeypatch):
        sizes = []
        real = census_oracle._rank_soa
        monkeypatch.setattr(
            census_oracle, "_rank_soa", lambda e: sizes.append(e.shape[-1]) or real(e)
        )
        cfg = CensusConfig(dims=(4, 5), worker_count=1)
        res = run_census(cfg, aggregates=("rank_pm", "rank_cond"))
        assert res.visited == 1 << 20 and sum(res.rank_pm) == 1 << 20
        assert max(sizes) == census_oracle._TILE
        assert sum(sizes) == 2 << 20


def _sign_matrix(code, s, t):
    """The s x t sign matrix of a census code (bit (i-1)t + (j-1) set: entry +1)."""
    rows = [[1 if code >> (i * t + j) & 1 else -1 for j in range(t)] for i in range(s)]
    return SignMatrix.from_rows(rows)


class TestKernels:
    def test_popcount_matches_bit_count(self):
        rng = np.random.default_rng(3)
        words = [0, (1 << 64) - 1] + [1 << b for b in range(64)]
        words += rng.integers(0, 1 << 64, size=1000, dtype=np.uint64, endpoint=False).tolist()
        got = census_oracle._popcount64(np.array(words, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [int(w).bit_count() for w in words]

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 1000])
    def test_edge_pairs_match_matrix_product(self, size):
        # Tiles around one 64-code word, and one of many words and a remainder.
        # Just enough free code bits for the tile, at random places, and the
        # others fixed at random, so that every free bit varies in the tile.
        rng = np.random.default_rng(size)
        width = (size - 1).bit_length()
        free = rng.choice(25, size=width, replace=False).tolist()
        mask = sum(1 << b for b in range(25) if b not in free)
        value = int(rng.integers(0, 1 << 25)) & mask
        runs = census_oracle._free_runs(25, mask)
        first = int(rng.integers(0, (1 << width) - size + 1))
        codes = np.array([census_oracle._deposit(x, runs, value) for x in range(first, first + size)])
        got = census_oracle._tile_aggregates(5, 5, first, size, runs, value, ("edge_pairs",))
        got = got["edge_pairs"]
        positions = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        nz = np.array(
            [
                [chio_condense(_sign_matrix(code, 5, 5))[p] != 0 for p in positions]
                for code in codes.tolist()
            ],
            dtype=np.int64,
        )
        assert got.dtype == np.int64
        assert got.tolist() == (nz.T @ nz).tolist()

    def test_int32_codes_of_a_5x5_slice(self):
        # All but eight inner entries fixed to a matrix whose condensate is +1
        # everywhere, code 3^16 - 1: the top of the int32 code range.
        top = {(i, j): 1 for i in range(1, 6) for j in range(1, 6)}
        top.update({(5, j): -1 for j in range(1, 5)})
        free = {(1, 1), (1, 3), (2, 2), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)}
        filters = {p: v for p, v in top.items() if p not in free}
        cfg = CensusConfig(dims=(5, 5), worker_count=1, chunk_size=1 << 12, filters=filters)
        res = run_census(cfg, aggregates=("cond_counts",))
        mask, value = census_oracle._fixed_bits(filters, 5)
        brute = Counter(
            condensate_code(chio_condense(_sign_matrix(code, 5, 5)).entries)
            for code in _admissible(mask, value, 25)
        )
        assert res.visited == 256 and sum(brute.values()) == 256
        assert res.cond_codes.dtype == res.cond_counts.dtype == np.int64
        assert dict(zip(res.cond_codes.tolist(), res.cond_counts.tolist())) == brute
        assert res.cond_codes[-1] == 3**16 - 1

    def test_codes_past_int32_refused(self):
        # A 5x6 condensate has 20 entries, and 3^20 > 2^31.
        runs = census_oracle._free_runs(30, 0)
        with pytest.raises(ValueError, match="int32"):
            census_oracle._tile_aggregates(5, 6, 0, 4, runs, 0, ("cond_counts",))


def _decode_bit_by_bit(s, t, first, n, runs, value):
    """``(entries, half condensates)`` of the codes ``_deposit(x)``, x in
    ``first .. first + n - 1``, read one code bit at a time, as nested lists
    indexed ``[i][j][k]`` for the k-th code."""
    codes = [census_oracle._deposit(x, runs, value) for x in range(first, first + n)]
    entries = [
        [[1 if code >> (i * t + j) & 1 else -1 for code in codes] for j in range(t)]
        for i in range(s)
    ]
    half = [
        [
            [
                (entries[i][j][k] * entries[-1][-1][k] - entries[i][-1][k] * entries[-1][j][k]) // 2
                for k in range(n)
            ]
            for j in range(t - 1)
        ]
        for i in range(s - 1)
    ]
    return entries, half


class TestDecode:
    @staticmethod
    def _check(dims, filters, first, n):
        s, t = dims
        mask, value = census_oracle._fixed_bits(filters, t)
        runs = census_oracle._free_runs(s * t, mask)
        entries, half = census_oracle._decode(s, t, first, n, runs, value)
        want_entries, want_half = _decode_bit_by_bit(s, t, first, n, runs, value)
        assert entries.dtype == half.dtype == np.int8
        assert entries.shape == (s, t, n) and half.shape == (s - 1, t - 1, n)
        assert all(entries[i, j].flags.c_contiguous for i in range(s) for j in range(t))
        assert entries.tolist() == want_entries
        assert half.tolist() == want_half

    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (5, 5)])
    def test_unfiltered(self, dims):
        s, t = dims
        top = 1 << (s * t)
        # The first block, one with a nonzero offset, and the last code.
        for first, n in ((0, min(top, 3000)), (min(top, 1 << 15) // 3, 500), (top - 1, 1)):
            self._check(dims, None, first, n)

    @pytest.mark.parametrize(
        "filters",
        [
            {(1, 1): 1},
            {(5, 5): -1, (2, 3): 1},
            {(1, j): (-1) ** j for j in range(1, 6)},
            {(i, 3): 1 for i in range(1, 6)} | {(4, 4): -1, (5, 1): -1},
        ],
    )
    def test_filtered(self, filters):
        # x keeps at least 18 free bits, so blocks past the first have high bits.
        for block in (0, 1, 5):
            self._check((5, 5), filters, (block << 15) + 777, 1500)

    def test_every_bit_fixed(self):
        filters = {(i, j): 1 if (i * j) % 3 else -1 for i in range(1, 4) for j in range(1, 5)}
        mask, _ = census_oracle._fixed_bits(filters, 4)
        assert census_oracle._free_runs(12, mask) == []
        self._check((3, 4), filters, 0, 1)

    def test_offset_and_high_bits(self):
        # A tile at offset 12,345 of block 0b101_0110, and tiles next to it.
        for first in (86 << 15, (86 << 15) + 12345, (86 << 15) + 12346):
            self._check((5, 5), None, first, 2000)
        self._check((5, 5), {(1, 2): -1, (3, 3): 1}, (86 << 15) + 12345, 2000)

    def test_tile_ending_on_a_block_edge(self):
        self._check((5, 5), None, (3 << 15) - 700, 700)
        self._check((4, 5), {(2, 2): 1}, (1 << 15) - 1, 1)

    def test_tile_crossing_a_block_refused(self):
        runs = census_oracle._free_runs(25, 0)
        with pytest.raises(ValueError, match="block"):
            census_oracle._decode(5, 5, (1 << 15) - 5, 10, runs, 0)
        with pytest.raises(ValueError, match="block"):
            census_oracle._decode(5, 5, 0, (1 << 15) + 1, runs, 0)

    def test_bit_table_is_built_once_and_read_only(self):
        table = census_oracle._bit_table()
        assert table is census_oracle._bit_table()
        assert table.dtype == np.int8 and table.shape == (8, 256)
        assert not table.flags.writeable
        y = np.arange(256)
        assert (table == np.where((y >> np.arange(8)[:, None]) & 1, 1, -1)).all()


def _admissible(mask, value, bits):
    """Every code of ``bits`` bits that reads ``value`` on the bits of ``mask``."""
    free = [b for b in range(bits) if not mask >> b & 1]
    for x in range(1 << len(free)):
        yield value | sum(1 << b for k, b in enumerate(free) if x >> k & 1)


def _brute_counts(*pieces):
    total = Counter()
    for codes, counts in pieces:
        total.update(dict(zip(codes.tolist(), counts.tolist())))
    return dict(total)


class TestSettle:
    @staticmethod
    def _settle(monkeypatch, merged, pieces):
        """Settle ``pieces`` into a copy of the ``merged`` pair; return the
        result, its arrays before the settle, and the ``_mapped`` calls."""
        maps = []
        real = census_oracle._mapped
        monkeypatch.setattr(census_oracle, "_mapped", lambda *a: maps.append(a) or real(*a))
        res = CensusResult(dims=(4, 4), cond_codes=merged[0].copy(), cond_counts=merged[1].copy())
        res.merge_chunk({"visited": 0, "cond_counts": pieces})
        before = res.cond_codes, res.cond_counts
        res.settle()
        assert res._pending == [] and res._pending_size == 0
        assert dict(zip(res.cond_codes.tolist(), res.cond_counts.tolist())) == _brute_counts(
            merged, *pieces
        )
        return res, before, maps

    @staticmethod
    def _pair(rng, codes, size):
        """``size`` of ``codes``, sorted, with random counts."""
        picked = np.sort(rng.choice(codes, size=size, replace=False)).astype(np.int64)
        return picked, rng.integers(1, 9, size, dtype=np.int64)

    def test_all_present_adds_in_place(self, monkeypatch):
        rng = np.random.default_rng(5)
        merged = self._pair(rng, 3**9, 500)
        pieces = [self._pair(rng, merged[0], 100) for _ in range(3)]
        res, before, maps = self._settle(monkeypatch, merged, pieces)
        assert res.cond_codes is before[0] and res.cond_counts is before[1]
        assert maps == []

    def test_new_code_falls_back_to_merge(self, monkeypatch):
        rng = np.random.default_rng(6)
        merged = self._pair(rng, 3**9, 500)
        new = np.setdiff1d(np.arange(3**9), merged[0])[[0, 7, -1]]
        mixed = self._pair(rng, np.concatenate((merged[0][:50], new)), 53)
        pieces = [self._pair(rng, merged[0], 100), mixed, self._pair(rng, merged[0], 100)]
        res, before, maps = self._settle(monkeypatch, merged, pieces)
        assert res.cond_codes is not before[0] and len(maps) == 2
        assert res.cond_codes.size == 503 and (np.diff(res.cond_codes) > 0).all()


class TestEngine:
    def test_partition_and_determinism(self):
        reference = None
        for workers in (1, 2, 8):
            # 16 chunks, so that 2 and 8 workers run in a pool.
            res = run_census(
                CensusConfig(dims=(3, 3), worker_count=workers, chunk_size=32),
                aggregates=("rank_pm", "rank_cond", "cond_counts"),
            )
            assert res.visited == 512
            assert int(res.cond_counts.sum()) == 512
            key = (
                tuple(int(v) for v in res.rank_pm),
                tuple(int(v) for v in res.rank_cond),
                res.cond_counts.tobytes(),
            )
            if reference is None:
                reference = key
            assert key == reference

    def test_determinism_check_starts_pools(self, monkeypatch):
        real = multiprocessing.Pool
        started = []

        def counting(**kwargs):
            started.append(kwargs["processes"])
            return real(**kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", counting)
        for dims in ((3, 3), (4, 4)):
            started.clear()
            assert verify.census_determinism(dims)["ok"]
            assert started == [2, 8]

    def test_determinism_check_fails_without_a_pool(self, monkeypatch):
        def refuse(**kwargs):
            raise RuntimeError("no pool")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        for dims in ((3, 3), (4, 4)):
            with pytest.raises(RuntimeError, match="no pool"):
                verify.census_determinism(dims)

    def test_chunk_size_invariance(self):
        a = run_census(
            CensusConfig(dims=(3, 3), worker_count=1, chunk_size=64),
            aggregates=("cond_counts",),
        )
        b = run_census(
            CensusConfig(dims=(3, 3), worker_count=1, chunk_size=512),
            aggregates=("cond_counts",),
        )
        assert a.cond_counts.tobytes() == b.cond_counts.tobytes()

    def test_entry_filter(self):
        res = run_census(
            CensusConfig(dims=(3, 3), worker_count=1, filters={(1, 1): 1}),
            aggregates=("rank_pm",),
        )
        assert res.visited == 256

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            run_census(CensusConfig(dims=(2, 2)), aggregates=("bogus",))

    @pytest.mark.parametrize("flush_every", [0, -1])
    def test_flush_every_refused(self, flush_every):
        # The cadence is a module constant of 4 chunks, not a setting.
        with pytest.raises(TypeError, match="flush_every"):
            CensusConfig(dims=(3, 3), flush_every=flush_every)


class TestCheckpoints:
    def test_roundtrip_and_resume(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        # Saves after 128, 256, 384 and 512 codes: every 4 chunks of 32.
        cfg = CensusConfig(dims=(3, 3), worker_count=1, chunk_size=32, checkpoint_path=path)
        full = run_census(cfg, aggregates=("rank_pm", "cond_counts"))
        assert os.path.exists(path)
        loaded, next_chunk = load_checkpoint(path, cfg)
        assert next_chunk == 16 and loaded.visited == 512
        assert list(loaded.rank_pm) == list(full.rank_pm)
        resumed = run_census(cfg, aggregates=("rank_pm", "cond_counts"), resume=True)
        assert resumed.cond_counts.tobytes() == full.cond_counts.tobytes()

    def test_chunk_size_past_int64_refused(self, tmp_path):
        # The header stores the chunk size as int64: the largest one round-trips.
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(dims=(3, 3), worker_count=1, chunk_size=(1 << 63) - 1, checkpoint_path=path)
        full = run_census(cfg, aggregates=("rank_pm",))
        assert load_checkpoint(path, cfg)[0].rank_pm.tolist() == full.rank_pm.tolist()
        os.remove(path)
        for chunk_size in (1 << 63, 10**20, 0):
            with pytest.raises(ValueError, match="chunk_size"):
                run_census(
                    CensusConfig(dims=(3, 3), chunk_size=chunk_size, checkpoint_path=path),
                    aggregates=("rank_pm",),
                )
        assert os.listdir(tmp_path) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACHECKPOINT")
        with pytest.raises(ValueError):
            load_checkpoint(str(path), CensusConfig(dims=(3, 3)))

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=path)
        run_census(cfg, aggregates=("rank_pm", "cond_counts"))
        with open(path, "rb") as fh:
            raw = fh.read()
        for size in (40, len(raw) // 2, len(raw) - 1):
            with open(path, "wb") as fh:
                fh.write(raw[:size])
            with pytest.raises(ValueError):
                load_checkpoint(path, cfg)

    def test_mismatched_dims_rejected(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=path)
        run_census(cfg, aggregates=("rank_pm",))
        with pytest.raises(ValueError):
            load_checkpoint(path, CensusConfig(dims=(4, 4), worker_count=1))


def _masked_reference(dims, filters):
    """Every aggregate of the filtered census, from a mask over all codes."""
    s, t = dims
    m = (s - 1) * (t - 1)
    codes = np.arange(1 << (s * t), dtype=np.int64)
    for (i, j), sign in filters.items():
        codes = codes[((codes >> ((i - 1) * t + j - 1)) & 1) == (sign == 1)]
    a = (2 * ((codes[:, None] >> np.arange(s * t)) & 1) - 1).reshape(-1, s, t)
    cond = (a[:, :-1, :-1] * a[:, -1:, -1:] - a[:, :-1, -1:] * a[:, -1:, :-1]) // 2
    flat = cond.reshape(-1, m)
    dense = np.bincount((flat + 1) @ 3 ** np.arange(m), minlength=3**m)
    rank_pm = batch_rank(a)
    rank_cond = batch_rank(cond)
    nz = (flat != 0).astype(np.int64)
    return {
        "visited": int(codes.size),
        "rank_pm": np.bincount(rank_pm, minlength=min(s, t) + 1),
        "rank_cond": np.bincount(rank_cond, minlength=min(s - 1, t - 1) + 1),
        "dense": dense,
        "edge_pairs": nz.T @ nz,
        "rank_drop_violations": int((rank_pm != rank_cond + 1).sum()),
    }


def _random_filters(rng, dims, size, high_only=False):
    s, t = dims
    cells = [(i, j) for i in range(1, s + 1) for j in range(1, t + 1)]
    if high_only:
        cells = cells[-t:]
    picks = rng.choice(len(cells), size=min(size, len(cells)), replace=False)
    return {cells[p]: int(rng.choice((-1, 1))) for p in picks}


def _assert_matches(res, ref):
    assert res.visited == ref["visited"]
    assert list(res.rank_pm) == list(ref["rank_pm"])
    assert list(res.rank_cond) == list(ref["rank_cond"])
    assert res.rank_drop_violations == ref["rank_drop_violations"] == 0
    assert res.edge_pairs.tolist() == ref["edge_pairs"].tolist()
    dense = ref["dense"]
    assert list(res.cond_codes) == list(np.flatnonzero(dense))
    assert list(res.cond_counts) == list(dense[res.cond_codes])


class TestDirectEnumeration:
    @pytest.mark.parametrize("dims", [(3, 3), (3, 4), (4, 4)])
    def test_filters_and_chunk_sizes_match_mask_scan(self, dims):
        rng = np.random.default_rng(sum(dims))
        cases = [
            {},
            _random_filters(rng, dims, 2),
            _random_filters(rng, dims, 5),
            # Fixed bits above the chunk size leave whole chunks empty.
            _random_filters(rng, dims, 2, high_only=True),
        ]
        for filters in cases:
            ref = _masked_reference(dims, filters)
            for chunk_size in (1, 7, 64, 512):
                if ref["visited"] > 2048 * chunk_size:
                    continue  # over 2^11 nonempty chunks: too slow for a unit test
                res = run_census(
                    CensusConfig(dims=dims, worker_count=1, chunk_size=chunk_size, filters=filters),
                    aggregates=AGGREGATE_NAMES,
                )
                _assert_matches(res, ref)

    def test_empty_chunks_get_no_task(self, monkeypatch):
        dims = (4, 4)
        filters = _random_filters(np.random.default_rng(11), dims, 5)
        ref = _masked_reference(dims, filters)
        starts = []
        real = census_oracle._chunk_task
        monkeypatch.setattr(
            census_oracle, "_chunk_task", lambda args: starts.append(args[2]) or real(args)
        )
        res = run_census(
            CensusConfig(dims=dims, worker_count=1, chunk_size=1, filters=filters),
            aggregates=AGGREGATE_NAMES,
        )
        # One task per admissible code: 2,048 of the 65,536 chunks.
        mask, value = census_oracle._fixed_bits(filters, dims[1])
        assert ref["visited"] == 2048 and len(starts) == 2048
        assert all(code & mask == value for code in starts)
        _assert_matches(res, ref)

    def test_checkpoints_across_empty_chunks(self, tmp_path, monkeypatch):
        # Row 2 fixed: one chunk of 16 codes in every 16 holds admissible codes.
        dims = (4, 4)
        filters = {(2, j): 1 for j in range(1, 5)}
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(
            dims=dims, worker_count=1, chunk_size=16, filters=filters, checkpoint_path=path
        )
        saves = []
        real = census_oracle.save_checkpoint

        def save(p, c, result, next_chunk):
            real(p, c, result, next_chunk)
            saves.append(next_chunk)
            if next_chunk == 256:
                os.replace(p, p + ".mid")

        monkeypatch.setattr(census_oracle, "save_checkpoint", save)
        full = run_census(cfg, aggregates=AGGREGATE_NAMES)
        _assert_matches(full, _masked_reference(dims, filters))
        # A flush each time the run passes a multiple of 4 chunks with a task.
        assert saves == list(range(16, 4097, 16))
        os.replace(path + ".mid", path)
        head, next_chunk = load_checkpoint(path, cfg)
        assert next_chunk == 256 and head.visited == 16 * 16
        resumed = run_census(cfg, aggregates=AGGREGATE_NAMES, resume=True)
        assert resumed.to_json_dict() == full.to_json_dict()
        assert resumed.cond_codes.tolist() == full.cond_codes.tolist()
        assert resumed.cond_counts.tolist() == full.cond_counts.tolist()

    def test_every_entry_fixed(self):
        filters = {(i, j): 1 if (i + j) % 2 else -1 for i in range(1, 4) for j in range(1, 4)}
        res = run_census(
            CensusConfig(dims=(3, 3), worker_count=1, chunk_size=7, filters=filters),
            aggregates=AGGREGATE_NAMES,
        )
        _assert_matches(res, _masked_reference((3, 3), filters))

    def test_bad_filters_refused(self):
        for filters in ({(4, 1): 1}, {(1, 0): -1}, {(1, 1): 0}):
            with pytest.raises(ValueError):
                run_census(CensusConfig(dims=(3, 3), filters=filters), aggregates=("rank_pm",))

    def test_sparse_counts_match_dense(self):
        ref = _masked_reference((4, 4), {})
        res = run_census(
            CensusConfig(dims=(4, 4), worker_count=1, chunk_size=1000),
            aggregates=("cond_counts",),
        )
        assert res.cond_codes.dtype == np.int64 and res.cond_counts.dtype == np.int64
        assert (np.diff(res.cond_codes) > 0).all()
        assert list(res.cond_codes) == list(np.flatnonzero(ref["dense"]))
        assert list(res.cond_counts) == list(ref["dense"][res.cond_codes])
        dense = np.zeros(3**9, dtype=np.int64)
        dense[res.cond_codes] = res.cond_counts
        assert dense.tolist() == ref["dense"].tolist()

    @pytest.mark.parametrize("merge_slice", [1, 5, 64])
    def test_merge_cuts_keep_counts(self, monkeypatch, merge_slice):
        # Small slices cut every merge into many stretches.
        ref = _masked_reference((3, 4), {(2, 2): -1})
        monkeypatch.setattr(census_oracle, "_MERGE_SLICE", merge_slice)
        res = run_census(
            CensusConfig(dims=(3, 4), worker_count=1, chunk_size=300, filters={(2, 2): -1}),
            aggregates=("cond_counts",),
        )
        assert res.visited == ref["visited"]
        assert list(res.cond_codes) == list(np.flatnonzero(ref["dense"]))
        assert list(res.cond_counts) == list(ref["dense"][res.cond_codes])


def _header(cfg, version=CHECKPOINT_VERSION, next_chunk=1, held=AGGREGATE_NAMES):
    """The int64 checkpoint header of ``cfg``'s census holding ``held``, before ``next_chunk``."""
    s, t = cfg.dims
    mask, value = census_oracle._fixed_bits(cfg.filters, t)
    bits = sum(1 << AGGREGATE_NAMES.index(name) for name in held)
    return np.array([version, s, t, cfg.chunk_size, next_chunk, mask, value, bits], dtype=np.int64)


def _write_archive(path, **members):
    with open(path, "wb") as fh:
        np.savez(fh, **members)


class _Crash(Exception):
    pass


class TestCheckpointV2:
    def _crash_after(self, monkeypatch, n):
        """Make the next census stop, as if killed, after ``n`` chunks."""
        import chio.census_oracle as co

        real = co.parallel.run_tasks_iter

        def stopping(fn, tasks, workers):
            for k, out in enumerate(real(fn, tasks, workers)):
                if k == n:
                    raise _Crash
                yield out

        monkeypatch.setattr(co.parallel, "run_tasks_iter", stopping)

    def test_resume_cond_counts_mid_run(self, tmp_path, monkeypatch):
        path = str(tmp_path / "census.ckpt")
        # Saves every 4 chunks of 175 codes, at codes 700, 1400, ...; the
        # crash after 17 chunks (2975 codes) leaves the save at 2800.
        cfg = CensusConfig(
            dims=(3, 4), worker_count=1, chunk_size=175, checkpoint_path=path,
            filters={(2, 3): -1},
        )
        full = run_census(CensusConfig(dims=(3, 4), worker_count=1, filters={(2, 3): -1}),
                          aggregates=AGGREGATE_NAMES)
        self._crash_after(monkeypatch, 17)
        with pytest.raises(_Crash):
            run_census(cfg, aggregates=AGGREGATE_NAMES)
        monkeypatch.undo()
        head, next_chunk = load_checkpoint(path, cfg)
        assert next_chunk == 16 and 0 < head.visited < full.visited
        resumed = run_census(cfg, aggregates=AGGREGATE_NAMES, resume=True)
        assert resumed.to_json_dict() == full.to_json_dict()
        assert resumed.cond_codes.tobytes() == full.cond_codes.tobytes()
        assert resumed.cond_counts.tobytes() == full.cond_counts.tobytes()

    def test_v1_file_refused(self, tmp_path):
        path = tmp_path / "old.ckpt"
        cfg = CensusConfig(dims=(3, 3))
        # The byte format of versions 1 and 2: magic, then a u32 version.
        for version in (1, 2):
            path.write_bytes(b"CHIOCENS\0" + version.to_bytes(4, "little") + bytes(64))
            with pytest.raises(ValueError, match="corrupt census checkpoint"):
                load_checkpoint(str(path), cfg)
        for version in (1, 2, CHECKPOINT_VERSION + 1):
            _write_archive(path, header=_header(cfg, version=version), visited=np.int64(512))
            with pytest.raises(ValueError, match=f"version {version}"):
                load_checkpoint(str(path), cfg)
        # Version 3 headers had seven fields, without the aggregate mask.
        _write_archive(path, header=_header(cfg, version=3)[:7], visited=np.int64(512))
        with pytest.raises(ValueError, match="version 3"):
            load_checkpoint(str(path), cfg)

    def test_filter_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        sliced = CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=path, filters={(1, 1): 1})
        assert run_census(sliced, aggregates=("rank_pm",)).visited == 256
        for filters in (None, {(1, 1): -1}, {(1, 1): 1, (2, 2): 1}):
            cfg = CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=path, filters=filters)
            with pytest.raises(ValueError, match="filters"):
                run_census(cfg, aggregates=("rank_pm",), resume=True)
        assert run_census(sliced, aggregates=("rank_pm",), resume=True).visited == 256

    def test_aggregate_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=path)
        run_census(cfg, aggregates=("rank_pm",))
        for aggregates in (("rank_pm", "rank_cond"), ("rank_cond",), ("cond_counts",)):
            with pytest.raises(ValueError, match="aggregates"):
                run_census(cfg, aggregates=aggregates, resume=True)
        assert run_census(cfg, aggregates=("rank_pm",), resume=True).visited == 512

    def test_tampered_entries_refused(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=path)
        good = run_census(cfg, aggregates=AGGREGATE_NAMES)
        entries = {name: np.asarray(getattr(good, name)) for name in census_oracle._ENTRIES}

        def load(replace):
            members = {"header": _header(cfg), **entries, **replace}
            _write_archive(path, **{k: v for k, v in members.items() if v is not None})
            return run_census(cfg, aggregates=AGGREGATE_NAMES, resume=True)

        loaded = load({})
        assert loaded.to_json_dict() == good.to_json_dict()
        assert loaded.cond_codes.tolist() == good.cond_codes.tolist()
        codes = good.cond_codes
        tampered = [
            {"rank_pm": np.zeros(8, dtype=np.int64)},
            {"rank_cond": np.zeros((3, 1), dtype=np.int64)},
            {"rank_drop_violations": np.zeros(1, np.int64)},
            {"visited": np.array([512, 0])},
            {"edge_pairs": np.zeros((4, 3), dtype=np.int64)},
            {"edge_pairs": np.zeros(16, dtype=np.int64)},
            {"cond_counts": good.cond_counts[1:]},
            {"cond_codes": codes[::-1]},
            {"cond_codes": np.r_[codes[:-1], 3**4]},
            {"cond_codes": np.r_[codes[:1], codes[:-1]]},
            {"cond_codes": np.r_[-1, codes[1:]]},
            {"edge_pairs": None},
            {"cond_counts": None},
            {"cond_codes": None, "cond_counts": None},
            {"visited": None},
            {"header": None},
            {"header": _header(cfg)[:6]},
            {"header": _header(cfg)[:7]},
            {"header": np.r_[_header(cfg), 0]},
            {"header": _header(cfg, held=AGGREGATE_NAMES[1:])},
            {"header": np.r_[_header(cfg)[:7], (2 << len(AGGREGATE_NAMES)) - 1]},
            {"header": np.r_[_header(cfg)[:7], -1]},
            {"header": _header(cfg).astype(np.int32)},
            {"header": _header(cfg, next_chunk=-1)},
            {"header": _header(cfg, next_chunk=2)},
            {"bogus": np.int64(1)},
            {"rank_pm": -good.rank_pm},
            {"visited": np.int64(-512)},
            {"rank_pm": good.rank_pm.astype(np.uint64)},
            {"rank_pm": good.rank_pm.astype(np.int32)},
            {"rank_pm": good.rank_pm.astype(">i8")},
            {"visited": np.float64(512)},
        ]
        for replace in tampered:
            # The header names the aggregates held, so a missing one is damage.
            with pytest.raises(ValueError, match="corrupt census checkpoint"):
                load(replace)
        # A duplicate member, which np.savez cannot write.
        load({})
        with zipfile.ZipFile(path, "a") as archive:
            with pytest.warns(UserWarning, match="Duplicate name"):
                archive.writestr("visited.npy", archive.read("visited.npy"))
        with pytest.raises(ValueError, match="entries"):
            load_checkpoint(path, cfg)
        _write_archive(path, header=_header(cfg), visited=np.int64(512), cond_codes=codes)
        with pytest.raises(ValueError, match="entries"):
            load_checkpoint(path, cfg)

    def test_truncated_or_flipped_bytes(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=path, chunk_size=64)
        good = run_census(cfg, aggregates=AGGREGATE_NAMES)
        with open(path, "rb") as fh:
            raw = fh.read()
        rng = np.random.default_rng(14)
        damaged = [raw[:size] for size in range(len(raw))]
        for at, xor in zip(rng.integers(len(raw), size=200), rng.integers(1, 256, size=200)):
            damaged.append(raw[:at] + bytes([raw[at] ^ xor]) + raw[at + 1 :])
        loaded_intact = 0
        for data in damaged:
            with open(path, "wb") as fh:
                fh.write(data)
            # A flip in the central directory's size can hide members; the
            # header's aggregate mask lets the load itself refuse that.
            try:
                loaded, next_chunk = load_checkpoint(path, cfg)
            except ValueError:
                continue
            loaded_intact += 1
            assert next_chunk == 8
            assert loaded.to_json_dict() == good.to_json_dict()
            assert loaded.cond_codes.tolist() == good.cond_codes.tolist()
            assert loaded.cond_counts.tolist() == good.cond_counts.tolist()
        # Flips in fields that zipfile does not read (times, local sizes) are harmless.
        assert 0 < loaded_intact < 200

    def test_partial_archive_refused(self, tmp_path):
        # What a damaged central directory once listed: four of the members.
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=path)
        good = run_census(cfg, aggregates=AGGREGATE_NAMES)
        kept = {
            name: np.asarray(getattr(good, name)) for name in ("visited", "rank_pm", "rank_cond")
        }
        _write_archive(path, header=_header(cfg), **kept)
        with pytest.raises(ValueError, match="corrupt census checkpoint: entries"):
            load_checkpoint(path, cfg)
        # The same members under a header that names only those aggregates
        # are a whole checkpoint of a smaller census.
        _write_archive(path, header=_header(cfg, held=("rank_pm", "rank_cond")), **kept)
        loaded, _ = load_checkpoint(path, cfg)
        assert loaded.aggregate_names() == ("rank_pm", "rank_cond")
        assert loaded.rank_pm.tolist() == good.rank_pm.tolist()

    def test_inspect_with_numpy(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        aggregates = ("rank_pm", "cond_counts")
        cfg = CensusConfig(dims=(3, 4), worker_count=1, checkpoint_path=path, chunk_size=1 << 10,
                           filters={(1, 1): 1})
        result = run_census(cfg, aggregates=aggregates)
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        assert sorted(members) == sorted(["header", "visited", "rank_pm", "cond_codes", "cond_counts"])
        assert all(arr.dtype == np.int64 for arr in members.values())
        # Aggregate mask: rank_pm and cond_counts, bits 0 and 2 of AGGREGATE_NAMES.
        assert members["header"].tolist() == [CHECKPOINT_VERSION, 3, 4, 1 << 10, 4, 1, 1, 0b101]
        assert int(members["visited"]) == result.visited == 2048
        assert members["cond_counts"].tolist() == result.cond_counts.tolist()

    def test_save_load_roundtrip_is_exact(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(dims=(4, 3), worker_count=1, chunk_size=512, filters={(4, 3): 1})
        full = run_census(cfg, aggregates=AGGREGATE_NAMES)
        save_checkpoint(path, cfg, full, 8)
        loaded, next_chunk = load_checkpoint(path, cfg)
        assert next_chunk == 8
        assert loaded.to_json_dict() == full.to_json_dict()
        assert loaded.cond_codes.tolist() == full.cond_codes.tolist()
        assert loaded.cond_counts.tolist() == full.cond_counts.tolist()
