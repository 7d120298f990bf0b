"""Census engine: preimage counts, rank histograms, checkpoints, determinism."""

import os
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chio.matrix_core import IntMatrix, PartialTernaryMatrix, rank_int
from chio import census_oracle
from chio.measures import Event, fibre_cardinality
from chio.census_oracle import (
    AGGREGATE_NAMES,
    CHECKPOINT_MAGIC,
    BudgetExceeded,
    CensusConfig,
    _pack_array,
    _pack_scalar,
    _write_checkpoint,
    batch_rank,
    binary_rank_counts,
    condensate_code,
    decode_condensate,
    empirical_p_chio,
    kwise_agreement_check,
    load_checkpoint,
    rank_census,
    run_census,
    save_checkpoint,
    singular_count,
    ternary_rank_supp_counts,
)


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

    def test_all_4x4_sign_matrices(self):
        codes = np.arange(1 << 16)
        mats = (2 * ((codes[:, None] >> np.arange(16)) & 1) - 1).reshape(-1, 4, 4)
        got = batch_rank(mats)
        assert list(got) == [rank_int(IntMatrix(a.tolist())) for a in mats]

    def test_all_3x3_ternary_matrices(self):
        mats = np.array(list(product((-1, 0, 1), repeat=9))).reshape(-1, 3, 3)
        got = batch_rank(mats)
        assert list(got) == [rank_int(IntMatrix(a.tolist())) for a in mats]


class TestCondensateCounts:
    def test_n2_frozen_counts(self):
        counts = empirical_p_chio(2, workers=1)
        values = {
            v: int(counts[condensate_code(PartialTernaryMatrix((2, 2), {(1, 1): v}))])
            for v in (-1, 0, 1)
        }
        assert values == {-1: 4, 0: 8, 1: 4}

    def test_n3_counts_match_fibre_formula(self):
        counts = empirical_p_chio(3, workers=1)
        assert int(counts.sum()) == 512
        for code in range(counts.size):
            matrix = decode_condensate(code, 3, 3)
            assert int(counts[code]) == fibre_cardinality(Event.on_full_grid(matrix))

    def test_counts_are_zero_or_powers_of_two(self):
        counts = empirical_p_chio(3, workers=1)
        for value in counts:
            v = int(value)
            assert v == 0 or (v & (v - 1)) == 0

    def test_code_roundtrip(self):
        matrix = PartialTernaryMatrix((4, 4), {
            (i, j): ((i + j) % 3 - 1) for i in range(1, 4) for j in range(1, 4)
        })
        assert decode_condensate(condensate_code(matrix), 4, 4).entries == matrix.entries

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            empirical_p_chio(6)
        with pytest.raises(BudgetExceeded):
            CensusConfig(dims=(6, 6)).validate()


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
    @pytest.mark.parametrize("rows, cols, chunk", [(3, 4, 7), (4, 4, 4093)])
    def test_binary_counts_in_small_chunks(self, rows, cols, chunk):
        cells = rows * cols
        ranks = [
            rank_int(IntMatrix([[(code >> (i * cols + j)) & 1 for j in range(cols)] for i in range(rows)]))
            for code in range(1 << cells)
        ]
        expected = np.bincount(ranks, minlength=min(rows, cols) + 1).tolist()
        assert binary_rank_counts(rows, cols).tolist() == expected
        assert binary_rank_counts(rows, cols, chunk=chunk).tolist() == expected

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2)])
    def test_ternary_joint_matches_scalar_rank(self, rows, cols):
        cells = rows * cols
        expected = np.zeros((min(rows, cols) + 1, cells + 1), dtype=np.int64)
        for values in product((-1, 0, 1), repeat=cells):
            matrix = IntMatrix([list(values[i * cols : (i + 1) * cols]) for i in range(rows)])
            expected[rank_int(matrix), sum(v != 0 for v in values)] += 1
        assert ternary_rank_supp_counts(rows, cols).tolist() == expected.tolist()
        assert ternary_rank_supp_counts(rows, cols, chunk=50).tolist() == expected.tolist()


class TestKwise:
    def test_n3_all_ok(self):
        report = kwise_agreement_check(3, workers=1)
        assert report["all_ok"]
        assert all(e["disagreements"] == 0 for e in report["per_k"] if e["k"] <= 3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            kwise_agreement_check(5)


class TestEngine:
    def test_partition_and_determinism(self):
        reference = None
        for workers in (1, 2, 8):
            res = run_census(
                CensusConfig(dims=(3, 3), worker_count=workers),
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


class TestCheckpoints:
    def test_roundtrip_and_resume(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        cfg = CensusConfig(
            dims=(3, 3), worker_count=1, chunk_size=64, checkpoint_path=path, flush_every=2
        )
        full = run_census(cfg, aggregates=("rank_pm", "cond_counts"))
        assert os.path.exists(path)
        loaded, next_chunk = load_checkpoint(path, cfg)
        assert next_chunk == 8 and loaded.visited == 512
        assert list(loaded.rank_pm) == list(full.rank_pm)
        resumed = run_census(cfg, aggregates=("rank_pm", "cond_counts"), resume=True)
        assert resumed.cond_counts.tobytes() == full.cond_counts.tobytes()

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
            dims=dims, worker_count=1, chunk_size=16, filters=filters,
            checkpoint_path=path, flush_every=4,
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
        assert empirical_p_chio(4, workers=1).tolist() == ref["dense"].tolist()

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
        cfg = CensusConfig(
            dims=(3, 4), worker_count=1, chunk_size=100, checkpoint_path=path, flush_every=7,
            filters={(2, 3): -1},
        )
        full = run_census(CensusConfig(dims=(3, 4), worker_count=1, filters={(2, 3): -1}),
                          aggregates=AGGREGATE_NAMES)
        self._crash_after(monkeypatch, 30)
        with pytest.raises(_Crash):
            run_census(cfg, aggregates=AGGREGATE_NAMES)
        monkeypatch.undo()
        head, next_chunk = load_checkpoint(path, cfg)
        assert next_chunk == 28 and 0 < head.visited < full.visited
        resumed = run_census(cfg, aggregates=AGGREGATE_NAMES, resume=True)
        assert resumed.to_json_dict() == full.to_json_dict()
        assert resumed.cond_codes.tobytes() == full.cond_codes.tobytes()
        assert resumed.cond_counts.tobytes() == full.cond_counts.tobytes()

    def test_v1_file_refused(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(
            CHECKPOINT_MAGIC
            + struct.pack("<IIIQQI", 1, 3, 3, 1 << 18, 1, 1)
            + _pack_scalar("visited", 512)
        )
        with pytest.raises(ValueError, match="version 1"):
            load_checkpoint(str(path), CensusConfig(dims=(3, 3)))

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
        visited = _pack_scalar("visited", 512)
        entries = {
            "rank_pm": _pack_array("rank_pm", good.rank_pm),
            "rank_cond": _pack_array("rank_cond", good.rank_cond),
            "cond_codes": _pack_array("cond_codes", good.cond_codes),
            "cond_counts": _pack_array("cond_counts", good.cond_counts),
            "edge_pairs": _pack_array("edge_pairs", good.edge_pairs),
            "rank_drop_violations": _pack_scalar("rank_drop_violations", 0),
        }

        def load(replace, head=(visited,)):
            blobs = list(head) + [replace.get(name, blob) for name, blob in entries.items()]
            _write_checkpoint(path, cfg, 1, [b for b in blobs if b is not None])
            return run_census(cfg, aggregates=AGGREGATE_NAMES, resume=True)

        loaded = load({})
        assert loaded.to_json_dict() == good.to_json_dict()
        assert loaded.cond_codes.tolist() == good.cond_codes.tolist()
        codes = good.cond_codes
        tampered = [
            {"rank_pm": _pack_array("rank_pm", np.zeros(8, dtype=np.int64))},
            {"rank_cond": _pack_array("rank_cond", np.zeros((3, 1), dtype=np.int64))},
            {"rank_drop_violations": _pack_array("rank_drop_violations", np.zeros(1, np.int64))},
            {"edge_pairs": _pack_array("edge_pairs", np.zeros((4, 3), dtype=np.int64))},
            {"edge_pairs": _pack_array("edge_pairs", np.zeros(16, dtype=np.int64))},
            {"cond_counts": _pack_array("cond_counts", good.cond_counts[1:])},
            {"cond_codes": _pack_array("cond_codes", codes[::-1])},
            {"cond_codes": _pack_array("cond_codes", np.r_[codes[:-1], 3**4])},
            {"cond_codes": _pack_array("cond_codes", np.r_[codes[:1], codes[:-1]])},
            {"edge_pairs": None},
            {"cond_counts": None},
            {"cond_codes": None, "cond_counts": None},
            {"rank_pm": _pack_scalar("bogus", 1)},
        ]
        for replace in tampered:
            with pytest.raises(ValueError):
                load(replace)
        with pytest.raises(ValueError):
            load({}, head=(_pack_array("visited", np.array([512, 0])),))
        with pytest.raises(ValueError):
            load({}, head=(visited, visited))
        with pytest.raises(ValueError):
            load({}, head=())
        _write_checkpoint(path, cfg, 1, [visited, entries["cond_codes"]])
        with pytest.raises(ValueError, match="entries"):
            load_checkpoint(path, cfg)

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
