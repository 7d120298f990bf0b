"""Census engine: preimage counts, rank histograms, checkpoints, determinism."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chio.matrix_core import IntMatrix, PartialTernaryMatrix, rank_int
from chio.measures import Event, fibre_cardinality
from chio.census_oracle import (
    BudgetExceeded,
    CensusConfig,
    batch_rank,
    binary_rank_counts,
    condensate_code,
    decode_condensate,
    empirical_p_chio,
    kwise_agreement_check,
    load_checkpoint,
    rank_census,
    run_census,
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
