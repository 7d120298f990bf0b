"""Chio sets, condensation, exact determinant and rank."""

import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chio.matrix_core import (
    IndexSet,
    IntMatrix,
    PartialTernaryMatrix,
    SignMatrix,
    abs_condense,
    chio_condense,
    chio_extend,
    det_int,
    full_inner_box,
    is_chio_set,
    matrix_from_json_dict,
    rank_int,
)

from oracles import brute_rank, cofactor_det


def sign_matrix_from_bits(code: int, n: int) -> SignMatrix:
    rows = [[1 if code >> (i * n + j) & 1 else -1 for j in range(n)] for i in range(n)]
    return SignMatrix.from_rows(rows)


class TestChioSets:
    def test_empty_extension_is_pivot(self):
        ext = chio_extend(IndexSet((3, 3), frozenset()))
        assert ext.members == {(3, 3)}

    def test_full_extension_is_full_rectangle(self):
        ext = chio_extend(full_inner_box(3, 3))
        assert ext.members == {(i, j) for i in range(1, 4) for j in range(1, 4)}

    def test_singleton_extension(self):
        ext = chio_extend(IndexSet((3, 3), frozenset({(1, 1)})))
        assert ext.members == {(1, 1), (1, 3), (3, 1), (3, 3)}

    def test_extension_rejects_outer_positions(self):
        with pytest.raises(ValueError):
            chio_extend(IndexSet((3, 3), frozenset({(3, 1)})))

    def test_pivot_alone_is_chio_set(self):
        assert is_chio_set(IndexSet((3, 3), frozenset({(3, 3)})))

    def test_missing_closure_is_not_chio_set(self):
        assert not is_chio_set(IndexSet((3, 3), frozenset({(1, 1), (3, 3)})))

    def test_full_rectangle_is_chio_set(self):
        s, t = 4, 5
        full = IndexSet((s, t), frozenset((i, j) for i in range(1, s + 1) for j in range(1, t + 1)))
        assert is_chio_set(full)

    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    @settings(max_examples=60)
    def test_extension_cardinality(self, s, t, data):
        cells = [(i, j) for i in range(1, s) for j in range(1, t)]
        members = data.draw(st.sets(st.sampled_from(cells)) if cells else st.just(set()))
        index_set = IndexSet((s, t), frozenset(members))
        ext = chio_extend(index_set)
        assert is_chio_set(ext)
        assert len(ext) == 1 + len(index_set.rows) + len(index_set.cols) + len(index_set)


class TestCondensation:
    def test_all_plus_gives_zero(self):
        assert chio_condense(SignMatrix.from_rows([[1, 1], [1, 1]])).entries == {(1, 1): 0}

    def test_two_by_two_minor(self):
        assert chio_condense(SignMatrix.from_rows([[1, -1], [-1, -1]])).entries == {(1, 1): -1}

    def test_rejects_non_chio_domain(self):
        domain = IndexSet((2, 2), frozenset({(1, 1)}))
        matrix = SignMatrix(domain, {(1, 1): 1})
        with pytest.raises(ValueError):
            chio_condense(matrix)

    def test_partial_chio_set_domain(self):
        domain = chio_extend(IndexSet((3, 3), frozenset({(1, 1)})))
        matrix = SignMatrix(domain, {pos: -1 for pos in domain.members})
        condensed = chio_condense(matrix)
        assert condensed.entries == {(1, 1): 0}

    def test_abs_matches_entrywise_absolute_value_exhaustively(self):
        for code in range(512):
            matrix = sign_matrix_from_bits(code, 3)
            signed = chio_condense(matrix)
            absolute = abs_condense(matrix)
            assert absolute.entries == {p: abs(v) for p, v in signed.entries.items()}

    def test_chio_identity_exhaustive_n3(self):
        for code in range(512):
            rows = [[1 if code >> (i * 3 + j) & 1 else -1 for j in range(3)] for i in range(3)]
            pivot = rows[2][2]
            full_cond = [
                [rows[i][j] * pivot - rows[i][2] * rows[2][j] for j in range(2)]
                for i in range(2)
            ]
            assert det_int(IntMatrix(full_cond)) == pivot * det_int(IntMatrix(rows))

    @given(st.integers(0, 2**25 - 1))
    @settings(max_examples=120)
    def test_chio_identity_sampled_n5(self, code):
        n = 5
        rows = [[1 if code >> (i * n + j) & 1 else -1 for j in range(n)] for i in range(n)]
        pivot = rows[n - 1][n - 1]
        full_cond = [
            [rows[i][j] * pivot - rows[i][n - 1] * rows[n - 1][j] for j in range(n - 1)]
            for i in range(n - 1)
        ]
        assert det_int(IntMatrix(full_cond)) == pivot ** (n - 2) * det_int(IntMatrix(rows))


class TestDeterminantAndRank:
    def test_det_one_by_one(self):
        assert det_int(IntMatrix([[7]])) == 7

    def test_det_two_by_two(self):
        assert det_int(IntMatrix([[1, 1], [1, -1]])) == -2

    def test_det_rejects_rectangular(self):
        with pytest.raises(ValueError):
            det_int(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_det_matches_cofactor_expansion(self, rows):
        assert det_int(IntMatrix(rows)) == cofactor_det(rows)

    def test_rank_zero_matrix(self):
        assert rank_int(IntMatrix([[0, 0], [0, 0], [0, 0]])) == 0

    def test_rank_all_ones(self):
        assert rank_int(IntMatrix([[1] * 4] * 4)) == 1

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=80)
    def test_rank_matches_minor_oracle(self, r, c, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
        assert rank_int(IntMatrix(rows)) == brute_rank(rows)

    def test_rank_drop_exhaustive_n3(self):
        for code in range(512):
            matrix = sign_matrix_from_bits(code, 3)
            dense = [[matrix[(i, j)] for j in range(1, 4)] for i in range(1, 4)]
            condensed = IntMatrix.from_ternary(chio_condense(matrix))
            assert rank_int(condensed) == rank_int(IntMatrix(dense)) - 1

    def test_rank_drop_rectangular(self):
        for code in range(2**6):
            rows = [[1 if code >> (i * 3 + j) & 1 else -1 for j in range(3)] for i in range(2)]
            matrix = SignMatrix.from_rows(rows)
            condensed = IntMatrix.from_ternary(chio_condense(matrix))
            assert rank_int(condensed) == rank_int(IntMatrix(rows)) - 1


class TestSerialization:
    def test_sign_matrix_compact_roundtrip(self):
        matrix = SignMatrix.from_compact("++-/-+-")
        assert matrix[(1, 3)] == -1 and matrix[(2, 1)] == -1

    def test_sign_matrix_rejects_bad_character(self):
        with pytest.raises(ValueError):
            SignMatrix.from_compact("+0/-+")

    def test_ternary_json_roundtrip(self):
        matrix = PartialTernaryMatrix((4, 4), {(1, 1): -1, (2, 3): 0, (3, 2): 1})
        again = matrix_from_json_dict(matrix.to_json_dict())
        assert again.dims == matrix.dims and again.entries == matrix.entries

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"dims": [3.5, 3], "entries": []}, "not an integer"),
            ({"dims": [True, 3], "entries": []}, "not an integer"),
            ({"dims": [3, 3], "entries": [[1.0, 1, 1]]}, "not an integer"),
            ({"dims": [3, 3], "entries": [[1, False, 1]]}, "not an integer"),
            ({"dims": [3, 3], "entries": [[1, 1, True]]}, "not an integer"),
            ({"dims": [4, 4], "entries": [[1, 1, 1], [1, 1, -1]]}, "given twice"),
        ],
    )
    def test_ternary_json_refuses_non_integers_and_repeats(self, data, message):
        with pytest.raises(ValueError, match=message):
            matrix_from_json_dict(data)

    def test_ternary_compact_with_gaps(self):
        matrix = PartialTernaryMatrix.from_compact("+-./0..")
        assert matrix.dims == (3, 4)
        assert matrix.entries == {(1, 1): 1, (1, 2): -1, (2, 1): 0}

    def test_dom_supp(self):
        matrix = PartialTernaryMatrix((4, 4), {(1, 1): -1, (2, 3): 0, (3, 2): 1})
        assert matrix.dom == 3 and matrix.supp == 2
        empty = PartialTernaryMatrix((4, 4), {})
        assert empty.dom == empty.supp == 0

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            PartialTernaryMatrix((3, 3), {(1, 1): 2})
        with pytest.raises(ValueError):
            PartialTernaryMatrix((3, 3), {(3, 3): 1})
        with pytest.raises(ValueError):
            SignMatrix.from_rows([[1, 0], [1, 1]])


class TestTernaryConstructor:
    """The hand-written constructor validates, then fills every slot."""

    @pytest.mark.parametrize(
        "dims, entries, message",
        [
            ((1, 3), {}, "dims must both be >= 2, got (1, 3)"),
            ((3, 1), {}, "dims must both be >= 2, got (3, 1)"),
            ((3, 3), {(0, 1): 1}, "position (0, 1) outside [2] x [2]"),
            ((3, 3), {(1, 0): 1}, "position (1, 0) outside [2] x [2]"),
            ((3, 4), {(3, 1): 1}, "position (3, 1) outside [2] x [3]"),
            ((3, 4), {(1, 4): 0}, "position (1, 4) outside [2] x [3]"),
            ((3, 3), {(1, 1): 0, (2, 2): 2}, "entry 2 at (2, 2) not in {-1,0,+1}"),
            ((3, 3), {(1, 2): None}, "entry None at (1, 2) not in {-1,0,+1}"),
        ],
    )
    def test_rejections_keep_their_messages(self, dims, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PartialTernaryMatrix(dims, entries)

    def test_slots_filled_and_frozen(self):
        source = {(1, 1): -1, (2, 3): 0, (3, 2): 1}
        matrix = PartialTernaryMatrix((4, 4), source)
        source[(1, 1)] = 1
        assert matrix.entries == {(1, 1): -1, (2, 3): 0, (3, 2): 1}
        assert matrix.dims == (4, 4) and matrix.supp == 2 and matrix._balance is None
        for name in ("dims", "entries", "_supp", "_balance"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(matrix, name, None)

    def test_copies_equal_the_original(self):
        matrix = PartialTernaryMatrix((4, 5), {(1, 1): -1, (2, 3): 0, (3, 4): 1})
        copies = (
            pickle.loads(pickle.dumps(matrix)),
            copy.copy(matrix),
            copy.deepcopy(matrix),
            dataclasses.replace(matrix),
        )
        for other in copies:
            assert other == matrix and repr(other) == repr(matrix)
            assert other.supp == 2 and other._balance is None
        moved = dataclasses.replace(matrix, dims=(5, 5))
        assert moved.dims == (5, 5) and moved.entries == matrix.entries
        with pytest.raises(ValueError, match="outside"):
            dataclasses.replace(matrix, dims=(3, 3))


class TestMemoisedData:
    """Data kept on immutable objects never shows in equality, repr or pickles."""

    def test_memoised_extension_equals_fresh_build(self):
        for members in (set(), {(1, 1)}, {(1, 2), (3, 1)}, {(i, j) for i in (1, 2) for j in (1, 3)}):
            index_set = IndexSet((4, 4), frozenset(members))
            first = chio_extend(index_set)
            assert chio_extend(index_set) is first
            fresh = chio_extend(IndexSet((4, 4), frozenset(members)))
            assert first == fresh and repr(first) == repr(fresh)
            assert first.members == {(4, 4)} | {(i, 4) for i, _ in members} | {
                (4, j) for _, j in members
            } | members

    def test_full_inner_box_is_shared(self):
        box = full_inner_box(5, 4)
        assert box is full_inner_box(5, 4)
        assert box == IndexSet((5, 4), frozenset((i, j) for i in range(1, 5) for j in range(1, 4)))
        assert box.rows == {1, 2, 3, 4} and box.cols == {1, 2, 3} and box.in_inner_box()
        assert chio_extend(box) is chio_extend(full_inner_box(5, 4))

    def test_index_set_memo_is_invisible(self):
        fresh = IndexSet((3, 3), frozenset({(1, 2), (2, 1)}))
        used = IndexSet((3, 3), frozenset({(1, 2), (2, 1)}))
        used.rows, used.cols, used.in_inner_box(), chio_extend(used)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert pickle.loads(pickle.dumps(used)) == fresh

    def test_matrix_with_filled_memo_equals_fresh(self):
        from chio.signed_graph import matrix_balance

        entries = {(1, 1): -1, (1, 2): 1, (2, 1): 1, (2, 2): 1, (3, 3): 0}
        used = PartialTernaryMatrix((4, 4), entries)
        assert matrix_balance(used) == (False, 6, 3)
        fresh = PartialTernaryMatrix((4, 4), entries)
        assert used == fresh and repr(used) == repr(fresh)
        for copy in (pickle.loads(pickle.dumps(used)), pickle.loads(pickle.dumps(fresh))):
            assert copy == fresh and repr(copy) == repr(fresh)
            assert matrix_balance(copy) == (False, 6, 3)

    def test_instances_have_no_dict(self):
        assert not hasattr(PartialTernaryMatrix((3, 3), {}), "__dict__")
        assert not hasattr(IndexSet((3, 3)), "__dict__")
