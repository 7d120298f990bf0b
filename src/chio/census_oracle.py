"""Exhaustive censuses over sign matrices: empirical ground truth.

Matrices in {-1,+1}^(s x t) are encoded as (s*t)-bit integers (bit set
means entry +1, row-major), and the census walks the code range in
fixed chunks (2^20 codes by default), the unit of scheduling,
checkpointing and merging.  Entry filters fix some code bits; a chunk
generates only the codes that agree with them, by depositing a range of
integers into the free bits (an unfiltered chunk is its code range
itself).  A chunk's admissible codes go through the kernels in tiles of
``_TILE`` (2^15) codes, whatever the chunk size and the filters, so a
kernel batch is large enough to amortise NumPy's per-call cost and small
enough for its work arrays to stay in cache.  Tiles are cut at every
multiple of ``_TILE`` and of 2^15 in the deposited integer x, so a tile
never crosses a 2^15-code block: within one, the bits of x from 15 up
are constant, bits 8 to 14 are constant over each group of 256
consecutive x, and bits 0 to 7 repeat one small +-1 table in every
group.  A tile is decoded from that layout, one code bit at a time and
with no code built, into a structure-of-arrays batch, one contiguous
length-N int8 vector per matrix entry, so that every vectorized step
runs over whole batch vectors.  Condensation is a 2x2-minor computation on those
vectors.  Rank is a batched Bareiss elimination with column pivoting
(:func:`_rank_soa`) in the narrowest integer dtype that the Hadamard
bound of the input proves safe (inputs whose bound overflows int64 are
refused); its exact divisions are a shift and a multiplication by a
2-adic inverse.  On request the same pass gives the determinant, which
:func:`chio_identity_chunk` uses to check Chio's identity on every
matrix.  No floating point is used anywhere.

Aggregates (rank histograms, condensate preimage counts, edge-marginal
pair counts, rank-drop violations) are summed over a chunk's tiles and
merged per chunk in a fixed order, so results are bit-identical for any
worker count, chunk size and tile size.  The edge-pair kernel packs
nonzero patterns 64 matrices to a uint64 word and counts bits with a
SWAR popcount; condensate codes are sorted in int32 (the budget caps a
condensate at 16 entries, and 3^16 < 2^31).  Condensate counts are
sparse: the sorted int64 codes seen, with their counts, one piece per
tile until merged (in place while no code is new).  With a checkpoint
path, partial aggregates are flushed every 4 chunks (``_FLUSH_EVERY``)
and at the end to an uncompressed NumPy ``.npz`` archive with a
versioned header (version 4) that records the dimensions, chunk size,
filters and the aggregates held, so a run resumes only into the census
that wrote it, and a member lost to damage is told from an aggregate
never computed; ``numpy.load`` reads it without resuming.  One table
(``_ENTRIES``) names the aggregates and gives each entry its shape
(``()`` for a scalar); the result's empty state, its JSON form and the
checkpoint's writer and reader all follow it.

The {0,1} and {-1,0,+1} rank histograms, which the rank identities
compare against the census, come from one brute-force loop over all
base-b codes, ``_TILE`` at a time (:func:`_rank_supp_counts`).  Its
digit decode (one divmod per matrix row, then a lookup of that row's
digits in a small table) also decodes condensate codes into support
and sign masks (:func:`_condensate_masks`), through which
``chio.verify.preimage_support_check`` reads the sparse condensate
counts in 2^16-code slices against a table it builds once per support:
the census's checks live in ``verify``, apart from the engine they
check.  The one check left here,
:func:`kwise_agreement_check`, scatters the counts into a dense cube
at n <= 4; it is the only code in this module that imports more of the
package than ``matrix_core`` and ``parallel``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator

import numpy as np

from .matrix_core import Index2, PartialTernaryMatrix
from . import parallel

BUDGET_LOG2 = 25
CHECKPOINT_VERSION = 4
# A run with a checkpoint path saves each time it passes a multiple of this many chunks.
_FLUSH_EVERY = 4

# Result entries: name -> (aggregate it belongs to, shape for (s, t)).  A
# shape of () is a scalar and None a vector of any length.  ``cond_codes``
# is the code half of the sparse ``cond_counts`` aggregate.
_ENTRIES = {
    "visited": (None, lambda s, t: ()),
    "rank_pm": ("rank_pm", lambda s, t: (min(s, t) + 1,)),
    "rank_cond": ("rank_cond", lambda s, t: (min(s - 1, t - 1) + 1,)),
    "cond_codes": ("cond_counts", lambda s, t: None),
    "cond_counts": ("cond_counts", lambda s, t: None),
    "edge_pairs": ("edge_pairs", lambda s, t: ((s - 1) * (t - 1),) * 2),
    "rank_drop_violations": ("rank_drop_violations", lambda s, t: ()),
}

AGGREGATE_NAMES = tuple(dict.fromkeys(agg for agg, _ in _ENTRIES.values() if agg))


class BudgetExceeded(ValueError):
    """Enumeration space larger than the configured budget."""


@dataclass(frozen=True)
class CensusConfig:
    """Parameters of one exhaustive run over {-1,+1}^(s x t)."""

    dims: tuple[int, int]
    worker_count: int | None = None
    chunk_size: int = 1 << 20
    checkpoint_path: str | None = None
    filters: dict[Index2, int] | None = None

    def validate(self) -> None:
        s, t = self.dims
        if s < 2 or t < 2:
            raise ValueError("census dims must both be >= 2")
        if s * t > BUDGET_LOG2:
            raise BudgetExceeded(f"2^{s * t} matrices exceed the 2^{BUDGET_LOG2} budget")
        # The checkpoint header stores the chunk size as int64.
        if not 1 <= self.chunk_size < 1 << 63:
            raise ValueError(f"chunk_size must be in 1 .. 2^63 - 1, not {self.chunk_size}")
        for (i, j), sign in (self.filters or {}).items():
            if not (1 <= i <= s and 1 <= j <= t) or sign not in (-1, 1):
                raise ValueError(f"bad census filter: entry {(i, j)} fixed to {sign}")


def batch_rank(mats: np.ndarray) -> np.ndarray:
    """Exact integer rank of each matrix of an ``(n, rows, cols)`` batch.

    The batch is transposed once into a structure-of-arrays (SoA) layout,
    ``(rows, cols, n)``: one length-n vector per matrix entry, so every
    step is a ufunc over whole length-n vectors (see :func:`_rank_soa`).
    The batch is ranked as one: the census hands it tiles of ``_TILE``
    matrices, and a caller with millions of matrices should split them
    likewise, so that the work arrays stay in cache.

    The recurrence is the Bareiss elimination of
    :func:`chio.matrix_core.rank_int` with column pivoting: at column j,
    each matrix's pivot row is its first row with a nonzero in column j,
    and every row is updated by
    ``a[i][l] = (a[i][l]*pivot - a[i][j]*head[l]) / prev`` for l > j,
    ``head`` the pivot row and ``prev`` the previous pivot.  The update
    zeroes the pivot row, and rows already zero stay zero, so no row is
    swapped or marked used: the next column's first nonzero row is always
    a fresh one.  A matrix with no pivot in column j takes an identity
    step (its column is zero, and its pivot stays ``prev``).  The rank is
    the number of pivots found.  Columns run along the shorter side,
    since rank(A) = rank(A^T).  On the rows taken in pivot order this is
    Bareiss's elimination, so at full rank its last pivot times the
    permutation's sign is the determinant (``_rank_soa(..., det=True)``);
    rank-only calls skip the pivot rows' indices that the sign needs.

    By Sylvester's identity every intermediate value is a minor of the
    input, so ``prev`` divides each ``x = a[i][l]*pivot - a[i][j]*head[l]``
    and the minors are at most the Hadamard bound ``H = M^k k^(k/2)``
    (``M`` the largest entry magnitude, ``k`` the shorter side).  The work
    dtype is the narrowest of int16, int32 and int64, of ``w`` bits, that
    holds ``2 H^2``, so ``x`` never wraps.  The division uses no ``//``:
    write ``prev = 2^e o`` with ``o`` odd.  Then ``x >> e`` is exact, and
    ``x / prev = (x >> e) * o^-1 mod 2^w``, computed in the unsigned view
    of the dtype, with ``o^-1`` the inverse of ``o`` mod 2^w from Newton's
    iteration ``inv *= 2 - o*inv`` (:func:`_odd_inverse`), computed only
    at the k - 2 steps that divide: the first divides by 1, and the last
    ends the run before its update.  The true quotient q is a minor, so
    ``|q| <= H < 2^(w-1)``, and the signed reading of the wrapped
    product, congruent to q mod 2^w, is q itself.  No floating point is
    used.

    Raises:
        ValueError: if ``2 H^2`` does not fit in int64.
    """
    return _rank_soa(np.asarray(mats).transpose(1, 2, 0))


# 2 is a primitive root mod 67, so 2^e mod 67 tells apart every e < 66.
_LOG2_MOD67 = np.zeros(67, dtype=np.int8)
_LOG2_MOD67[[pow(2, e, 67) for e in range(63)]] = np.arange(63)


def _rank_soa(entries: np.ndarray, det: bool = False):
    """:func:`batch_rank` of a ``(rows, cols, n)`` batch, or with ``det`` int64 ``(rank, det)``.

    ``entries[i, j]`` is the length-n vector of entry (i, j) across the
    batch; the input is copied, never written.
    """
    r, c, n = entries.shape
    k = min(r, c)
    if det and r != c:
        raise ValueError(f"determinant of a batch of {r}x{c} matrices")
    m = max(int(entries.max()), -int(entries.min())) if entries.size else 0
    bound = 2 * m ** (2 * k) * k**k
    fits = [d for d in (np.int16, np.int32, np.int64) if bound <= np.iinfo(d).max]
    if not fits:
        raise ValueError(
            f"batch_rank: Hadamard bound of {r}x{c} matrices with entries up to {m} "
            "overflows int64"
        )
    dtype = np.dtype(fits[0])
    unsigned = np.dtype(f"u{dtype.itemsize}")
    work = np.array(entries if r >= c else entries.transpose(1, 0, 2), dtype=dtype, order="C")
    rank = np.zeros(n, dtype=np.int64)
    prev = np.ones(n, dtype=dtype)
    pivot_rows = []
    for j in range(k):
        col = work[:, j]
        # first[i]: row i is the matrix's first row with a nonzero here.
        first = col != 0
        has = first[0].copy()
        for i in range(1, first.shape[0]):
            first[i] &= ~has
            has |= first[i]
        rank += has
        if det:
            # The pivot row's index, as a sum (argmax along axis 0 is slow); in
            # int8, as the bound admits over 15 rows only when all are zero.
            index = np.arange(first.shape[0], dtype=np.int8)
            pivot_rows.append(np.einsum("in,i->n", first.view(np.int8), index))
        if j + 1 == k:
            break
        first = first.astype(dtype)
        pivot = np.where(has, np.einsum("in,in->n", col, first), prev)
        head = np.einsum("iln,in->ln", work[:, j + 1 :], first)
        block = work[:, j + 1 :]
        block *= pivot
        block -= col[:, None] * head
        if j:
            # The first step divides by 1.
            shift, inv = _odd_inverse(prev)
            block >>= shift
            quotient = block.view(unsigned)
            quotient *= inv
        prev = pivot
    if not det:
        return rank
    # At full rank every row but the last pivot row is zero by now.
    last = np.where(rank == k, col.sum(axis=0, dtype=np.int64), 0)
    odd = sum(pivot_rows[a] > pivot_rows[b] for b in range(k) for a in range(b)) & 1
    return rank, np.where(odd, -last, last)


def _odd_inverse(prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(e, o^-1)`` for each ``prev = 2^e o``, o odd, with o^-1 its inverse mod 2^w.

    ``e`` has the signed dtype of ``prev`` (``w`` bits), and ``o^-1`` its
    unsigned counterpart.  Each ``prev`` must be nonzero, with
    ``|prev| < 2^(w-1)``.
    """
    unsigned = np.dtype(f"u{prev.dtype.itemsize}")
    shift = _LOG2_MOD67[(prev & -prev) % 67].astype(prev.dtype)
    odd = (prev >> shift).view(unsigned)
    inv = odd.copy()
    # o * o = 1 mod 8 for odd o, and each Newton step doubles the correct bits.
    correct_bits = 3
    while correct_bits < 8 * prev.dtype.itemsize:
        inv *= 2 - odd * inv
        correct_bits *= 2
    return shift, inv


def _bit_index(i: int, j: int, t: int) -> int:
    return (i - 1) * t + (j - 1)


@functools.cache
def _digit_table(base: int, cols: int) -> np.ndarray:
    """``(cols, base^cols)`` int8, read-only: column r holds the ``cols``
    base-``base`` digits of r, lowest first."""
    values = np.arange(base**cols)
    table = np.empty((cols, values.size), dtype=np.int8)
    for j in range(cols):
        values, table[j] = np.divmod(values, base)
    table.flags.writeable = False
    return table


def _digits(codes: np.ndarray, base: int, rows: int, cols: int) -> np.ndarray:
    """Base-``base`` digits ``0 .. rows*cols - 1`` of int64 codes, as a
    ``(rows*cols, N)`` int8 array.

    One ``divmod`` by ``base^cols`` per row splits off that row's digits as
    one number, and its ``cols`` digits are then taken from
    :func:`_digit_table`.
    """
    table = _digit_table(base, cols)
    digits = np.empty((rows, cols, codes.size), dtype=np.int8)
    for i in range(rows):
        codes, row = np.divmod(codes, table.shape[1])
        np.take(table, row, axis=1, out=digits[i], mode="clip")
    return digits.reshape(rows * cols, -1)


def _condensate_masks(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(support, minus)`` bitmasks of condensate codes, whose base-3 digit b
    is row-major entry b plus one.  Bit b is set when entry b is nonzero,
    and when it is -1."""
    weights = np.left_shift(1, np.arange((n - 1) ** 2, dtype=np.int64))
    digits = _digits(np.asarray(codes, dtype=np.int64), 3, n - 1, n - 1)
    return weights @ (digits != 1), weights @ (digits == 0)


def _fixed_bits(filters: dict[Index2, int] | None, t: int) -> tuple[int, int]:
    """``(mask, value)``: the code bits the filters fix, and what they read."""
    mask = value = 0
    for (i, j), sign in (filters or {}).items():
        bit = 1 << _bit_index(i, j, t)
        mask |= bit
        if sign == 1:
            value |= bit
    return mask, value


def _free_runs(st: int, mask: int) -> list[tuple[int, int, int]]:
    """Maximal runs of free code bits, as ``(first bit of x, first code bit, width)``."""
    runs = []
    src = bit = 0
    while bit < st:
        width = 0
        while bit + width < st and not (mask >> (bit + width)) & 1:
            width += 1
        if width:
            runs.append((src, bit, width))
            src += width
        bit += width + 1
    return runs


def _deposit(x: int, runs: list[tuple[int, int, int]], value: int) -> int:
    """The code whose free bits, low to high, are the bits of ``x``, and
    whose fixed bits are those of ``value``; strictly increasing in ``x``.

    A census tile's codes are ``_deposit(x)`` for a run of x, but they are
    never built: :func:`_decode` reads the tile's entries from the
    free-bit layout.
    """
    for src, dst, width in runs:
        value = value | ((x >> src) & ((1 << width) - 1)) << dst
    return value


def _count_below(bound: int, runs: list[tuple[int, int, int]], value: int) -> int:
    """Number of admissible codes below ``bound``, by bisection on ``x``."""
    lo, hi = 0, 1 << sum(width for _, _, width in runs)
    while lo < hi:
        mid = (lo + hi) // 2
        if _deposit(mid, runs, value) < bound:
            lo = mid + 1
        else:
            hi = mid
    return lo


# SWAR popcount masks (Hacker's Delight, ch. 5), as uint64 scalars so that
# no operand mixes uint64 with a signed type and casts to float64.
_M1, _M2, _M4, _H01 = (
    np.uint64(v)
    for v in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)
_U1, _U2, _U4, _U56 = (np.uint64(v) for v in (1, 2, 4, 56))


def _popcount64(words: np.ndarray) -> np.ndarray:
    """The number of set bits of each word of a uint64 array, computed in place.

    Two-bit, four-bit and byte sums of the bits, then one multiplication
    that adds the eight byte sums into the top byte.  ``np.bitwise_count``
    would do this, but it needs numpy >= 2.0.
    """
    words -= (words >> _U1) & _M1
    words[...] = (words & _M2) + ((words >> _U2) & _M2)
    words += words >> _U4
    words &= _M4
    words *= _H01
    words >>= _U56
    return words


# Tiles never cross a multiple of 2^_BLOCK_BITS in x, so that in a tile the
# bits of x from _BLOCK_BITS up are constant.  _decode reads the bits below
# from groups of 2^_GROUP_BITS consecutive x, which needs
# _BLOCK_BITS <= 2 * _GROUP_BITS.
_BLOCK_BITS = 15
_GROUP_BITS = 8


@functools.cache
def _bit_table() -> np.ndarray:
    """``(_GROUP_BITS, 2^_GROUP_BITS)`` int8, read-only: entry (b, y) is +1
    where bit b of y is set, else -1."""
    table = np.empty((_GROUP_BITS, 1 << _GROUP_BITS), dtype=np.int8)
    signs = np.array([[-1], [1]], dtype=np.int8)
    for b in range(_GROUP_BITS):
        # Row b alternates runs of 2^b entries, -1 then +1.
        table[b].reshape(-1, 2, 1 << b)[:] = signs
    table.flags.writeable = False
    return table


def _decode(
    s: int, t: int, first: int, n: int, runs: list[tuple[int, int, int]], value: int
) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of codes ``_deposit(x, runs, value)`` for x in
    ``first .. first + n - 1``, as ``(s, t, n)`` int8 +-1 entries, each
    entry's vector C-contiguous, and their ``(s-1, t-1, n)`` half
    condensates: the 2x2 minors against the corner entry (s, t), halved,
    each in {-1, 0, 1}.

    The x must lie in one block of 2^``_BLOCK_BITS``, as every tile of
    :func:`_tiles` does.  The tile is decoded padded out to whole groups
    of 2^``_GROUP_BITS`` x, a ``(groups, 2^_GROUP_BITS)`` array per code
    bit, and each code bit is read from one of three places, through the
    free runs:

    - a bit fed by bit b < ``_GROUP_BITS`` of x is row b of
      :func:`_bit_table`, the same in every group;
    - a bit fed by a higher bit b of x below ``_BLOCK_BITS`` is constant
      in each group: bit b - ``_GROUP_BITS`` of the group's index in the
      block, read from the same table;
    - a bit fed by bit b >= ``_BLOCK_BITS`` of x is constant over the
      tile, as is a bit the filters fix: both are read from the code of
      the block's first x.

    Raises:
        ValueError: if the x cross a multiple of 2^``_BLOCK_BITS``.
    """
    block, offset = divmod(first, 1 << _BLOCK_BITS)
    if offset + n > 1 << _BLOCK_BITS:
        raise ValueError(f"tile of {n} codes from x = {first} crosses a 2^{_BLOCK_BITS}-code block")
    group, lead = divmod(offset, 1 << _GROUP_BITS)
    groups = -(-(lead + n) >> _GROUP_BITS)
    table = _bit_table()
    # The code bits fed by the low bits of x, in the order of those bits.
    low = _deposit((1 << _BLOCK_BITS) - 1, runs, 0)
    constant = _deposit(block << _BLOCK_BITS, runs, value)
    padded = np.empty((s * t, groups, 1 << _GROUP_BITS), dtype=np.int8)
    b = 0
    for c in range(s * t):
        if not low >> c & 1:
            padded[c] = 1 if constant >> c & 1 else -1
            continue
        if b < _GROUP_BITS:
            padded[c] = table[b]
        else:
            padded[c] = table[b - _GROUP_BITS, group : group + groups, None]
        b += 1
    entries = padded.reshape(s * t, -1)[:, lead : lead + n].reshape(s, t, n)
    minors = entries[:-1, :-1] * entries[-1, -1]
    minors -= entries[:-1, -1:] * entries[-1:, :-1]
    minors >>= 1
    return entries, minors


# Admissible codes per kernel batch: small enough that a batch's int16
# work arrays stay in cache, large enough to amortise NumPy's per-call cost.
_TILE = 1 << 15


def _tiles(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """The integers ``start .. stop - 1`` as ``(first, count)`` runs, cut at
    every multiple of ``_TILE`` and of 2^``_BLOCK_BITS``: no run is longer
    than ``_TILE`` or crosses a 2^``_BLOCK_BITS`` block."""
    first = start
    while first < stop:
        end = min(stop, (first // _TILE + 1) * _TILE, ((first >> _BLOCK_BITS) + 1) << _BLOCK_BITS)
        yield first, end - first
        first = end


def _chunk_task(args: tuple) -> dict:
    """Process the admissible codes of one contiguous code range.

    The codes are those ``_deposit(x)`` for a range of x, found by
    bisection; the x are cut into :func:`_tiles`, each decoded from the
    free-bit layout (:func:`_decode`) and run through the kernels, and the
    tiles' aggregates summed; ``cond_counts`` is a list of one sorted
    ``(codes, counts)`` piece per tile.  The pieces live until the result
    settles, so they are int64 views into two memory maps (:func:`_mapped`)
    sized to the chunk, not arrays of their own: kept on the malloc heap
    between the tiles' temporaries, they decided by the order of earlier
    allocations whether freed memory could be given back, and the peak RSS
    of one census run read one of two levels about 2 MB apart.
    """
    s, t, lo, hi, names, filters = args
    mask, value = _fixed_bits(filters, t)
    runs = _free_runs(s * t, mask)
    start, stop = _count_below(lo, runs, value), _count_below(hi, runs, value)
    out: dict[str, object] = {"visited": stop - start}
    if "cond_counts" in names:
        # A tile has at most as many distinct codes as codes.
        piece_codes = _mapped(stop - start, np.int64)
        piece_counts = _mapped(stop - start, np.int64)
        at = 0
    for first, n in _tiles(start, stop):
        for name, part in _tile_aggregates(s, t, first, n, runs, value, names).items():
            if name == "cond_counts":
                end = at + part[0].size
                piece_codes[at:end], piece_counts[at:end] = part
                out.setdefault(name, []).append((piece_codes[at:end], piece_counts[at:end]))
                at = end
            else:
                out[name] = out.get(name, 0) + part
    return out


def _tile_aggregates(
    s: int,
    t: int,
    first: int,
    n: int,
    runs: list[tuple[int, int, int]],
    value: int,
    names: tuple[str, ...],
) -> dict:
    """The named aggregates of one tile: the matrices of codes
    ``_deposit(x, runs, value)`` for x in ``first .. first + n - 1``."""
    m = (s - 1) * (t - 1)
    entries, cond = _decode(s, t, first, n, runs, value)
    cond = cond.reshape(m, -1)
    out: dict[str, object] = {}

    rank_pm = None
    if {"rank_pm", "rank_drop_violations"} & set(names):
        rank_pm = _rank_soa(entries)
        if "rank_pm" in names:
            out["rank_pm"] = np.bincount(rank_pm, minlength=min(s, t) + 1)

    rank_cond = None
    if {"rank_cond", "rank_drop_violations"} & set(names):
        rank_cond = _rank_soa(cond.reshape(s - 1, t - 1, -1))
        if "rank_cond" in names:
            out["rank_cond"] = np.bincount(rank_cond, minlength=min(s - 1, t - 1) + 1)

    if "rank_drop_violations" in names:
        out["rank_drop_violations"] = int((rank_pm != rank_cond + 1).sum())

    if "cond_counts" in names:
        # Base-3 codes sum (cond[b] + 1) 3^b: a Horner loop over cond's rows
        # from the highest, then the sum of the 3^b, in int32, where sorting
        # is faster than in int64.  Every value is below 3^m, and BUDGET_LOG2
        # caps m at 16 (a 5x5 census), with 3^16 < 2^31.
        if 3**m > 1 << 31:
            raise ValueError(f"condensate codes of {m} entries overflow int32")
        code = cond[-1].astype(np.int32)
        for row in cond[-2::-1]:
            code *= 3
            code += row
        code += (3**m - 1) // 2
        out["cond_counts"] = np.unique(code, return_counts=True)

    if "edge_pairs" in names:
        # Pair counts of the nonzero patterns, 64 matrices to a word (the
        # last word zero-padded), for the row pairs p <= q, then mirrored.
        words = np.zeros((m, -(-n // 64)), dtype=np.uint64)
        words.view(np.uint8)[:, : -(-n // 8)] = np.packbits(cond != 0, axis=1, bitorder="little")
        p, q = np.triu_indices(m)
        pairs = _popcount64(words[p] & words[q]).sum(axis=1, dtype=np.int64)
        edge_pairs = np.empty((m, m), dtype=np.int64)
        edge_pairs[p, q] = edge_pairs[q, p] = pairs
        out["edge_pairs"] = edge_pairs

    return out


def chio_identity_chunk(args: tuple[int, int, int]) -> int:
    """How many n x n sign matrices A, of codes ``lo .. hi - 1``, break Chio's
    identity det C(A) = a^(n-2) det(A), with a = A[n][n] and C(A) the full
    condensate (twice the half one); both determinants from :func:`_rank_soa`."""
    n, lo, hi = args
    runs = _free_runs(n * n, 0)
    mismatches = 0
    for first, size in _tiles(lo, hi):
        entries, cond = _decode(n, n, first, size, runs, 0)
        _, det_a = _rank_soa(entries, det=True)
        _, det_c = _rank_soa(cond, det=True)
        # a^(n-2), for a = +-1.
        power = entries[-1, -1] if n % 2 else 1
        mismatches += int(np.count_nonzero(det_c << (n - 1) != power * det_a))
    return mismatches


# Codes per piece between two cuts of the condensate-count merge.
_MERGE_SLICE = 1 << 15


def _mapped(n: int, dtype) -> np.ndarray:
    """A zeroed length-n array in its own anonymous memory map.

    Pages are taken as they are first written, and all are given back
    when the array is dropped, whatever the state of the malloc heap.
    """
    import mmap

    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(n, 1) * dtype.itemsize), dtype=dtype, count=n)


@dataclass
class CensusResult:
    """Merged aggregates of one census run; ``None`` marks one not computed."""

    dims: tuple[int, int]
    visited: int = 0
    # Matrices per rank, indexed 0..min(s, t).
    rank_pm: np.ndarray | None = None
    # Condensates per rank, indexed 0..min(s-1, t-1).
    rank_cond: np.ndarray | None = None
    # Sorted unique base-3 codes of the condensates seen (int64).
    cond_codes: np.ndarray | None = None
    # Preimage count of each code in cond_codes (int64, aligned with it).
    cond_counts: np.ndarray | None = None
    # m x m, m = (s-1)(t-1): matrices whose condensate is nonzero at both entries.
    edge_pairs: np.ndarray | None = None
    # Matrices whose rank is not their condensate's rank plus one.
    rank_drop_violations: int | None = None
    # Tile (codes, counts) pieces not yet folded into cond_codes/cond_counts.
    _pending: list = field(default_factory=list, repr=False, compare=False)
    _pending_size: int = field(default=0, repr=False, compare=False)

    @classmethod
    def empty(cls, dims: tuple[int, int], aggregates: tuple[str, ...]) -> CensusResult:
        """A result holding zero for each named aggregate."""
        result = cls(dims=dims)
        for name, (aggregate, shape) in _ENTRIES.items():
            if aggregate in aggregates:
                want = shape(*dims)
                setattr(result, name, 0 if want == () else np.zeros(want or 0, dtype=np.int64))
        return result

    def aggregate_names(self) -> tuple[str, ...]:
        """The aggregates this result holds, in ``AGGREGATE_NAMES`` order."""
        return tuple(name for name in AGGREGATE_NAMES if getattr(self, name) is not None)

    def merge_chunk(self, chunk: dict) -> None:
        """Add one chunk's aggregates; each must already be held (see :meth:`empty`)."""
        self.visited += chunk["visited"]
        for name, value in chunk.items():
            if name == "cond_counts":
                self._pending.extend(value)
                self._pending_size += sum(codes.size for codes, _ in value)
                if self._pending_size >= self.cond_codes.size:
                    self.settle()
            elif name != "visited":
                setattr(self, name, getattr(self, name) + value)

    def settle(self) -> None:
        """Fold the pending tile counts into ``cond_codes``/``cond_counts``.

        Merging only once the pending pairs are as large as the merged
        ones keeps the total cost at O(N log N) for N codes seen.  Every
        piece is a sorted run of distinct codes.  Pieces whose codes are
        all present already (late in a census, most of them) are added in
        place at their ``searchsorted`` positions, in order, up to the
        first piece that holds a new code.  The rest are merged with the
        merged pair into new arrays: the code range is cut at
        every ``_MERGE_SLICE``-th code of each piece, so between two cuts
        each piece holds at most that many codes; the runs are merged one
        stretch at a time (a stable sort of the stretch, then sums over
        equal codes) and written in order into two arrays of the pieces'
        total length.  Those arrays are memory maps (:func:`_mapped`), so
        the unused tail takes no memory, and the only heap allocations are
        the small per-stretch temporaries: on the heap, arrays of a few MB
        land in freed holes or not depending on earlier allocations, which
        made the process's peak RSS vary from run to run by several MB.
        """
        merged = self.cond_codes
        for done, (codes, counts) in enumerate(self._pending):
            at = np.searchsorted(merged, codes)
            if at.size and (at[-1] == merged.size or (merged[at] != codes).any()):
                del self._pending[:done]
                break
            self.cond_counts[at] += counts
        else:
            self._pending = []
            self._pending_size = 0
            return
        pieces = [(self.cond_codes, self.cond_counts)] + self._pending
        self.cond_codes = self.cond_counts = None
        self._pending = []
        self._pending_size = 0
        total = sum(c.size for c, _ in pieces)
        codes = _mapped(total, np.int64)
        counts = _mapped(total, np.int64)
        cuts = np.unique(np.concatenate([c[_MERGE_SLICE::_MERGE_SLICE] for c, _ in pieces]))
        bounds = [np.concatenate(([0], np.searchsorted(c, cuts), [c.size])) for c, _ in pieces]
        at = 0
        for r in range(cuts.size + 1):
            part = np.concatenate([c[b[r] : b[r + 1]] for (c, _), b in zip(pieces, bounds)])
            weight = np.concatenate([n[b[r] : b[r + 1]] for (_, n), b in zip(pieces, bounds)])
            order = part.argsort(kind="stable")
            part = part[order]
            starts = np.flatnonzero(np.concatenate(([True], part[1:] != part[:-1])))
            codes[at : at + starts.size] = part[starts]
            np.add.reduceat(weight[order], starts, out=counts[at : at + starts.size])
            at += starts.size
        self.cond_codes, self.cond_counts = codes[:at], counts[:at]

    def to_json_dict(self) -> dict:
        """``dims``, ``visited`` and every held aggregate but the condensate counts."""
        data: dict = {"dims": list(self.dims)}
        for name, (aggregate, shape) in _ENTRIES.items():
            value = getattr(self, name)
            if aggregate != "cond_counts" and value is not None:
                data[name] = value if shape(*self.dims) == () else value.tolist()
        return data


# --- checkpointing -----------------------------------------------------------


def save_checkpoint(path: str, cfg: CensusConfig, result: CensusResult, next_chunk: int) -> None:
    """Write ``result`` as the state of ``cfg``'s census before chunk ``next_chunk``.

    The file is an uncompressed ``.npz`` archive: ``header``, int64
    ``[version, s, t, chunk size, next chunk, fixed-bit mask, fixed-bit
    value, aggregate mask]``, and one int64 array per ``_ENTRIES`` name
    the result holds (a scalar as a 0-d array).  Bit b of the aggregate
    mask is set when the result holds ``AGGREGATE_NAMES[b]``, so a reader
    can tell a member lost to damage from an aggregate never computed.
    It is written beside ``path`` and moved over it, so a crash mid-write
    leaves the previous checkpoint whole.
    """
    result.settle()
    s, t = cfg.dims
    held = sum(1 << AGGREGATE_NAMES.index(name) for name in result.aggregate_names())
    header = [
        CHECKPOINT_VERSION, s, t, cfg.chunk_size, next_chunk, *_fixed_bits(cfg.filters, t), held
    ]
    entries = {
        name: np.asarray(getattr(result, name), dtype=np.int64)
        for name in _ENTRIES
        if getattr(result, name) is not None
    }
    tmp = path + ".tmp"
    # A file object, since np.savez adds ".npz" to a bare file name.
    with open(tmp, "wb") as fh:
        np.savez(fh, header=np.array(header, dtype=np.int64), **entries)
    os.replace(tmp, path)


def load_checkpoint(path: str, cfg: CensusConfig) -> tuple[CensusResult, int]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises:
        FileNotFoundError: if there is no file at ``path``.
        ValueError: if the file is not a checkpoint of this census (other
            version, dimensions, chunk size or filters), or is truncated or
            corrupt, or its members are not the aggregates its header names.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            names = archive.files
            arrays = {name: archive[name] for name in names}
    except FileNotFoundError:
        raise
    except Exception as exc:
        # A damaged archive fails in zipfile, the .npy header parser or
        # the member reads, each with its own exception type.
        raise ValueError(
            f"truncated or corrupt census checkpoint: {type(exc).__name__}: {exc}"
        ) from None
    header = arrays.pop("header", None)
    if not _is_int64(header) or header.ndim != 1 or header.size == 0:
        raise ValueError("corrupt census checkpoint: no int64 header")
    # The version first: the header's length changes between versions.
    if header[0] != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {header[0]} (this build reads {CHECKPOINT_VERSION})"
        )
    if header.size != 8:
        raise ValueError("corrupt census checkpoint: no int64 header of 8 fields")
    _, s, t, chunk_size, next_chunk, mask, value, held = header.tolist()
    if (s, t) != cfg.dims or chunk_size != cfg.chunk_size:
        raise ValueError("checkpoint does not match the requested census")
    if (mask, value) != _fixed_bits(cfg.filters, t):
        raise ValueError("checkpoint was written by a census with other entry filters")
    if not 0 <= next_chunk <= -(-(1 << (s * t)) // chunk_size):
        raise ValueError("corrupt census checkpoint: next chunk out of range")
    held_names = {agg for b, agg in enumerate(AGGREGATE_NAMES) if held >> b & 1}
    members = {name for name, (agg, _) in _ENTRIES.items() if agg is None or agg in held_names}
    if held >> len(AGGREGATE_NAMES) or len(names) != len(set(names)) or set(arrays) != members:
        raise ValueError(f"corrupt census checkpoint: entries {sorted(names)}")

    result = CensusResult(dims=(s, t))
    for name, arr in arrays.items():
        want = _ENTRIES[name][1](s, t)
        if (
            not _is_int64(arr)
            or (arr.ndim != 1 if want is None else arr.shape != want)
            or (arr < 0).any()
        ):
            raise ValueError(f"corrupt census checkpoint: bad entry {name!r}")
        setattr(result, name, int(arr) if want == () else arr)
    if result.cond_codes is not None:
        codes = result.cond_codes
        if (
            codes.size != result.cond_counts.size
            or (codes.size and codes[-1] >= 3 ** ((s - 1) * (t - 1)))
            or (np.diff(codes) <= 0).any()
        ):
            raise ValueError("corrupt census checkpoint: bad condensate codes")
    return result, next_chunk


def _is_int64(arr) -> bool:
    """Whether ``arr`` is a native int64 array (an archive member that is no
    ``.npy`` file reads as bytes)."""
    return isinstance(arr, np.ndarray) and arr.dtype == np.int64


def run_census(
    cfg: CensusConfig,
    aggregates: tuple[str, ...],
    resume: bool = False,
) -> CensusResult:
    """Visit every admissible sign matrix once and merge the aggregates.

    Chunks that hold no admissible code get no task.  Chunk results are
    merged in code order regardless of the worker count; with a
    checkpoint path, partial aggregates are flushed once the run passes
    each multiple of ``_FLUSH_EVERY`` (4) chunks and at the end, and a run
    can resume from the saved state.

    Raises:
        FileNotFoundError: on resume, if there is no checkpoint file.
        ValueError: on resume, if the checkpoint is not one of this census
            with these aggregates, or is corrupt.
    """
    cfg.validate()
    unknown = set(aggregates) - set(AGGREGATE_NAMES)
    if unknown:
        raise ValueError(f"unknown aggregates: {sorted(unknown)}")
    s, t = cfg.dims
    total = 1 << (s * t)
    n_chunks = (total + cfg.chunk_size - 1) // cfg.chunk_size

    start_chunk = 0
    result = CensusResult.empty(cfg.dims, aggregates)
    if resume:
        if not (cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path)):
            raise FileNotFoundError(f"no checkpoint to resume at {cfg.checkpoint_path}")
        result, start_chunk = load_checkpoint(cfg.checkpoint_path, cfg)
        held = result.aggregate_names()
        if set(held) != set(aggregates):
            raise ValueError(
                f"checkpoint holds aggregates {list(held)}, not the requested {sorted(aggregates)}"
            )

    chunks = _nonempty_chunks(cfg, start_chunk, n_chunks)
    tasks = [
        (
            s,
            t,
            c * cfg.chunk_size,
            min((c + 1) * cfg.chunk_size, total),
            tuple(aggregates),
            cfg.filters,
        )
        for c in chunks
    ]
    workers = parallel.resolve_workers(cfg.worker_count)
    saved = start_chunk
    for c, chunk in zip(chunks, parallel.run_tasks_iter(_chunk_task, tasks, workers)):
        result.merge_chunk(chunk)
        if cfg.checkpoint_path and (c + 1) // _FLUSH_EVERY > saved // _FLUSH_EVERY:
            saved = c + 1
            save_checkpoint(cfg.checkpoint_path, cfg, result, saved)
    if cfg.checkpoint_path and saved < n_chunks:
        save_checkpoint(cfg.checkpoint_path, cfg, result, n_chunks)
    result.settle()
    return result


def _nonempty_chunks(cfg: CensusConfig, start: int, stop: int) -> list[int]:
    """The chunks in ``[start, stop)`` that hold an admissible code.

    From each chunk, jump to the chunk of the next admissible code, so
    chunks that the filters leave empty cost nothing.
    """
    s, t = cfg.dims
    mask, value = _fixed_bits(cfg.filters, t)
    runs = _free_runs(s * t, mask)
    admissible = 1 << (s * t - mask.bit_count())
    chunks = []
    c = start
    while c < stop:
        x = _count_below(c * cfg.chunk_size, runs, value)
        if x == admissible:
            break
        c = _deposit(x, runs, value) // cfg.chunk_size
        chunks.append(c)
        c += 1
    return chunks


# --- derived censuses --------------------------------------------------------


def binary_rank_counts(rows: int, cols: int) -> np.ndarray:
    """Rank histogram of all {0,1} matrices of the given shape."""
    if rows * cols > BUDGET_LOG2:
        raise BudgetExceeded("binary census too large")
    return _rank_supp_counts(rows, cols, 2, 0).sum(axis=1)


def ternary_rank_supp_counts(rows: int, cols: int) -> np.ndarray:
    """Joint (rank, support size) histogram of all {-1,0,+1} matrices."""
    if 3 ** (rows * cols) > (1 << 27):
        raise BudgetExceeded("ternary census too large")
    return _rank_supp_counts(rows, cols, 3, -1)


def _rank_supp_counts(rows: int, cols: int, base: int, offset: int) -> np.ndarray:
    """Joint (rank, support size) histogram of all matrices with entries in
    ``offset .. offset + base - 1``.

    Code c is the matrix whose row-major entry b is digit b of c in base
    ``base``, plus ``offset``; codes are decoded ``_TILE`` at a time, so
    memory is O(``_TILE``).
    """
    cells = rows * cols
    joint = np.zeros((min(rows, cols) + 1, cells + 1), dtype=np.int64)
    total = base**cells
    for first, n in _tiles(0, total):
        digits = _digits(np.arange(first, first + n, dtype=np.int64), base, rows, cols)
        digits += offset
        supp = np.count_nonzero(digits, axis=0)
        ranks = _rank_soa(digits.reshape(rows, cols, -1))
        joint += np.bincount(ranks * (cells + 1) + supp, minlength=joint.size).reshape(joint.shape)
    return joint


@dataclass
class RankCensus:
    """Rank histograms of the three coupled enumeration spaces."""

    dims: tuple[int, int]
    pm_rank_counts: list[int]
    binary_rank_counts: list[int]
    condensate_rank_counts: list[int]
    # Sign matrices whose rank is not their condensate's rank plus one;
    # reported by the census checks, not by verify() or the JSON form.
    rank_drop_violations: int

    def verify(self) -> dict:
        """Exact-count identities tying the three histograms together."""
        s, t = self.dims
        pm, cond, binary = self.pm_rank_counts, self.condensate_rank_counts, self.binary_rank_counts
        scale = 1 << (s + t - 1)
        shift = [
            {"r": r, "pm": pm[r], "cond_shifted": cond[r - 1], "equal": pm[r] == cond[r - 1]}
            for r in range(1, min(s, t) + 1)
        ]
        forget = [
            {"r": r, "cond": c, "binary_scaled": b, "equal": c == b}
            for r, c, b in ((r, cond[r], binary[r] * scale) for r in range(min(s, t)))
        ]
        checks: dict = {
            "pm_total_ok": sum(pm) == 1 << (s * t),
            "binary_total_ok": sum(binary) == 1 << ((s - 1) * (t - 1)),
            "condensate_total_ok": sum(cond) == 1 << (s * t),
            "rank_shift": shift,
            "sign_forgetting": forget,
        }
        totals_ok = checks["pm_total_ok"] and checks["binary_total_ok"] and checks["condensate_total_ok"]
        checks["all_ok"] = totals_ok and all(c["equal"] for c in shift + forget)
        return checks

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "rank_pm": self.pm_rank_counts,
            "rank_binary": self.binary_rank_counts,
            "rank_condensate": self.condensate_rank_counts,
            "checks": self.verify(),
        }


def rank_census(s: int, t: int, workers: int | None = None) -> RankCensus:
    """Joint rank census of sign matrices, their condensates, and patterns."""
    cfg = CensusConfig(dims=(s, t), worker_count=workers)
    result = run_census(cfg, aggregates=("rank_pm", "rank_cond", "rank_drop_violations"))
    return RankCensus(
        dims=(s, t),
        pm_rank_counts=result.rank_pm.tolist(),
        binary_rank_counts=binary_rank_counts(s - 1, t - 1).tolist(),
        condensate_rank_counts=result.rank_cond.tolist(),
        rank_drop_violations=result.rank_drop_violations,
    )


@dataclass
class SingularReport:
    """Exact singular count at size n plus the relative inequality's sides."""

    n: int
    singular_count: int
    total: int
    q4_left: int
    q4_right: Fraction


def singular_count(n: int, workers: int | None = None) -> SingularReport:
    """Count singular n x n sign matrices; emit both sides of the
    support-weighted reformulation (no asymptotic claim asserted).

    Raises:
        BudgetExceeded: for n > 5, from :meth:`CensusConfig.validate`.
    """
    cfg = CensusConfig(dims=(n, n), worker_count=workers)
    result = run_census(cfg, aggregates=("rank_pm",))
    singular = int(sum(result.rank_pm[:n]))
    binary = binary_rank_counts(n - 1, n - 1)
    q4_left = int(binary[: n - 1].sum())
    joint = ternary_rank_supp_counts(n - 1, n - 1)
    q4_right = Fraction(0)
    for r in range(n - 1):
        for supp in range((n - 1) ** 2 + 1):
            if joint[r][supp]:
                q4_right += Fraction(int(joint[r][supp]), 2**supp)
    return SingularReport(
        n=n,
        singular_count=singular,
        total=1 << (n * n),
        q4_left=q4_left,
        q4_right=q4_right,
    )


# A check of the engine, not part of it: it stays in this module only because
# perfbench/layers.py imports it from here.  Its home is chio.verify.
def kwise_agreement_check(n: int, workers: int | None = None) -> dict:
    """Compare empirical event measures against the lazy coin flip values.

    For every entry-specification event on the full grid with at most six
    specified entries (``enumerate_failures`` stops at six): events with
    at most three entries must agree exactly; for four to six entries the
    disagreeing events must be exactly the enumerated failure set.  Also
    cross-checks every empirical count against the balance/component formula.

    Raises:
        BudgetExceeded: for n > 4 (the event table needs a full census).
    """
    from .failure_enum import enumerate_failures
    from .measures import Event, fibre_cardinality

    if n > 4:
        raise BudgetExceeded("empirical k-wise check supports n <= 4")
    m = (n - 1) ** 2
    res = run_census(CensusConfig(dims=(n, n), worker_count=workers), aggregates=("cond_counts",))
    cube = np.zeros(3**m, dtype=np.int64)
    cube[res.cond_codes] = res.cond_counts
    # Base-3 digit b of a condensate code is axis m-1-b of the cube.
    cube = cube.reshape((3,) * m)

    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    report: dict = {"n": n, "per_k": []}
    for k in range(min(m, 6) + 1):
        events = 0
        disagreements: set[tuple] = set()
        formula_mismatches = 0
        for subset in combinations(range(m), k):
            # Summing out the other digits, in int64, leaves the kept axes
            # highest digit first, so marg[a] is indexed like the codes.
            summed = tuple(m - 1 - b for b in range(m) if b not in subset)
            marg = cube.sum(axis=summed).reshape(-1)
            for a in range(3**k):
                values = tuple((a // 3**b) % 3 - 1 for b in range(k))
                supp = sum(1 for v in values if v)
                events += 1
                expected_lcf = 1 << (n * n - k - supp)
                entries = {positions[p]: v for p, v in zip(subset, values)}
                matrix = PartialTernaryMatrix((n, n), entries)
                event = Event.on_full_grid(matrix)
                if int(marg[a]) != fibre_cardinality(event):
                    formula_mismatches += 1
                if int(marg[a]) != expected_lcf:
                    key = (tuple(positions[p] for p in subset), values)
                    disagreements.add(key)
        entry = {
            "k": k,
            "events": events,
            "disagreements": len(disagreements),
            "formula_mismatches": formula_mismatches,
        }
        if k <= 3:
            entry["matches_failure_set"] = len(disagreements) == 0
        else:
            failure_keys = {(rec.positions, rec.values) for rec in enumerate_failures(k, n)}
            entry["matches_failure_set"] = disagreements == failure_keys
        report["per_k"].append(entry)
    report["all_ok"] = all(
        e["matches_failure_set"] and e["formula_mismatches"] == 0
        for e in report["per_k"]
    )
    return report
