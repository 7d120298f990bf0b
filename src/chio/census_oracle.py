"""Exhaustive censuses over sign matrices: empirical ground truth.

Matrices in {-1,+1}^(s x t) are encoded as (s*t)-bit integers (bit set
means entry +1, row-major), and the census walks the code range in
fixed chunks.  Entry filters fix some code bits; a chunk generates only
the codes that agree with them, by depositing a range of integers into
the free bits (an unfiltered chunk is its code range itself).  Codes
are decoded into a structure-of-arrays batch, one contiguous length-N
int8 vector per matrix entry, so that every vectorized step runs over
whole batch vectors.  Condensation is a 2x2-minor computation on those
vectors.  Rank is a batched Bareiss elimination with column pivoting
(:func:`_rank_soa`) in the narrowest integer dtype that the Hadamard
bound of the input proves safe (inputs whose bound overflows int64 are
refused); its exact divisions are a shift and a multiplication by a
2-adic inverse.  No floating point is used anywhere.

Aggregates (rank histograms, condensate preimage counts, edge-marginal
pair counts, rank-drop violations) are merged per chunk in a fixed
order, so results are bit-identical for any worker count and chunk
size.  Condensate counts are sparse: the sorted codes of the condensates
seen, with their counts.  Partial aggregates may be flushed to a
versioned binary checkpoint that records the filters and the aggregates
it holds, so a run resumes only into the census that wrote it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import numpy as np

from .matrix_core import Index2, PartialTernaryMatrix
from . import parallel

DEFAULT_BUDGET_LOG2 = 25
CHECKPOINT_MAGIC = b"CHIOCENS\0"
CHECKPOINT_VERSION = 2

AGGREGATE_NAMES = (
    "rank_pm",
    "rank_cond",
    "cond_counts",
    "edge_pairs",
    "rank_drop_violations",
)


class BudgetExceeded(Exception):
    """Enumeration space larger than the configured budget."""


@dataclass(frozen=True)
class CensusConfig:
    """Parameters of one exhaustive run over {-1,+1}^(s x t)."""

    dims: tuple[int, int]
    worker_count: int | None = None
    chunk_size: int = 1 << 18
    budget_log2: int = DEFAULT_BUDGET_LOG2
    checkpoint_path: str | None = None
    flush_every: int = 16
    filters: dict[Index2, int] | None = None

    def validate(self) -> None:
        s, t = self.dims
        if s < 2 or t < 2:
            raise ValueError("census dims must both be >= 2")
        if s * t > self.budget_log2:
            raise BudgetExceeded(
                f"2^{s * t} matrices exceed the 2^{self.budget_log2} budget"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        for (i, j), sign in (self.filters or {}).items():
            if not (1 <= i <= s and 1 <= j <= t) or sign not in (-1, 1):
                raise ValueError(f"bad census filter: entry {(i, j)} fixed to {sign}")


def batch_rank(mats: np.ndarray) -> np.ndarray:
    """Exact integer rank of each matrix of an ``(n, rows, cols)`` batch.

    The batch is transposed once into a structure-of-arrays (SoA) layout,
    ``(rows, cols, n)``: one length-n vector per matrix entry, so every
    step is a ufunc over whole length-n vectors (see :func:`_rank_soa`).
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
    since rank(A) = rank(A^T).

    By Sylvester's identity every intermediate value is a minor of the
    input, so ``prev`` divides each ``x = a[i][l]*pivot - a[i][j]*head[l]``
    and the minors are at most the Hadamard bound ``H = M^k k^(k/2)``
    (``M`` the largest entry magnitude, ``k`` the shorter side).  The work
    dtype is the narrowest of int16, int32 and int64, of ``w`` bits, that
    holds ``2 H^2``, so ``x`` never wraps.  The division uses no ``//``:
    write ``prev = 2^e o`` with ``o`` odd.  Then ``x >> e`` is exact, and
    ``x / prev = (x >> e) * o^-1 mod 2^w``, computed in the unsigned view
    of the dtype, with ``o^-1`` the inverse of ``o`` mod 2^w from Newton's
    iteration ``inv *= 2 - o*inv`` (:func:`_odd_inverse`).  The true
    quotient q is a minor, so ``|q| <= H < 2^(w-1)``, and the signed
    reading of the wrapped product, congruent to q mod 2^w, is q itself.
    No floating point is used.

    Raises:
        ValueError: if ``2 H^2`` does not fit in int64.
    """
    return _rank_soa(np.asarray(mats).transpose(1, 2, 0))


# 2 is a primitive root mod 67, so 2^e mod 67 tells apart every e < 66.
_LOG2_MOD67 = np.zeros(67, dtype=np.int8)
_LOG2_MOD67[[pow(2, e, 67) for e in range(63)]] = np.arange(63)


def _rank_soa(entries: np.ndarray) -> np.ndarray:
    """:func:`batch_rank` of a ``(rows, cols, n)`` batch.

    ``entries[i, j]`` is the length-n vector of entry (i, j) across the
    batch; the input is copied, never written.
    """
    r, c, n = entries.shape
    k = min(r, c)
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
    for j in range(k):
        col = work[:, j]
        # first[i]: row i is the matrix's first row with a nonzero here.
        first = col != 0
        has = first[0].copy()
        for i in range(1, first.shape[0]):
            first[i] &= ~has
            has |= first[i]
        rank += has
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
            block >>= shift
            quotient = block.view(unsigned)
            quotient *= inv
        prev = pivot
        shift, inv = _odd_inverse(prev)
    return rank


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


def condensate_code(matrix: PartialTernaryMatrix) -> int:
    """Base-3 code of a fully specified ternary (s-1) x (t-1) matrix."""
    s, t = matrix.dims
    code = 0
    for i in range(1, s):
        for j in range(1, t):
            idx = (i - 1) * (t - 1) + (j - 1)
            code += (matrix[(i, j)] + 1) * 3**idx
    return code


def decode_condensate(code: int, s: int, t: int) -> PartialTernaryMatrix:
    """Inverse of :func:`condensate_code`."""
    entries = {}
    for i in range(1, s):
        for j in range(1, t):
            entries[(i, j)] = code % 3 - 1
            code //= 3
    return PartialTernaryMatrix((s, t), entries)


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


def _deposit(x, runs: list[tuple[int, int, int]], value: int):
    """The code whose free bits, low to high, are the bits of ``x``.

    Works on Python ints and int64 arrays alike, and is strictly
    increasing in ``x``.
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


_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _bits(codes: np.ndarray, width: int) -> np.ndarray:
    """Bits ``0..width-1`` of int64 codes, as a C-contiguous ``(width, N)`` int8 array of 0/1."""
    raw = codes.astype("<i8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(raw, axis=1, count=width, bitorder="little")
    return np.ascontiguousarray(bits.T).view(np.int8)


def _chunk_task(args: tuple) -> dict:
    """Process the admissible codes of one contiguous code range."""
    s, t, lo, hi, names, filters = args
    st = s * t
    m = (s - 1) * (t - 1)
    mask, value = _fixed_bits(filters, t)
    runs = _free_runs(st, mask)
    x = np.arange(_count_below(lo, runs, value), _count_below(hi, runs, value), dtype=np.int64)
    out: dict[str, object] = {"visited": int(x.size)}
    if x.size == 0:
        return out
    # With every bit fixed, _deposit returns a plain int.
    codes = np.broadcast_to(_deposit(x, runs, value), x.shape)

    entries = _bits(codes, st).reshape(s, t, -1)
    entries <<= 1
    entries -= 1

    cond = None
    if {"rank_cond", "cond_counts", "edge_pairs", "rank_drop_violations"} & set(names):
        # Halved 2x2 minors against the corner entry (s, t), each in {-1, 0, 1}.
        minors = entries[:-1, :-1] * entries[-1, -1] - entries[:-1, -1:] * entries[-1:, :-1]
        cond = (minors >> 1).reshape(m, -1)

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
        powers = 3 ** np.arange(m, dtype=np.int64)
        uniq, counts = np.unique(powers @ (cond + 1), return_counts=True)
        out["cond_counts"] = (uniq, counts.astype(np.int64))

    if "edge_pairs" in names:
        # Pair counts of the nonzero patterns, eight matrices to a byte.
        packed = np.packbits(cond != 0, axis=1)
        both = packed[:, None] & packed[None]
        out["edge_pairs"] = np.take(_POPCOUNT8, both).sum(axis=2, dtype=np.int64)

    return out


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
    # Chunk (codes, counts) pairs not yet folded into cond_codes/cond_counts.
    _pending: list = field(default_factory=list, repr=False, compare=False)
    _pending_size: int = field(default=0, repr=False, compare=False)

    @classmethod
    def empty(cls, dims: tuple[int, int], aggregates: tuple[str, ...]) -> CensusResult:
        """A result holding zero for each named aggregate."""
        layouts = _entry_layouts(*dims)
        result = cls(dims=dims)
        for name in _entry_names(aggregates)[1:]:
            kind, shape = layouts[name]
            setattr(result, name, 0 if kind == 0 else np.zeros(shape or 0, dtype=np.int64))
        return result

    def aggregate_names(self) -> tuple[str, ...]:
        """The aggregates this result holds, in ``AGGREGATE_NAMES`` order."""
        return tuple(name for name in AGGREGATE_NAMES if getattr(self, name) is not None)

    def merge_chunk(self, chunk: dict) -> None:
        """Add one chunk's aggregates; each must already be held (see :meth:`empty`)."""
        self.visited += chunk["visited"]
        for name, value in chunk.items():
            if name == "cond_counts":
                self._pending.append(value)
                self._pending_size += value[0].size
                if self._pending_size >= self.cond_codes.size:
                    self.settle()
            elif name != "visited":
                setattr(self, name, getattr(self, name) + value)

    def settle(self) -> None:
        """Fold the pending chunk counts into ``cond_codes``/``cond_counts``.

        Merging only once the pending pairs are as large as the merged
        ones keeps the total cost at O(N log N) for N codes seen.  Every
        piece is a sorted run of distinct codes.  The code range is cut at
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
        if not self._pending:
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
        data: dict = {"dims": list(self.dims), "visited": self.visited}
        if self.rank_pm is not None:
            data["rank_pm"] = [int(v) for v in self.rank_pm]
        if self.rank_cond is not None:
            data["rank_cond"] = [int(v) for v in self.rank_cond]
        if self.rank_drop_violations is not None:
            data["rank_drop_violations"] = self.rank_drop_violations
        if self.edge_pairs is not None:
            data["edge_pairs"] = [[int(v) for v in row] for row in self.edge_pairs]
        return data


# --- checkpointing -----------------------------------------------------------
#
# Layout (little-endian): magic; u32 version, s, t; u64 chunk size, next
# chunk, fixed-bit mask, fixed-bit value; u32 entry count; entries.  An
# entry is u32 length + name, then kind 0 (u64 scalar), 1 (u64 length +
# u64 values) or 2 (u32 rows, u32 cols + u64 values, row-major).  The
# entries are ``visited`` and the held aggregates (see _entry_names).


def _pack_array(name: str, arr: np.ndarray) -> bytes:
    payload = arr.astype("<u8").tobytes()
    encoded = name.encode()
    if arr.ndim == 1:
        head = struct.pack("<I", len(encoded)) + encoded + struct.pack("<BQ", 1, arr.shape[0])
    else:
        head = struct.pack("<I", len(encoded)) + encoded + struct.pack(
            "<BII", 2, arr.shape[0], arr.shape[1]
        )
    return head + payload


def _pack_scalar(name: str, value: int) -> bytes:
    encoded = name.encode()
    return struct.pack("<I", len(encoded)) + encoded + struct.pack("<BQ", 0, value)


def _entry_names(aggregates: tuple[str, ...]) -> list[str]:
    """Checkpoint entries that hold ``visited`` and the named aggregates."""
    names = ["visited"]
    for name in aggregates:
        names.extend(("cond_codes", "cond_counts") if name == "cond_counts" else (name,))
    return names


def _entry_layouts(s: int, t: int) -> dict[str, tuple[int, tuple[int, ...] | None]]:
    """Kind and shape of each checkpoint entry; ``None`` is any length."""
    m = (s - 1) * (t - 1)
    return {
        "visited": (0, ()),
        "rank_drop_violations": (0, ()),
        "rank_pm": (1, (min(s, t) + 1,)),
        "rank_cond": (1, (min(s - 1, t - 1) + 1,)),
        "cond_codes": (1, None),
        "cond_counts": (1, None),
        "edge_pairs": (2, (m, m)),
    }


def _write_checkpoint(path: str, cfg: CensusConfig, next_chunk: int, blobs: list[bytes]) -> None:
    s, t = cfg.dims
    mask, value = _fixed_bits(cfg.filters, t)
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIIQQQQI", CHECKPOINT_VERSION, s, t, cfg.chunk_size, next_chunk, mask, value, len(blobs)
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        for blob in blobs:
            fh.write(blob)
    os.replace(tmp, path)


def save_checkpoint(path: str, cfg: CensusConfig, result: CensusResult, next_chunk: int) -> None:
    """Write ``result`` as the state of ``cfg``'s census before chunk ``next_chunk``."""
    result.settle()
    layouts = _entry_layouts(*cfg.dims)
    blobs = [
        (_pack_array if layouts[name][0] else _pack_scalar)(name, getattr(result, name))
        for name in _entry_names(result.aggregate_names())
    ]
    _write_checkpoint(path, cfg, next_chunk, blobs)


def _unpack(fmt: str, raw: bytes, off: int) -> tuple[tuple, int]:
    """Unpack ``fmt`` at ``off``; running out of bytes means a bad checkpoint."""
    try:
        return struct.unpack_from(fmt, raw, off), off + struct.calcsize(fmt)
    except struct.error:
        raise ValueError("truncated or corrupt census checkpoint") from None


def _read_bytes(raw: bytes, off: int, size: int) -> tuple[bytes, int]:
    if off + size > len(raw):
        raise ValueError("truncated or corrupt census checkpoint")
    return raw[off : off + size], off + size


def load_checkpoint(path: str, cfg: CensusConfig) -> tuple[CensusResult, int]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises:
        ValueError: if the file is not a checkpoint of this census (other
            version, dimensions, chunk size or filters), or is truncated or
            corrupt.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError("not a census checkpoint (bad magic)")
    (version,), off = _unpack("<I", raw, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
        )
    header, off = _unpack("<IIQQQQI", raw, off)
    s, t, chunk_size, next_chunk, mask, value, n_blobs = header
    if (s, t) != cfg.dims or chunk_size != cfg.chunk_size:
        raise ValueError("checkpoint does not match the requested census")
    if (mask, value) != _fixed_bits(cfg.filters, t):
        raise ValueError("checkpoint was written by a census with other entry filters")
    if next_chunk > -(-(1 << (s * t)) // chunk_size):
        raise ValueError("corrupt census checkpoint: next chunk past the end")

    layouts = _entry_layouts(s, t)
    result = CensusResult(dims=(s, t))
    seen: set[str] = set()
    for _ in range(n_blobs):
        (name_len,), off = _unpack("<I", raw, off)
        name, off = _read_bytes(raw, off, name_len)
        name = name.decode()
        if name not in layouts or name in seen:
            raise ValueError(f"corrupt census checkpoint: unexpected entry {name!r}")
        seen.add(name)
        (kind,), off = _unpack("<B", raw, off)
        want_kind, want_shape = layouts[name]
        if kind != want_kind:
            raise ValueError(f"corrupt census checkpoint: entry {name!r} has kind {kind}")
        if kind == 0:
            (scalar,), off = _unpack("<Q", raw, off)
            setattr(result, name, int(scalar))
            continue
        shape, off = _unpack("<Q" if kind == 1 else "<II", raw, off)
        if want_shape is not None and shape != want_shape:
            raise ValueError(f"corrupt census checkpoint: entry {name!r} has shape {shape}")
        payload, off = _read_bytes(raw, off, 8 * prod(shape))
        arr = np.frombuffer(payload, dtype="<u8").astype(np.int64).reshape(shape)
        setattr(result, name, arr)
    if "visited" not in seen or ("cond_codes" in seen) != ("cond_counts" in seen):
        raise ValueError(f"corrupt census checkpoint: entries {sorted(seen)}")
    if result.cond_codes is not None:
        codes = result.cond_codes
        if (
            codes.size != result.cond_counts.size
            or (codes.size and (codes[0] < 0 or codes[-1] >= 3 ** ((s - 1) * (t - 1))))
            or (np.diff(codes) <= 0).any()
        ):
            raise ValueError("corrupt census checkpoint: bad condensate codes")
    return result, next_chunk


def run_census(
    cfg: CensusConfig,
    aggregates: tuple[str, ...] = ("rank_pm", "rank_cond", "rank_drop_violations"),
    resume: bool = False,
) -> CensusResult:
    """Visit every admissible sign matrix once and merge the aggregates.

    Chunks that hold no admissible code get no task.  Chunk results are
    merged in code order regardless of the worker count; with a
    checkpoint path, partial aggregates are flushed once the run passes
    each multiple of ``flush_every`` chunks and at the end, and a run can
    resume from the saved state.

    Raises:
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
    if resume and cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path):
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
        if cfg.checkpoint_path and (c + 1) // cfg.flush_every > saved // cfg.flush_every:
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


def empirical_p_chio(n: int, workers: int | None = None) -> np.ndarray:
    """Preimage count of every condensate of {-1,+1}^(n x n).

    Returns a dense int64 array indexed by base-3 condensate code; entry
    ``c`` counts the sign matrices whose half condensation has code ``c``.

    Raises:
        BudgetExceeded: for n > 5.
    """
    if n > 5:
        raise BudgetExceeded("empirical condensate census supports n <= 5")
    cfg = CensusConfig(dims=(n, n), worker_count=workers)
    result = run_census(cfg, aggregates=("cond_counts",))
    counts = np.zeros(3 ** ((n - 1) ** 2), dtype=np.int64)
    counts[result.cond_codes] = result.cond_counts
    return counts


def binary_rank_counts(rows: int, cols: int, chunk: int = 1 << 18) -> np.ndarray:
    """Rank histogram of all {0,1} matrices of the given shape.

    Codes are decoded ``chunk`` at a time, so memory is O(chunk).
    """
    cells = rows * cols
    if cells > DEFAULT_BUDGET_LOG2:
        raise BudgetExceeded("binary census too large")
    counts = np.zeros(min(rows, cols) + 1, dtype=np.int64)
    total = 1 << cells
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        ranks = _rank_soa(_bits(codes, cells).reshape(rows, cols, -1))
        counts += np.bincount(ranks, minlength=counts.size)
    return counts


def ternary_rank_supp_counts(rows: int, cols: int, chunk: int = 1 << 18) -> np.ndarray:
    """Joint (rank, support size) histogram of all {-1,0,+1} matrices."""
    cells = rows * cols
    if 3**cells > (1 << 27):
        raise BudgetExceeded("ternary census too large")
    joint = np.zeros((min(rows, cols) + 1, cells + 1), dtype=np.int64)
    total = 3**cells
    for lo in range(0, total, chunk):
        rest = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = np.empty((cells, rest.size), dtype=np.int8)
        for b in range(cells):
            rest, digits[b] = np.divmod(rest, 3)
        digits -= 1
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

    def verify(self) -> dict:
        """Exact-count identities tying the three histograms together."""
        s, t = self.dims
        inner = (s - 1) * (t - 1)
        checks: dict = {
            "pm_total_ok": sum(self.pm_rank_counts) == 1 << (s * t),
            "binary_total_ok": sum(self.binary_rank_counts) == 1 << inner,
            "condensate_total_ok": sum(self.condensate_rank_counts) == 1 << (s * t),
        }
        shift = []
        for r in range(1, min(s, t) + 1):
            shift.append(
                {
                    "r": r,
                    "pm": self.pm_rank_counts[r],
                    "cond_shifted": self.condensate_rank_counts[r - 1],
                    "equal": self.pm_rank_counts[r] == self.condensate_rank_counts[r - 1],
                }
            )
        checks["rank_shift"] = shift
        scale = 1 << (s * t - inner)
        forget = []
        for r in range(min(s - 1, t - 1) + 1):
            forget.append(
                {
                    "r": r,
                    "cond": self.condensate_rank_counts[r],
                    "binary_scaled": self.binary_rank_counts[r] * scale,
                    "equal": self.condensate_rank_counts[r]
                    == self.binary_rank_counts[r] * scale,
                }
            )
        checks["sign_forgetting"] = forget
        checks["all_ok"] = (
            checks["pm_total_ok"]
            and checks["binary_total_ok"]
            and checks["condensate_total_ok"]
            and all(c["equal"] for c in shift)
            and all(c["equal"] for c in forget)
        )
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
    result = run_census(cfg, aggregates=("rank_pm", "rank_cond"))
    return RankCensus(
        dims=(s, t),
        pm_rank_counts=[int(v) for v in result.rank_pm],
        binary_rank_counts=[int(v) for v in binary_rank_counts(s - 1, t - 1)],
        condensate_rank_counts=[int(v) for v in result.rank_cond],
    )


@dataclass
class SingularReport:
    """Exact singular count at size n plus the relative inequality's sides."""

    n: int
    singular_count: int
    total: int
    q4_left: int
    q4_right: Fraction

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.singular_count, self.total)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "singular": self.singular_count,
            "total": self.total,
            "q4_left": self.q4_left,
            "q4_right": [self.q4_right.numerator, self.q4_right.denominator],
        }


def singular_count(n: int, workers: int | None = None) -> SingularReport:
    """Count singular n x n sign matrices; emit both sides of the
    support-weighted reformulation (no asymptotic claim asserted).

    Raises:
        BudgetExceeded: for n > 5.
    """
    if n > 5:
        raise BudgetExceeded("singular census supports n <= 5")
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


def kwise_agreement_check(n: int, k_max: int = 6, workers: int | None = None) -> dict:
    """Compare empirical event measures against the lazy coin flip values.

    For every entry-specification event on the full grid with at most
    ``k_max`` specified entries: events with at most three entries must
    agree exactly; for four to six entries the disagreeing events must be
    exactly the enumerated failure set.  Also cross-checks every
    empirical count against the balance/component formula.

    Raises:
        BudgetExceeded: for n > 4 (the event table needs a full census).
    """
    from .failure_enum import enumerate_failures
    from .measures import Event, fibre_cardinality

    if n > 4:
        raise BudgetExceeded("empirical k-wise check supports n <= 4")
    m = (n - 1) ** 2
    k_max = min(k_max, m, 6)
    # Base-3 digit b of a condensate code is axis m-1-b of the cube.
    cube = empirical_p_chio(n, workers=workers).reshape((3,) * m)

    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    report: dict = {"n": n, "per_k": []}
    for k in range(k_max + 1):
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
            failure_keys = {
                (
                    tuple(sorted(rec.matrix.entries)),
                    tuple(rec.matrix.entries[p] for p in sorted(rec.matrix.entries)),
                )
                for rec in enumerate_failures(k, n)
            }
            entry["matches_failure_set"] = disagreements == failure_keys
        report["per_k"].append(entry)
    report["all_ok"] = all(
        e["matches_failure_set"] and e["formula_mismatches"] == 0
        for e in report["per_k"]
    )
    return report
