"""Exhaustive censuses over sign matrices: empirical ground truth.

Matrices in {-1,+1}^(s x t) are encoded as (s*t)-bit integers (bit set
means entry +1, row-major).  Chunks of codes are decoded and processed
with vectorized exact integer arithmetic: condensation is a bitwise
2x2-minor computation, rank a batched Bareiss elimination with exact
division, in the narrowest integer dtype that the Hadamard bound of the
input proves safe (inputs whose bound overflows int64 are refused).  No
floating point is used anywhere.

Aggregates (rank histograms, condensate preimage counts, edge-marginal
pair counts, rank-drop violations) are merged per chunk in a fixed
order, so results are bit-identical for any worker count, and may be
flushed to a versioned binary checkpoint for resumable large runs.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .matrix_core import Index2, PartialTernaryMatrix
from . import parallel

DEFAULT_BUDGET_LOG2 = 25
CHECKPOINT_MAGIC = b"CHIOCENS\0"
CHECKPOINT_VERSION = 1

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


def batch_rank(mats: np.ndarray) -> np.ndarray:
    """Exact integer rank of a batch of small matrices, vectorized.

    The Bareiss recurrence of :func:`chio.matrix_core.rank_int` (full
    pivoting, exact division by the previous pivot) on every matrix at
    once; a matrix whose trailing block is zero keeps its previous pivot
    as divisor, so the block stays zero.  Intermediates are minors, at
    most the Hadamard bound ``H = M^k k^(k/2)`` (``M`` the largest entry
    magnitude, ``k = min(rows, cols)``), and the work dtype is the
    narrowest of int16, int32 and int64 that holds ``2 H^2``.

    Raises:
        ValueError: if ``2 H^2`` does not fit in int64.
    """
    mats = np.asarray(mats)
    n, r, c = mats.shape
    k_max = min(r, c)
    m = max(int(mats.max()), -int(mats.min())) if mats.size else 0
    bound = 2 * m ** (2 * k_max) * k_max**k_max
    fits = [d for d in (np.int16, np.int32, np.int64) if bound <= np.iinfo(d).max]
    if not fits:
        raise ValueError(
            f"batch_rank: Hadamard bound of {r}x{c} matrices with entries up to {m} "
            "overflows int64"
        )
    work = mats.astype(fits[0])
    rank = np.zeros(n, dtype=np.int64)
    prev = np.ones(n, dtype=work.dtype)
    for k in range(k_max):
        trailing = (work[:, k:, k:] != 0).reshape(n, (r - k) * (c - k))
        has = trailing.any(axis=1)
        rank += has
        if k + 1 == k_max:
            break
        first = trailing.argmax(axis=1)
        pi = first // (c - k) + k
        pj = first % (c - k) + k
        # Swap only where needed; rows above k and columns left of k are
        # never read again.
        rows = np.flatnonzero(pi != k)
        p = pi[rows]
        pivot_rows = work[rows, p, k:]
        work[rows, p, k:] = work[rows, k, k:]
        work[rows, k, k:] = pivot_rows
        cols = np.flatnonzero(pj != k)
        q = pj[cols]
        pivot_cols = work[cols, k:, q]
        work[cols, k:, q] = work[cols, k:, k]
        work[cols, k:, k] = pivot_cols
        pivot = work[:, k, k]
        factor = work[:, k + 1 :, k, None]
        head = work[:, None, k, k + 1 :]
        block = work[:, k + 1 :, k + 1 :]
        block[...] = (block * pivot[:, None, None] - factor * head) // prev[:, None, None]
        prev = np.where(has, pivot, prev)
    return rank


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


def _chunk_task(args: tuple) -> dict:
    """Process one contiguous range of matrix codes."""
    s, t, lo, hi, names, filters = args
    st = s * t
    m = (s - 1) * (t - 1)
    codes = np.arange(lo, hi, dtype=np.int64)
    if filters:
        keep = np.ones(codes.shape, dtype=bool)
        for (i, j), sign in filters.items():
            bit = (codes >> _bit_index(i, j, t)) & 1
            keep &= bit == (1 if sign == 1 else 0)
        codes = codes[keep]
    out: dict[str, object] = {"visited": int(codes.size)}
    if codes.size == 0:
        return out

    shifts = np.arange(st, dtype=np.int64)
    entries = (2 * ((codes[:, None] >> shifts) & 1) - 1).astype(np.int8)

    cond = None
    if {"rank_cond", "cond_counts", "edge_pairs", "rank_drop_violations"} & set(names):
        cond = np.empty((codes.size, m), dtype=np.int8)
        pivot = entries[:, _bit_index(s, t, t)]
        for i in range(1, s):
            for j in range(1, t):
                minor = entries[:, _bit_index(i, j, t)] * pivot - entries[
                    :, _bit_index(i, t, t)
                ] * entries[:, _bit_index(s, j, t)]
                cond[:, (i - 1) * (t - 1) + (j - 1)] = minor >> 1

    rank_pm = None
    if {"rank_pm", "rank_drop_violations"} & set(names):
        rank_pm = batch_rank(entries.reshape(-1, s, t))
        if "rank_pm" in names:
            out["rank_pm"] = np.bincount(rank_pm, minlength=min(s, t) + 1)

    rank_cond = None
    if {"rank_cond", "rank_drop_violations"} & set(names):
        rank_cond = batch_rank(cond.reshape(-1, s - 1, t - 1))
        if "rank_cond" in names:
            out["rank_cond"] = np.bincount(rank_cond, minlength=min(s - 1, t - 1) + 1)

    if "rank_drop_violations" in names:
        out["rank_drop_violations"] = int((rank_pm != rank_cond + 1).sum())

    if "cond_counts" in names:
        powers = 3 ** np.arange(m, dtype=np.int64)
        codes3 = (cond.astype(np.int64) + 1) @ powers
        uniq, counts = np.unique(codes3, return_counts=True)
        out["cond_counts"] = (uniq, counts.astype(np.int64))

    if "edge_pairs" in names:
        nz = (cond != 0).astype(np.int64)
        out["edge_pairs"] = nz.T @ nz

    return out


@dataclass
class CensusResult:
    """Merged aggregates of one census run."""

    dims: tuple[int, int]
    visited: int = 0
    rank_pm: np.ndarray | None = None
    rank_cond: np.ndarray | None = None
    cond_counts: np.ndarray | None = None  # dense int64, length 3^((s-1)(t-1))
    edge_pairs: np.ndarray | None = None
    rank_drop_violations: int | None = None

    def merge_chunk(self, chunk: dict) -> None:
        self.visited += chunk["visited"]
        if "rank_pm" in chunk:
            if self.rank_pm is None:
                self.rank_pm = np.zeros_like(chunk["rank_pm"])
            self.rank_pm += chunk["rank_pm"]
        if "rank_cond" in chunk:
            if self.rank_cond is None:
                self.rank_cond = np.zeros_like(chunk["rank_cond"])
            self.rank_cond += chunk["rank_cond"]
        if "rank_drop_violations" in chunk:
            if self.rank_drop_violations is None:
                self.rank_drop_violations = 0
            self.rank_drop_violations += chunk["rank_drop_violations"]
        if "cond_counts" in chunk:
            s, t = self.dims
            if self.cond_counts is None:
                self.cond_counts = np.zeros(3 ** ((s - 1) * (t - 1)), dtype=np.int64)
            uniq, counts = chunk["cond_counts"]
            np.add.at(self.cond_counts, uniq, counts)
        if "edge_pairs" in chunk:
            if self.edge_pairs is None:
                self.edge_pairs = np.zeros_like(chunk["edge_pairs"])
            self.edge_pairs += chunk["edge_pairs"]

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


def save_checkpoint(path: str, cfg: CensusConfig, result: CensusResult, next_chunk: int) -> None:
    s, t = cfg.dims
    blobs = [_pack_scalar("visited", result.visited)]
    if result.rank_pm is not None:
        blobs.append(_pack_array("rank_pm", result.rank_pm))
    if result.rank_cond is not None:
        blobs.append(_pack_array("rank_cond", result.rank_cond))
    if result.rank_drop_violations is not None:
        blobs.append(_pack_scalar("rank_drop_violations", result.rank_drop_violations))
    if result.cond_counts is not None:
        blobs.append(_pack_array("cond_counts", result.cond_counts))
    if result.edge_pairs is not None:
        blobs.append(_pack_array("edge_pairs", result.edge_pairs))
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIIQQI", CHECKPOINT_VERSION, s, t, cfg.chunk_size, next_chunk, len(blobs)
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        for blob in blobs:
            fh.write(blob)
    os.replace(tmp, path)


def _unpack(fmt: str, raw: bytes, off: int) -> tuple[tuple, int]:
    """Unpack ``fmt`` at ``off``; running out of bytes means a bad checkpoint."""
    try:
        return struct.unpack_from(fmt, raw, off), off + struct.calcsize(fmt)
    except struct.error:
        raise ValueError("truncated or corrupt census checkpoint") from None


def load_checkpoint(path: str, cfg: CensusConfig) -> tuple[CensusResult, int]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises:
        ValueError: if the file is not a checkpoint of this census, or is
            truncated or corrupt.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError("not a census checkpoint (bad magic)")
    header, off = _unpack("<IIIQQI", raw, len(CHECKPOINT_MAGIC))
    version, s, t, chunk_size, next_chunk, n_blobs = header
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if (s, t) != cfg.dims or chunk_size != cfg.chunk_size:
        raise ValueError("checkpoint does not match the requested census")
    result = CensusResult(dims=(s, t))
    for _ in range(n_blobs):
        (name_len,), off = _unpack("<I", raw, off)
        name = raw[off : off + name_len].decode()
        off += name_len
        if name != "visited" and name not in AGGREGATE_NAMES:
            raise ValueError(f"corrupt census checkpoint: unknown entry {name!r}")
        (kind,), off = _unpack("<B", raw, off)
        if kind == 0:
            (value,), off = _unpack("<Q", raw, off)
            setattr(result, name, int(value))
        elif kind == 1:
            (length,), off = _unpack("<Q", raw, off)
            arr = np.frombuffer(raw, dtype="<u8", count=length, offset=off).astype(np.int64)
            off += 8 * length
            setattr(result, name, arr)
        elif kind == 2:
            (rows, cols), off = _unpack("<II", raw, off)
            arr = np.frombuffer(raw, dtype="<u8", count=rows * cols, offset=off)
            off += 8 * rows * cols
            setattr(result, name, arr.astype(np.int64).reshape(rows, cols))
        else:
            raise ValueError(f"unknown checkpoint blob kind {kind}")
    return result, next_chunk


def run_census(
    cfg: CensusConfig,
    aggregates: tuple[str, ...] = ("rank_pm", "rank_cond", "rank_drop_violations"),
    resume: bool = False,
) -> CensusResult:
    """Visit every admissible sign matrix once and merge the aggregates.

    Chunk results are merged in code order regardless of the worker
    count; with a checkpoint path, partial aggregates are flushed every
    ``flush_every`` chunks and a run can resume from the saved state.
    """
    cfg.validate()
    unknown = set(aggregates) - set(AGGREGATE_NAMES)
    if unknown:
        raise ValueError(f"unknown aggregates: {sorted(unknown)}")
    s, t = cfg.dims
    total = 1 << (s * t)
    n_chunks = (total + cfg.chunk_size - 1) // cfg.chunk_size

    start_chunk = 0
    result = CensusResult(dims=cfg.dims)
    if resume and cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path):
        result, start_chunk = load_checkpoint(cfg.checkpoint_path, cfg)

    tasks = [
        (
            s,
            t,
            c * cfg.chunk_size,
            min((c + 1) * cfg.chunk_size, total),
            tuple(aggregates),
            cfg.filters,
        )
        for c in range(start_chunk, n_chunks)
    ]
    workers = parallel.resolve_workers(cfg.worker_count)
    done = start_chunk
    for chunk in parallel.run_tasks_iter(_chunk_task, tasks, workers):
        result.merge_chunk(chunk)
        done += 1
        if cfg.checkpoint_path and (
            done % cfg.flush_every == 0 or done == n_chunks
        ):
            save_checkpoint(cfg.checkpoint_path, cfg, result, done)
    return result


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
    return result.cond_counts


def binary_rank_counts(rows: int, cols: int) -> np.ndarray:
    """Rank histogram of all {0,1} matrices of the given shape."""
    cells = rows * cols
    if cells > DEFAULT_BUDGET_LOG2:
        raise BudgetExceeded("binary census too large")
    codes = np.arange(1 << cells, dtype=np.int64)
    shifts = np.arange(cells, dtype=np.int64)
    entries = ((codes[:, None] >> shifts) & 1).astype(np.int64)
    ranks = batch_rank(entries.reshape(-1, rows, cols))
    return np.bincount(ranks, minlength=min(rows, cols) + 1)


def ternary_rank_supp_counts(rows: int, cols: int, chunk: int = 1 << 18) -> np.ndarray:
    """Joint (rank, support size) histogram of all {-1,0,+1} matrices."""
    cells = rows * cols
    if 3**cells > (1 << 27):
        raise BudgetExceeded("ternary census too large")
    powers = 3 ** np.arange(cells, dtype=np.int64)
    joint = np.zeros((min(rows, cols) + 1, cells + 1), dtype=np.int64)
    total = 3**cells
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = (codes[:, None] // powers) % 3 - 1
        supp = (digits != 0).sum(axis=1)
        ranks = batch_rank(digits.reshape(-1, rows, cols))
        flat = ranks * (cells + 1) + supp
        joint += np.bincount(
            flat, minlength=joint.size
        ).reshape(joint.shape)
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
    counts = empirical_p_chio(n, workers=workers)
    codes = np.arange(counts.size, dtype=np.int64)
    powers = 3 ** np.arange(m, dtype=np.int64)
    digits = ((codes[:, None] // powers) % 3).astype(np.int64)

    positions = [(i, j) for i in range(1, n) for j in range(1, n)]
    report: dict = {"n": n, "per_k": []}
    for k in range(k_max + 1):
        events = 0
        disagreements: set[tuple] = set()
        formula_mismatches = 0
        for subset in combinations(range(m), k):
            if k:
                proj = digits[:, subset] @ (3 ** np.arange(k, dtype=np.int64))
            else:
                proj = np.zeros(counts.size, dtype=np.int64)
            marg = np.zeros(3**k, dtype=np.int64)
            np.add.at(marg, proj, counts)
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
