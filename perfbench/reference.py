"""Fixed reference loops that measure the host's speed while a workload runs.

The benchmark host is a shared 2-vCPU machine whose speed drifts: a
fixed pure-Python loop reads up to 1.8 times slower in one half-minute
than in the next, in CPU seconds as well as in wall seconds.  Raw wall
times over ten runs therefore spread far more than any change worth
measuring.  So a workload is timed in short stretches, and after each
stretch :class:`Meter` runs a reference loop for about half as long.  The
two see the same host conditions, so the ratio of workload time to
reference time stays steady while both drift together.

A reference touches no part of chio, so no change to the library moves
it, and it does the kind of work its workload does, because the host's
drift slows kinds of work unequally:

* :data:`PYTHON` (small tuples, dict and set lookups, integer arithmetic
  and calls) for the pure-Python workloads;
* :data:`NUMPY` (gathers, compares and multiplies over a batch of small
  int64 matrices, as in an elimination step) for the census.

A normalised time is the measured time scaled by the reference's nominal
block time over its mean block time in the same stretches.  The nominal
times are the blocks' times on the host in a quiet period (2-vCPU 2.1 GHz
VM, Python 3.11, numpy 2.4), so a normalised time reads about the raw
time there.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

REF_SHARE = 0.5
"""Reference seconds spent per workload second."""

MIN_STRETCH_S = 0.2
"""A workload stretch shorter than this is extended to the next tick."""

PYTHON_ITEMS = 5000
NUMPY_BATCH = 1 << 15


def _step(table: dict, seen: set, key: tuple) -> int:
    value = table.get(key, 0) + 1
    table[key] = value
    seen.add(key[0] ^ key[1])
    return value & 3


def python_block() -> int:
    """One fixed piece of pure-Python work; the result only keeps it from being skipped."""
    table: dict[tuple[int, int], int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(PYTHON_ITEMS):
        for j in range(8):
            acc += _step(table, seen, (i % 97, (i * j) % 13))
    return acc + len(seen)


def numpy_block() -> int:
    """One fixed piece of batched int64 array work on seeded 5x5 sign matrices."""
    import numpy as np  # here, so that importing this module does not load numpy

    work = np.random.default_rng(0).integers(-1, 2, size=(NUMPY_BATCH, 5, 5))
    for k in range(4):
        nonzero = (work[:, k:, k:] != 0).reshape(work.shape[0], -1)
        keep = nonzero.any(axis=1)
        first = nonzero.argmax(axis=1)
        pivot = work[:, k, k][:, None, None]
        work[:, k + 1:, k:] = (work[:, k + 1:, k:] * pivot
                               - work[:, k + 1:, k][:, :, None] * work[:, k, k:][:, None, :])
        work = work[keep]
        work[:, k, :] = work[np.arange(work.shape[0]), first[keep] % 5, :]
    return int(work.sum())


class Reference(NamedTuple):
    block: Callable[[], int]
    nominal_s: float
    """Seconds per block on the host in a quiet period."""


PYTHON = Reference(python_block, 0.020)
NUMPY = Reference(numpy_block, 0.040)


def run_blocks(ref: Reference, seconds: float = 0.0, at_least: int = 1) -> tuple[float, int]:
    """Whole blocks until ``seconds`` have passed and ``at_least`` ran: (seconds, blocks)."""
    spent = 0.0
    blocks = 0
    while blocks < at_least or spent < seconds:
        t0 = time.perf_counter()
        ref.block()
        spent += time.perf_counter() - t0
        blocks += 1
    return spent, blocks


class Meter:
    """Splits a timed pass into workload stretches and reference blocks.

    The workload calls :meth:`tick` between its pieces.  Once a stretch of
    workload has run for :data:`MIN_STRETCH_S`, the tick adds its time to
    ``work_s`` and runs the reference for :data:`REF_SHARE` of it, outside
    the workload's clock.
    """

    def __init__(self, ref: Reference) -> None:
        self.ref = ref
        self.work_s = 0.0
        self.ref_s = 0.0
        self.blocks = 0
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._mark = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        stretch = time.perf_counter() - self._mark
        if stretch < MIN_STRETCH_S and not force:
            return
        self.work_s += stretch
        spent, blocks = run_blocks(self.ref, REF_SHARE * stretch)
        self.ref_s += spent
        self.blocks += blocks
        self._mark = time.perf_counter()

    def stop(self) -> None:
        self.tick(force=True)

    @property
    def speed(self) -> float:
        """Nominal over measured block time: below 1 when the host runs slow."""
        return self.ref.nominal_s * self.blocks / self.ref_s

    def normalised_s(self) -> float:
        """Workload seconds scaled to the host's nominal speed."""
        return self.work_s * self.speed


def no_tick(force: bool = False) -> None:
    """The tick of an unmetered call."""
