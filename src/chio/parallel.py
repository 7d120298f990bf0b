"""Worker-pool plumbing shared by the census and the verify sweeps.

Work is always split into task descriptions evaluated by a top-level
function, and partial results are merged in task order, so aggregates
are identical for any worker count.  ``CHIO_WORKERS`` overrides the
default worker count (available parallelism).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None = None) -> int:
    """Requested worker count, the CHIO_WORKERS override, or the CPU count.

    Raises:
        ValueError: for a requested count below 1, or a CHIO_WORKERS that
            is not an integer of at least 1.
    """
    if workers is not None:
        count = int(workers)
        if count < 1:
            raise ValueError(f"worker count must be at least 1, got {workers}")
        return count
    env = os.environ.get("CHIO_WORKERS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"CHIO_WORKERS must be an integer of at least 1, got {env!r}")
        return count
    return os.cpu_count() or 1


def run_tasks(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> list[R]:
    """All results of :func:`run_tasks_iter`, as a list in task order."""
    return list(run_tasks_iter(fn, tasks, workers))


def run_tasks_iter(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> Iterable[R]:
    """Evaluate ``fn`` over tasks, yielding results in task order; inline
    when one worker suffices, else from a process pool."""
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield fn(task)
        return
    # Imported here, so that a process that starts no pool never loads it.
    import multiprocessing

    with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
        yield from pool.imap(fn, tasks)
