"""Worker-pool plumbing shared by the census and the failure counters.

Work is always split into task descriptions evaluated by a top-level
function, and partial results are merged in task order, so aggregates
are identical for any worker count.  ``CHIO_WORKERS`` overrides the
default worker count (available parallelism).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None = None) -> int:
    """Requested worker count, the CHIO_WORKERS override, or the CPU count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("CHIO_WORKERS")
    if env:
        return max(1, int(env))
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
    with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
        yield from pool.imap(fn, tasks)
