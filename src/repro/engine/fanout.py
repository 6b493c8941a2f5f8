"""The one process pool, for independent runs: :class:`~repro.experiments.parallel.SweepRunner`'s
specs and a many-seed :class:`~repro.engine.batch.BatchSimulation`'s seeds."""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple


def in_process(jobs: int, workers: int) -> bool:
    """Whether to run ``jobs`` here instead of on ``workers`` processes: one
    job, one worker (one CPU), or a caller that is itself a daemonic pool
    worker, which may not have children."""
    return jobs <= 1 or workers <= 1 or multiprocessing.current_process().daemon


def imap_unordered(func: Callable[[Any], Any], jobs: Sequence[Any], processes: int,
                   initializer: Optional[Callable[..., None]] = None,
                   initargs: Tuple[Any, ...] = ()) -> Iterator[Any]:
    """``func(job)`` for every job, in completion order."""
    # "fork" inherits the parent's imports, sys.path and initargs, which keeps
    # worker start-up cheap; fall back to the platform default elsewhere.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ctx.Pool(processes, initializer, initargs) as pool:
        yield from pool.imap_unordered(func, jobs)
