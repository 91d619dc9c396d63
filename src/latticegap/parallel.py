"""Process-pool map with a bounded number of workers."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def available_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def pool_size(workers: int, chunks: int, cores: int) -> int:
    """Processes worth starting for `chunks` jobs: no more than requested,
    than there are jobs, or than there are cores to run them; at least 1."""
    return max(1, min(workers, chunks, cores))


def parallel_map(fn, jobs, workers: int) -> list:
    """[fn(job) for job in jobs], spread over pool_size processes; in this
    process when that is 1.  fn must be a module-level function."""
    size = pool_size(workers, len(jobs), available_cores())
    if size == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=size) as ex:
        return list(ex.map(fn, jobs))
