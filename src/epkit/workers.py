"""The CPUs a run may use, and a map over forked worker processes.

``forked_map`` runs independent numpy tasks on processes and not threads,
because the l1 sweep's lockstep solves hold the GIL for about half of each
iteration.  The process pool is imported where it is used, so that only a
run that forks pays for it.
"""

from __future__ import annotations

import os
import threading

from . import blas


def available_cpus() -> int:
    """CPUs this process may run on (macOS has no sched_getaffinity)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked_map(fn, tasks) -> list:
    """``list(map(fn, tasks))``, run on min(CPUs, tasks) forked worker
    processes, each on one OpenBLAS thread (unpinned, each worker's threaded
    gemvs contend for the same cores).

    The OpenBLAS thread count is set to 1 in this process just before the
    pool forks and restored when the map returns, raises or falls back, so
    the workers inherit it.  Setting it in a forked worker instead would
    restart OpenBLAS's thread server there (a fork stops its threads), and
    the server's helper thread spins beside the solve for nothing.

    The tasks run in-process where there is one task or one CPU, where
    numpy's OpenBLAS has no thread getter or setter, or where the caller
    runs other threads: a fork copies only the calling thread, so a lock
    that another thread holds stays held in the worker.  They run in-process
    again, at the restored count, where the pool fails: it cannot be built
    (no semaphores, no file descriptors), a worker cannot be forked (EAGAIN,
    ENOMEM) or one dies (a signal, the OOM killer).  An exception that
    ``fn`` raises in a worker is raised here as in-process; an OSError from
    ``fn`` is raised by the rerun.

    Forked and not spawned, because a spawned worker imports numpy and epkit
    afresh."""
    workers = min(available_cpus(), len(tasks))
    if workers < 2 or threading.active_count() > 1:
        return list(map(fn, tasks))
    threads, pin = blas.thread_getter(), blas.thread_setter()
    if threads is None or pin is None:
        return list(map(fn, tasks))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    started, before = {}, threads()
    pin(1)
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            started = pool._processes   # shutdown forgets the workers
            return list(pool.map(fn, tasks))
    except (OSError, BrokenProcessPool):
        # a pool whose fork failed holds workers that wait for tasks forever
        for proc in started.values():
            proc.terminate()
            proc.join()
    finally:
        pin(before)
    return list(map(fn, tasks))
