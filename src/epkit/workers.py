"""The CPUs a run may use, and maps over forked worker processes.

A ``forked_pool`` block runs independent numpy tasks on processes and not
threads, because the l1 sweep's lockstep solves hold the GIL for about half
of each iteration, and so does the l1 localized supremum's Python-float
loop.  One block is one pool: its workers fork at the block's first map of
two or more tasks and serve every later map of the block, so that a caller
which maps many times (the 21 or so radii of a critical-radius bisection)
forks once and not once per map.  ``forked_map`` is a block of one map.
The process pool is imported where it first forks, so that only a run that
forks pays for it.
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


class forked_pool:
    """``with forked_pool() as pmap:`` where ``pmap(fn, tasks)`` is
    ``list(map(fn, tasks))``, run on forked worker processes, each on one
    OpenBLAS thread (unpinned, each worker's threaded gemvs contend for the
    same cores).

    The workers fork at the block's first map of two or more tasks, min(CPUs,
    tasks) of them, and later maps of the block reuse them; the pool is shut
    down when the block exits.  The OpenBLAS thread count is set to 1 in this
    process just before the workers fork, so that they inherit it, and
    restored when the block exits or the pool fails.  Restored as soon as
    they had forked, it made the benchmark's l1 sweep about 7 % slower and
    its l1-radius passes about 20 % slower on a 2-core VM (the cause was not
    isolated).  Setting it in a forked worker instead would restart
    OpenBLAS's thread server there (a fork stops its threads), and the
    server's helper thread spins beside the task for nothing.

    A map runs in-process where it has one task, and every map of the block
    does where there is one CPU, where numpy's OpenBLAS has no thread getter
    or setter, or where the caller runs other threads when the pool would
    fork: a fork copies only the calling thread, so a lock that another
    thread holds stays held in the worker.  Where the pool fails, because it
    cannot be built (no semaphores, no file descriptors), a worker cannot be
    forked (EAGAIN, ENOMEM) or one dies (a signal, the OOM killer), its
    workers are ended, the failed map runs again in-process at the restored
    count, and so does every later map of the block.  An exception that
    ``fn`` raises in a worker is raised here as in-process; an OSError from
    ``fn`` is raised by the rerun.

    Forked and not spawned, because a spawned worker imports numpy and epkit
    afresh."""

    def __init__(self):
        self.pool = None      # the executor, once built
        self.started = {}     # its workers by pid, which shutdown forgets
        self.serial = False   # every later map runs in-process
        self.unpin = None     # restores this process's OpenBLAS thread count

    def __enter__(self):
        return self.map

    def __exit__(self, *exc):
        self.close()

    def map(self, fn, tasks) -> list:
        if self.pool is None:
            workers = min(available_cpus(), len(tasks))
            if self.serial or workers < 2:
                return list(map(fn, tasks))
            threads, pin = blas.thread_getter(), blas.thread_setter()
            if threading.active_count() > 1 or threads is None or pin is None:
                self.serial = True
                return list(map(fn, tasks))
        from concurrent.futures.process import BrokenProcessPool

        try:
            if self.pool is None:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                before = threads()
                self.unpin = lambda: pin(before)
                pin(1)
                # the workers fork at the first task
                self.pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=multiprocessing.get_context("fork"))
                self.started = self.pool._processes
            return list(self.pool.map(fn, tasks))
        except (OSError, BrokenProcessPool):
            self.close()
            self.serial = True
        return list(map(fn, tasks))

    def close(self):
        """Shut the pool down, end its workers (a pool whose fork failed
        holds workers that wait for tasks forever) and restore the count."""
        if self.pool is not None:
            self.pool.shutdown()
            for proc in self.started.values():
                proc.terminate()
                proc.join()
        if self.unpin is not None:
            self.unpin()
        self.pool, self.started, self.unpin = None, {}, None


def forked_map(fn, tasks) -> list:
    """``list(map(fn, tasks))`` as the one map of a :class:`forked_pool`
    block of its own."""
    with forked_pool() as pmap:
        return pmap(fn, tasks)
