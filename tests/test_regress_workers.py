"""The l1 regress sweep and the l1 radius estimates on forked worker
processes: the same report bytes and floats as in-process, no process left
behind, workers on one OS thread and one OpenBLAS thread while the parent's
count is restored on every exit, one pool per estimate and none for the
linear class, the in-process fallback where OpenBLAS cannot be held to one
thread or the pool fails, and errors raised in a worker."""

import concurrent.futures
import errno
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from epkit import blas, cli, regression, workers
from epkit.rng import derive_rng

ARGV = ["regress", "--class", "l1", "--grid", "8:16,16:32", "--trials", "6",
        "--seed", "3"]
# two 16 x 32 designs per stack: the 8:16 cell is one stack, 16:32 three
STACK_BYTES = 2 * 8 * 16 * 32


@pytest.fixture(autouse=True)
def four_stacks(monkeypatch):
    monkeypatch.setattr(regression, "STACK_BYTES", STACK_BYTES)


@pytest.fixture(autouse=True)
def no_children_left():
    """Ends what a failed run left behind, so that it fails and does not
    hang the session; run_main has asserted that no child is alive."""
    yield
    for proc in multiprocessing.active_children():
        proc.terminate()


@pytest.fixture
def threads(blas_threads):
    """numpy's OpenBLAS thread count getter, with the count set to 2 for the
    test and restored after it, so that a worker's count of 1 is never the
    parent's."""
    blas_threads(2)
    return blas.thread_getter()


@pytest.fixture
def solves(tmp_path, monkeypatch, threads):
    """Every solve_ls_l1_batch call as (pid, OS threads, OpenBLAS threads),
    read after the solve; OS threads are None where there is no /proc.  A
    call returns the solves logged since the last call."""
    log = tmp_path / "solves.txt"
    log.touch()
    solve = regression.solve_ls_l1_batch

    def logged(*args, **kwargs):
        out = solve(*args, **kwargs)
        tasks = (len(os.listdir("/proc/self/task"))
                 if os.path.isdir("/proc/self/task") else None)
        # a worker's calls are seen only through what it writes
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {tasks} {threads()}\n")
        return out

    def read():
        lines = log.read_text().splitlines()
        log.write_text("")
        return [(int(pid), None if tasks == "None" else int(tasks), int(count))
                for pid, tasks, count in map(str.split, lines)]

    monkeypatch.setattr(regression, "solve_ls_l1_batch", logged)
    return read


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool the CLI constructs."""
    seen = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return seen


def run_main(cpus, out, monkeypatch, capsys, argv=ARGV):
    """Exit code, stderr and every output file of argv at cpus CPUs."""
    monkeypatch.setattr(workers, "available_cpus", lambda: cpus)
    code = cli.main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
             if out.is_dir() else {})
    assert multiprocessing.active_children() == []
    return code, err, files


@pytest.mark.parametrize("cpus, workers", [(2, 2), (8, 4)])
def test_reports_match_in_process(cpus, workers, tmp_path, monkeypatch, capsys,
                                  pools):
    serial = run_main(1, tmp_path / "serial", monkeypatch, capsys)
    assert pools == [] and serial[0] == 0
    forked = run_main(cpus, tmp_path / "forked", monkeypatch, capsys)
    assert pools == [workers]
    assert forked == serial
    assert {"regress_cells.csv", "regress_summary.json",
            "regress_reports.csv"} <= set(forked[2])


def test_one_stack_runs_in_process(tmp_path, monkeypatch, capsys, pools):
    argv = [*ARGV[:3], "--grid", "8:16", *ARGV[5:]]
    assert run_main(2, tmp_path, monkeypatch, capsys, argv)[0] == 0
    assert pools == []


def test_other_threads_run_in_process(tmp_path, monkeypatch, capsys, pools):
    # a fork would copy only this thread, and a lock the other thread held
    # would stay held in the workers
    want = run_main(1, tmp_path / "serial", monkeypatch, capsys)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        got = run_main(2, tmp_path / "threaded", monkeypatch, capsys)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert pools == [] and got == want


@pytest.mark.parametrize("missing", ["thread_getter", "thread_setter",
                                     "bundled_function"])
def test_no_thread_function_runs_in_process(missing, tmp_path, monkeypatch,
                                            capsys):
    want = run_main(1, tmp_path / "serial", monkeypatch, capsys)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was constructed")

    monkeypatch.setattr(blas, missing, lambda *name: None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert blas.thread_getter() is None or blas.thread_setter() is None
    assert run_main(2, tmp_path / "unpinned", monkeypatch, capsys) == want


def test_workers_run_on_one_blas_thread(tmp_path, monkeypatch, capsys, threads,
                                        solves):
    assert run_main(2, tmp_path / "forked", monkeypatch, capsys)[0] == 0
    assert threads() == 2
    logged = solves()
    assert len(logged) == 4
    assert {count for _, _, count in logged} == {1}
    pids = {pid for pid, _, _ in logged}
    assert len(pids) <= 2 and os.getpid() not in pids
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count a worker's OS threads")
    # a count set inside a forked worker starts OpenBLAS's helper thread
    assert {tasks for _, tasks, _ in logged} == {1}


@pytest.mark.parametrize("failure", ["no pool", "second fork", "worker killed"])
def test_failed_pool_runs_in_process(failure, tmp_path, monkeypatch, capsys,
                                     threads, solves):
    want = run_main(1, tmp_path / "serial", monkeypatch, capsys)
    solves()
    if failure == "no pool":
        def no_semaphores(*args, **kwargs):
            raise OSError(errno.ENOSYS, "Function not implemented")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_semaphores)
    elif failure == "second fork":
        # the first worker has started when the second cannot be forked
        forks, fork = [], os.fork

        def refused():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", refused)
    else:
        parent, solve = os.getpid(), regression.solve_ls_l1_batch

        def killed(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return solve(*args, **kwargs)

        monkeypatch.setattr(regression, "solve_ls_l1_batch", killed)
    assert run_main(2, tmp_path / "failed", monkeypatch, capsys) == want
    assert threads() == 2
    # every stack is solved again in-process, at the restored count
    assert [(pid, count) for pid, _, count in solves()] == [(os.getpid(), 2)] * 4


@pytest.mark.parametrize("error, code", [(ValueError, 2), (RuntimeError, 3)])
def test_worker_error_exits_as_in_process(error, code, tmp_path, monkeypatch,
                                          capsys, pools, threads):
    def broken(*args, **kwargs):
        raise error("the solver broke")

    monkeypatch.setattr(regression, "solve_ls_l1_batch", broken)
    serial = run_main(1, tmp_path / "serial", monkeypatch, capsys)
    forked = run_main(2, tmp_path / "forked", monkeypatch, capsys)
    assert pools == [2] and threads() == 2
    assert forked == serial
    assert serial[0] == code and "the solver broke" in serial[1]


# the base design of the l1-radius benchmark workload, unrotated
RADIUS_X = derive_rng(21, "l1cr").standard_normal((10, 6))
RADIUS_MODEL = regression.RegressionModel(x=RADIUS_X, theta_star=np.zeros(6),
                                          sigma=0.5)
L1 = regression.L1BallClass(R=1.0)


def radius_estimates(cls, n_samples, draws=True):
    """float.hex of delta* and the 8 ratios of critical_radius and, for two
    or more draws, the mean and stderr of the complexity and bad-event
    estimates at n_samples draws."""
    cr = regression.critical_radius(RADIUS_MODEL, cls, (0.2, 3.0),
                                    n_samples=n_samples, seed=7)
    values = [cr.delta_star, *cr.ratios]
    if draws and n_samples > 1:
        for est in (regression.localized_complexity_mc(RADIUS_X, cls, 0.6,
                                                       n_samples, 7),
                    regression.estimate_bad_event_probability(
                        RADIUS_MODEL, cls, 0.5, n_samples, 7)):
            values += [est.mean, est.stderr]
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n_samples", [1, 2, 3, 4, 5])
def test_radius_estimates_match_in_process(n_samples, monkeypatch, pools):
    monkeypatch.setattr(workers, "available_cpus", lambda: 1)
    serial = radius_estimates(L1, n_samples)
    assert pools == []
    monkeypatch.setattr(workers, "available_cpus", lambda: 2)
    assert radius_estimates(L1, n_samples) == serial
    # one pool for each estimate, none for a panel of one row
    assert pools == ([2] * 3 if n_samples > 1 else [])
    assert multiprocessing.active_children() == []


def test_one_pool_serves_a_whole_bisection(monkeypatch, pools):
    # every row of the 8 grid radii and of each bisection step is solved on
    # the workers of one pool
    parent, sup = os.getpid(), regression.l1_localized_sup
    in_process = []

    def logged(*args):
        if os.getpid() == parent:
            in_process.append(1)
        return sup(*args)

    monkeypatch.setattr(regression, "l1_localized_sup", logged)
    monkeypatch.setattr(workers, "available_cpus", lambda: 2)
    radius_estimates(L1, 4, draws=False)
    assert pools == [2] and in_process == []


def test_linear_class_never_forks(monkeypatch, pools):
    monkeypatch.setattr(workers, "available_cpus", lambda: 2)
    radius_estimates(regression.LinearClass(), 5)
    assert pools == []


def test_worker_killed_mid_bisection_reruns_in_process(tmp_path, monkeypatch,
                                                      threads, pools):
    monkeypatch.setattr(workers, "available_cpus", lambda: 1)
    want = radius_estimates(L1, 4, draws=False)
    # after the first g evaluation every worker that solves a row dies
    parent, killed = os.getpid(), tmp_path / "killed"
    sup, inner_sups = regression.l1_localized_sup, regression.L1BallClass.inner_sups
    maps, in_process = [], []

    def killing(*args):
        if os.getpid() != parent and killed.exists():
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() == parent:
            in_process.append(1)
        return sup(*args)

    def first_then_kill(self, X, w, delta, pmap):
        maps.append(pmap)
        out = inner_sups(self, X, w, delta, pmap)
        killed.touch()
        return out

    monkeypatch.setattr(regression, "l1_localized_sup", killing)
    monkeypatch.setattr(regression.L1BallClass, "inner_sups", first_then_kill)
    monkeypatch.setattr(workers, "available_cpus", lambda: 2)
    assert radius_estimates(L1, 4, draws=False) == want
    assert multiprocessing.active_children() == []
    assert threads() == 2
    # the first g evaluation ran on the workers, every later row here,
    # with no second pool
    assert len(maps) > 8 and len(in_process) == 4 * (len(maps) - 1)
    assert pools == [2]
