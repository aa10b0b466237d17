"""The MS stage's second process: the same bytes with or without it, and no
child process left behind, whatever way a run ends."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mannrates import optimize
from mannrates.optimize import OptimizerConfig, optimize_sequential

SRC = Path(__file__).resolve().parents[1] / "src"

needs_worker = pytest.mark.skipif(not optimize._StartsWorker.can_fork(),
                                  reason="no second CPU or no fork here")


@pytest.fixture(autouse=True)
def deadline():
    """A run that waits on the worker for good fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 120 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _bytes(res):
    return ([np.array(row, dtype=float).tobytes() for row in res.array.rows],
            np.array(res.values, dtype=float).tobytes())


@pytest.fixture
def collected(monkeypatch):
    """The number of stages whose worker share came back from the worker."""
    count = [0]
    collect = optimize._StartsWorker.collect

    def counting(self):
        xs = collect(self)
        count[0] += xs is not None
        return xs

    monkeypatch.setattr(optimize._StartsWorker, "collect", counting)
    return count


def _without_worker(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(optimize._StartsWorker, "can_fork", staticmethod(lambda: False))
        return optimize_sequential(*args, **kwargs)


@needs_worker
@pytest.mark.parametrize("N, cfg, monotone", [
    *((30, OptimizerConfig(restarts=8, seed=seed), True) for seed in range(4)),
    # free S starts each stage from the MS stage's row
    (12, OptimizerConfig(restarts=4, max_evals=2000), False)])
def test_rows_do_not_depend_on_the_worker(N, cfg, monotone, monkeypatch, collected):
    shared = optimize_sequential(N, cfg, monotone=monotone)
    # every stage from the threshold on shared its starts with the worker
    assert collected[0] == N - optimize._WORKER_MIN_N + 1
    alone = _without_worker(monkeypatch, N, cfg, monotone=monotone)
    assert collected[0] == N - optimize._WORKER_MIN_N + 1
    assert _bytes(shared) == _bytes(alone)
    assert multiprocessing.active_children() == []


def test_short_runs_stay_in_one_process(monkeypatch):
    forks = []
    monkeypatch.setattr(optimize._StartsWorker, "can_fork",
                        staticmethod(lambda: forks.append(1) or False))
    optimize_sequential(optimize._WORKER_MIN_N - 1, OptimizerConfig(restarts=4))
    assert forks == []


@needs_worker
def test_a_threaded_caller_does_not_fork(collected):
    # a forked child would inherit the locks the other thread holds
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        optimize_sequential(12, OptimizerConfig(restarts=4))
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert collected[0] == 0


@needs_worker
def test_a_normal_return_leaves_no_child(collected):
    optimize_sequential(12, OptimizerConfig(restarts=4))
    assert collected[0] == 3
    assert multiprocessing.active_children() == []


@needs_worker
def test_a_parent_exception_leaves_no_child(monkeypatch, collected):
    repair = optimize._repair_monotone

    def failing(x, prev, n):
        if n == 12:
            raise RuntimeError("parent fails at n = 12")
        return repair(x, prev, n)

    monkeypatch.setattr(optimize, "_repair_monotone", failing)
    with pytest.raises(RuntimeError, match="n = 12"):
        optimize_sequential(14, OptimizerConfig(restarts=4))
    assert collected[0] == 2
    assert multiprocessing.active_children() == []


@needs_worker
def test_a_parent_exception_with_a_job_out_leaves_no_child(monkeypatch, capfd):
    # this process fails on its own share while the worker holds the other;
    # the worker is ended, not left to write its reply to a closed pipe
    parent, solve = os.getpid(), optimize._slsqp_starts

    def failing(stage, starts):
        if os.getpid() == parent and len(stage[0]) == 12:
            raise RuntimeError("parent fails at n = 11")
        return solve(stage, starts)

    monkeypatch.setattr(optimize, "_slsqp_starts", failing)
    with pytest.raises(RuntimeError, match="n = 11"):
        optimize_sequential(12, OptimizerConfig(restarts=4))
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


@needs_worker
def test_a_worker_exception_is_raised_here(monkeypatch):
    # patched before the fork, so the worker inherits it
    parent, minimize = os.getpid(), optimize.minimize

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            raise ZeroDivisionError("worker fails")
        return minimize(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize", failing)
    with pytest.raises(ZeroDivisionError, match="worker fails"):
        optimize_sequential(12, OptimizerConfig(restarts=4))
    assert multiprocessing.active_children() == []


@needs_worker
def test_a_dead_worker_s_starts_run_here(monkeypatch, collected):
    parent, minimize = os.getpid(), optimize.minimize

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return minimize(*args, **kwargs)

    cfg = OptimizerConfig(restarts=4, seed=5)
    monkeypatch.setattr(optimize, "minimize", dying)
    died = optimize_sequential(12, cfg)
    assert collected[0] == 0
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(optimize, "minimize", minimize)
    assert _bytes(died) == _bytes(_without_worker(monkeypatch, 12, cfg))


@needs_worker
def test_a_failed_fork_runs_every_start_here(monkeypatch, collected):
    def no_fork():
        raise BlockingIOError("no process to be had")

    cfg = OptimizerConfig(restarts=4, seed=6)
    with monkeypatch.context() as m:
        m.setattr(os, "fork", no_fork)
        alone = optimize_sequential(12, cfg)
    assert collected[0] == 0
    assert multiprocessing.active_children() == []
    assert _bytes(alone) == _bytes(_without_worker(monkeypatch, 12, cfg))


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, timeout=300, text=True)


def test_the_cli_prints_each_line_once(tmp_path):
    # stdout is a pipe, so block-buffered: a forked child that flushed the
    # parent's buffer again would print its lines twice
    code = "import sys; from mannrates.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _python("-c", code, "optimize", "--mode", "ms", "--N", "12",
                   "--restarts", "4", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("wrote ")
    assert proc.stderr == ""


def test_importing_the_cli_imports_no_multiprocessing():
    # only a run that may fork pays for the import
    proc = _python("-c", "import sys, mannrates.cli; "
                   "print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
