"""Resident spawn workers: reuse across calls, dead workers, clean exit.

Every case that can block on a worker runs under an explicit deadline,
so a regression shows up as a failure, never as a hung suite.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import contextmanager

import pytest

from repro.algorithms.registry import temporal_join
from repro.core.errors import ReproError, WorkerError
from repro.core.query import JoinQuery
from repro.kernels.prepared import prepare, run_batch
from repro.obs import ExecutionStats
from repro.parallel import pool as pool_module
from repro.parallel.pool import resident_pool, stop_workers, worker_pids
from repro.workloads.synthetic import SyntheticConfig, generate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="deadlines need SIGALRM"
)


@contextmanager
def deadline(seconds):
    """Fail the block with TimeoutError if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Unpicklable(Exception):
    """An exception carrying a lock, so it cannot cross a pipe."""

    def __init__(self):
        super().__init__("carries a lock")
        self.lock = threading.Lock()


def raise_unpicklable(_task):
    raise Unpicklable()


def return_unpicklable(_task):
    return threading.Lock()


@pytest.fixture
def line3():
    query = JoinQuery.line(3)
    db = generate(query, SyntheticConfig(n_dangling=30, n_results=8))
    return query, db, temporal_join(query, db).normalized()


@pytest.fixture
def fresh_workers():
    stop_workers()
    yield
    stop_workers()


def _join(query, db, **kwargs):
    stats = ExecutionStats()
    got = temporal_join(query, db, workers=2, stats=stats, **kwargs)
    return got.normalized(), stats


def _wait_dead(pid):
    """Reap worker ``pid`` through the pool's own process handle."""
    (process,) = [
        w.process for w in pool_module._SET.workers if w.process.pid == pid
    ]
    process.join(timeout=10)
    assert not process.is_alive()


class TestReuse:
    def test_consecutive_joins_reuse_the_same_workers(self, line3, fresh_workers):
        query, db, want = line3
        with deadline(60):
            got, stats = _join(query, db)
            first = worker_pids()
            again, again_stats = _join(query, db)
        assert got == want and again == want
        assert stats.get("parallel.pool_started") == 1
        assert again_stats.get("parallel.pool_started") == 0
        assert len(first) == 2 and worker_pids() == first

    def test_run_batch_shares_the_workers(self, line3, fresh_workers):
        query, db, want = line3
        prepared = prepare(db)
        with deadline(60):
            _join(query, db)
            pids = worker_pids()
            stats = ExecutionStats()
            (got,) = run_batch([query], prepared, workers=2, stats=stats)
        assert got.normalized() == want
        assert stats.get("parallel.pool_started") == 0
        assert worker_pids() == pids

    def test_set_grows_and_smaller_calls_use_a_prefix(self, fresh_workers):
        with deadline(60):
            with resident_pool(3) as pool:
                assert pool.started == 3
                assert pool.map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
            pids = worker_pids()
            with resident_pool(2) as pool:
                assert pool.started == 0
                assert pool.map(abs, [-5]) == [5]
        assert worker_pids() == pids

    def test_import_starts_no_worker(self):
        code = (
            "import multiprocessing, repro\n"
            "from repro.parallel.pool import worker_pids\n"
            "print(len(multiprocessing.active_children()), len(worker_pids()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=_env(), capture_output=True,
            text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["0", "0"]


class TestErrors:
    def test_task_exception_reraises_unchanged_and_keeps_workers(
        self, fresh_workers
    ):
        with deadline(60):
            with resident_pool(2) as pool:
                pids = worker_pids()
                with pytest.raises(ValueError, match="invalid literal"):
                    pool.map(int, ["1", "x", "3"])
                assert pool.map(int, ["4", "5"]) == [4, 5]
        assert worker_pids() == pids

    def test_unpicklable_task_raises_in_the_parent(self, fresh_workers):
        with deadline(60):
            with resident_pool(2) as pool:
                with pytest.raises(TypeError):
                    pool.map(len, [threading.Lock()])
                assert pool.map(len, ["ab"]) == [2]

    @pytest.mark.parametrize(
        "fn, what", [(raise_unpicklable, "Unpicklable"), (return_unpicklable, "result")]
    )
    def test_unpicklable_reply_is_typed_and_worker_survives(
        self, fn, what, fresh_workers
    ):
        with deadline(60):
            with resident_pool(2) as pool:
                pids = worker_pids()
                with pytest.raises(WorkerError, match=what):
                    pool.map(fn, [0])
                assert pool.map(abs, [-1, -2]) == [1, 2]
        assert worker_pids() == pids

    def test_worker_exit_mid_task_raises_and_next_call_recovers(
        self, line3, fresh_workers
    ):
        query, db, want = line3
        with deadline(60):
            with resident_pool(2) as pool:
                with pytest.raises(WorkerError, match="died during task"):
                    pool.map(os._exit, [3, 3])
            assert worker_pids() == []
            got, stats = _join(query, db)
        assert got == want
        assert stats.get("parallel.pool_started") == 1

    def test_worker_killed_mid_shard_raises_within_deadline(
        self, line3, fresh_workers
    ):
        query, db, want = line3
        with deadline(60):
            with resident_pool(2) as pool:
                victim = worker_pids()[0]
                killer = threading.Timer(0.5, os.kill, (victim, signal.SIGKILL))
                killer.start()
                start = time.perf_counter()
                with pytest.raises(WorkerError) as info:
                    pool.map(time.sleep, [30, 30])
                killer.join()
            assert time.perf_counter() - start < 20
            assert isinstance(info.value, ReproError)
            assert str(victim) in str(info.value)
            got, _ = _join(query, db)
        assert got == want
        assert victim not in worker_pids()

    def test_worker_killed_between_joins_is_replaced(self, line3, fresh_workers):
        query, db, want = line3
        with deadline(60):
            _join(query, db)
            victim, survivor = worker_pids()
            os.kill(victim, signal.SIGKILL)
            _wait_dead(victim)
            got, stats = _join(query, db)
        assert got == want
        assert stats.get("parallel.pool_started") == 1
        pids = worker_pids()
        assert survivor in pids and victim not in pids


# ----------------------------------------------------------------------
# Interpreter exit: runs in a child interpreter, as a script would.
# ----------------------------------------------------------------------
EXIT_SCRIPT = textwrap.dedent(
    """
    import json, multiprocessing, os, sys
    from multiprocessing import resource_tracker

    from repro.algorithms.registry import temporal_join
    from repro.core.query import JoinQuery
    from repro.workloads.synthetic import SyntheticConfig, generate


    def stop_children():
        # As a benchmark runner does before it exits: stop and reap every
        # child, the resource tracker included.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        tracker = resource_tracker._resource_tracker
        if hasattr(tracker, "_stop"):
            tracker._stop()
        elif getattr(tracker, "_fd", None) is not None:
            os.close(tracker._fd)
            os.waitpid(tracker._pid, 0)
            tracker._fd = tracker._pid = None


    if __name__ == "__main__":
        query = JoinQuery.line(3)
        db = generate(query, SyntheticConfig(n_dangling=30, n_results=8))
        got = temporal_join(query, db, workers=2).normalized()
        if got != temporal_join(query, db).normalized():
            sys.exit(3)
        pids = [child.pid for child in multiprocessing.active_children()]
        tracker = resource_tracker._resource_tracker._pid
        print(json.dumps(pids + ([tracker] if tracker else [])), flush=True)
        if sys.argv[1] == "stop":
            stop_children()
    """
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


@pytest.mark.parametrize("how", ["plain", "stop"])
def test_interpreter_exits_cleanly_with_resident_workers(how):
    out = subprocess.run(
        [sys.executable, "-c", EXIT_SCRIPT, how], env=_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    children = json.loads(out.stdout)
    assert len(children) >= 2  # two workers, plus the tracker if it runs
    end = time.monotonic() + 10
    while any(_alive(pid) for pid in children) and time.monotonic() < end:
        time.sleep(0.05)
    assert not [pid for pid in children if _alive(pid)]
