"""Resident spawn workers: started once per process, reused by every call.

The first process-mode call with ``workers > 1`` starts ``spawn``
workers; later calls reuse them, so the interpreter start (about 1 s)
is paid once per process instead of once per call. Nothing starts at
import. The set grows to the largest worker count requested so far,
and a smaller call leases its first ``n`` workers. A
``threading.Lock`` serializes calls.

Each worker owns one duplex :func:`multiprocessing.Pipe` and runs
:func:`repro.parallel.worker.serve_pipe`. The parent sends ``(fn,
task)`` and waits with :func:`multiprocessing.connection.wait` on the
pipes *and* on the workers' process sentinels, so a worker that dies
mid-task is seen at once: the call raises
:class:`~repro.core.errors.WorkerError`, the whole set is stopped, and
the next call starts a fresh one. A worker found dead between calls is
replaced before dispatch.

Workers are daemonic, so interpreter exit terminates them; a pipe per
worker needs no named semaphores, so nothing is left to unlink. A
process forked from the owner does not use the owner's workers: the
owner-pid check gives it a set of its own.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from contextlib import contextmanager
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import WorkerError
from .worker import serve_pipe

_SPAWN = multiprocessing.get_context("spawn")


class _Worker:
    """One resident spawn process and the parent's end of its pipe."""

    def __init__(self) -> None:
        self.conn, child_conn = _SPAWN.Pipe()
        self.process = _SPAWN.Process(
            target=serve_pipe, args=(child_conn,), name="repro-worker", daemon=True
        )
        self.process.start()
        child_conn.close()

    def stop(self) -> None:
        self.process.terminate()
        self.process.join()
        self.process.close()
        self.conn.close()


class _WorkerSet:
    """The resident workers of one process (see the module docstring)."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.lock = threading.Lock()
        self.workers: List[_Worker] = []

    def grow(self, n_procs: int) -> int:
        """Replace dead workers, start missing ones; return how many started."""
        alive = []
        for worker in self.workers:
            if worker.process.is_alive():
                alive.append(worker)
            else:
                worker.stop()
        self.workers = alive
        missing = max(0, n_procs - len(alive))
        try:
            for _ in range(missing):
                self.workers.append(_Worker())
        except OSError as exc:
            self.discard()
            raise WorkerError(f"could not start a worker process: {exc}") from exc
        return missing

    def discard(self) -> None:
        workers, self.workers = self.workers, []
        for worker in workers:
            worker.stop()


class _Lease:
    """The first ``n_procs`` resident workers, held by one call."""

    def __init__(self, owner: _WorkerSet, n_procs: int, started: int) -> None:
        self._owner = owner
        self._workers = owner.workers[:n_procs]
        #: Workers this call had to spawn (0 when all were reused).
        self.started = started

    def map(self, fn: Callable, tasks: Sequence) -> List:
        """``[fn(task) for task in tasks]`` on the leased workers.

        The first exception a task raises re-raises here unchanged, once
        the tasks already running have answered. A worker that dies
        raises :class:`WorkerError` at once; that, and any other error
        out of the dispatch loop, stops the whole set.
        """
        try:
            results, failure = self._dispatch(fn, tasks)
        except BaseException:
            self._owner.discard()
            raise
        if failure is not None:
            raise failure
        return results

    def _dispatch(
        self, fn: Callable, tasks: Sequence
    ) -> Tuple[List, Optional[BaseException]]:
        results: List = [None] * len(tasks)
        queue = list(enumerate(tasks))[::-1]
        idle = self._workers[::-1]
        busy: Dict[object, Tuple[_Worker, int]] = {}
        failure: Optional[BaseException] = None
        while busy or (queue and failure is None):
            while idle and queue and failure is None:
                index, task = queue.pop()
                try:
                    payload = ForkingPickler.dumps((fn, task))
                except Exception as exc:
                    failure = exc
                    break
                worker = idle.pop()
                # Released at once: a live view pins its buffer's BytesIO.
                with payload:
                    try:
                        worker.conn.send_bytes(payload)
                    except OSError:
                        raise _died(worker, index) from None
                busy[worker.conn] = (worker, index)
            if not busy:
                break
            sentinels = {w.process.sentinel: w for w, _ in busy.values()}
            ready = wait(list(busy) + list(sentinels))
            for conn in ready:
                if conn not in busy:
                    continue
                worker, index = busy.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError):
                    raise _died(worker, index) from None
                except Exception as exc:
                    ok = False
                    value = WorkerError(
                        f"reply to task {index} could not be unpickled: {exc!r}"
                    )
                idle.append(worker)
                if ok:
                    results[index] = value
                elif failure is None:
                    failure = value
            for sentinel in ready:
                worker = sentinels.get(sentinel)
                if worker is not None and worker.conn in busy and not worker.conn.poll():
                    raise _died(worker, busy[worker.conn][1])
        return results, failure


def _died(worker: _Worker, index: int) -> WorkerError:
    worker.process.join(timeout=5)
    return WorkerError(
        f"worker process {worker.process.pid} died during task {index} "
        f"(exit code {worker.process.exitcode})"
    )


_SET: Optional[_WorkerSet] = None
_SET_LOCK = threading.Lock()


def _worker_set() -> _WorkerSet:
    global _SET
    with _SET_LOCK:
        if _SET is None or _SET.owner != os.getpid():
            _SET = _WorkerSet()
        return _SET


@contextmanager
def resident_pool(n_procs: int) -> Iterator[_Lease]:
    """Lease ``n_procs`` resident workers for one call, starting any missing.

    The set's lock is held for the ``with`` block, so concurrent calls
    run one after the other.
    """
    workers = _worker_set()
    with workers.lock:
        yield _Lease(workers, n_procs, workers.grow(n_procs))


def worker_pids() -> List[int]:
    """Process ids of this process's resident workers, in lease order."""
    workers = _SET
    if workers is None or workers.owner != os.getpid():
        return []
    return [worker.process.pid for worker in workers.workers]


def stop_workers() -> None:
    """Stop the resident workers now; the next call starts fresh ones."""
    workers = _worker_set()
    with workers.lock:
        workers.discard()
