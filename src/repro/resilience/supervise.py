"""Supervised process pool: detect dead workers, rebuild, re-run.

``multiprocessing.Pool`` is the wrong substrate for surviving worker
death: a SIGKILLed worker silently loses its in-flight tasks and
``imap_unordered`` waits for them forever.
``concurrent.futures.ProcessPoolExecutor`` turns the same event into a
:class:`~concurrent.futures.process.BrokenProcessPool` raised from every
unfinished future — a clean, synchronous detection point.
:class:`SupervisedExecutor` builds on that:

* work is submitted as *chunks* (``fn(chunk) -> [result, ...]``), the same
  granularity ``Pool``'s chunksize gave us, so one lost worker costs one
  chunk of re-run, not a whole grid;
* when the executor breaks, the chunks that never produced results are
  collected, the executor is rebuilt, and the chunks are resubmitted —
  correctness relies on ``fn`` being a pure function of the chunk (the
  sweep's per-point seeding discipline), which makes every re-run
  byte-identical to the run that was lost;
* re-running is bounded by a per-run ``max_respawns`` budget; exhausting it
  raises :class:`~repro.exceptions.WorkerLostError` carrying the still-lost
  chunks so the caller can name the work it could not finish.

The executor is also the delivery point for planned worker kills: a
:class:`~repro.resilience.faults.FaultInjector`'s kill schedule is
consulted after every received result, and due kills are delivered
parent-side (SIGKILL to one live worker pid).  Injection therefore needs
no cooperation from worker code and cannot fire at ``workers<=1`` where no
pool exists.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, WorkerLostError
from repro.resilience.faults import FaultInjector

#: Default pool rebuilds allowed per ``run_chunks`` call before escalating.
DEFAULT_MAX_RESPAWNS = 3

#: Errors that mean "the executor lost workers", not "the task raised".
_BROKEN_ERRORS = (BrokenProcessPool, concurrent.futures.BrokenExecutor,
                  concurrent.futures.CancelledError)

#: Seconds to wait for worker processes to exit before terminating them.
_SHUTDOWN_GRACE_S = 5.0

#: Bound on waiting for the result-queue write lock, and then for the
#: victim's exit, when delivering a kill.
_KILL_LOCK_S = 5.0


def _shutdown_executor(executor: concurrent.futures.ProcessPoolExecutor,
                       *, force: bool,
                       grace_s: float = _SHUTDOWN_GRACE_S) -> None:
    """Shut ``executor`` down without risking an unbounded hang.

    A SIGKILLed worker can die holding the shared call-queue reader lock,
    leaving idle siblings blocked in ``get()`` forever — a plain
    ``shutdown(wait=True)`` then joins a process that will never exit.
    Every executor this module shuts down is either idle (``close`` drains
    runs first) or broken (its lost chunks are re-run elsewhere), so no
    results are at stake: initiate the shutdown without blocking, give the
    workers a bounded grace period, and terminate whatever is left before
    joining the management thread.  ``force`` skips the grace period and
    terminates immediately (broken executors, ``close(drain=False)``).
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    if force:
        for proc in processes:
            try:
                proc.terminate()
            except (OSError, ValueError):
                pass
    executor.shutdown(wait=False, cancel_futures=force)
    deadline = time.monotonic() + (0.0 if force else grace_s)
    for proc in processes:
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in processes:
        if proc.is_alive():
            try:
                proc.terminate()
            except (OSError, ValueError):
                pass
    for proc in processes:
        proc.join(1.0)
        if proc.is_alive():
            try:
                proc.kill()
            except (OSError, ValueError):
                pass
            proc.join(1.0)
    # Workers are gone; joining the management thread is now bounded.
    executor.shutdown(wait=True)


class SupervisedExecutor:
    """A spawn-context process pool that survives worker death.

    Args:
        workers: Worker processes (>= 1); no clamping is applied here —
            callers like :class:`~repro.store.PersistentPool` clamp first.
        max_respawns: Pool rebuilds allowed per :meth:`run_chunks` call.
        injector: Optional fault injector whose kill schedule this
            executor delivers (``None`` → no injection, zero overhead).

    Attributes:
        respawns: Total pool rebuilds over the executor's lifetime.
        reruns: Total chunk *items* resubmitted after worker loss.

    Thread-safe: concurrent :meth:`run_chunks` calls share the worker
    processes, and a break observed by several runs at once is repaired by
    exactly one of them.
    """

    def __init__(self, workers: int, *,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 injector: Optional[FaultInjector] = None) -> None:
        if workers < 1:
            raise ConfigurationError(
                "a supervised executor needs >= 1 workers")
        if max_respawns < 0:
            raise ConfigurationError("max_respawns must be >= 0")
        self._workers = workers
        self._max_respawns = max_respawns
        self._injector = injector
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = \
            None
        self._cond = threading.Condition()
        self._active_runs = 0
        self.respawns = 0
        self.reruns = 0

    @property
    def workers(self) -> int:
        """Configured worker count."""
        return self._workers

    # -- pool lifecycle -------------------------------------------------------

    def _ensure(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._cond:
            if self._executor is None:
                context = multiprocessing.get_context("spawn")
                self._executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self._workers, mp_context=context)
            return self._executor

    def _replace_broken(self, broken: concurrent.futures
                        .ProcessPoolExecutor) -> None:
        """Retire ``broken`` and count one respawn (first observer wins)."""
        with self._cond:
            if self._executor is broken:
                self._executor = None
                self.respawns += 1
        _shutdown_executor(broken, force=True)

    def _live_processes(self) -> Tuple[Optional[concurrent.futures
                                              .ProcessPoolExecutor], list]:
        """The current executor and its live worker processes."""
        with self._cond:
            executor = self._executor
        processes = getattr(executor, "_processes", None) or {}
        return executor, [proc for proc in list(processes.values())
                          if proc.pid is not None and proc.is_alive()]

    def live_pids(self) -> List[int]:
        """Pids of the current worker processes (may be empty mid-rebuild)."""
        return [proc.pid for proc in self._live_processes()[1]]

    def kill_one_worker(self) -> Optional[int]:
        """SIGKILL one live worker (parent-side); returns its pid or None.

        This is how planned worker kills are delivered, and tests may call
        it directly to murder a worker mid-run.

        The kill is sent while holding the executor's result-queue write
        lock, and the lock is released only once the victim is dead.
        Workers write results under that lock, so none dies half-way
        through a result: a partial message would block the executor's
        result reader forever and the pool would never report itself
        broken.
        """
        executor, processes = self._live_processes()
        lock = getattr(getattr(executor, "_result_queue", None), "_wlock",
                       None)
        held = lock is not None and lock.acquire(timeout=_KILL_LOCK_S)
        try:
            for proc in processes:
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    continue
                multiprocessing.connection.wait([proc.sentinel],
                                                timeout=_KILL_LOCK_S)
                return proc.pid
            return None
        finally:
            if held:
                lock.release()

    # -- supervised execution -------------------------------------------------

    def run_chunks(self, fn: Callable[[Sequence], Sequence],
                   chunks: Sequence[Sequence],
                   on_result: Optional[Callable[[object], None]] = None
                   ) -> List[object]:
        """Run ``fn`` over every chunk, surviving worker death.

        ``on_result`` fires per *item* (element of a chunk's result list)
        in completion order.  Items of a chunk are delivered exactly once:
        a chunk either completed (its items were delivered) or was lost
        with its worker (no items were delivered) and is resubmitted
        whole.  Exceptions raised *by ``fn``* propagate immediately —
        task-level failures are the caller's protocol (the sweep ships
        failures as values, never exceptions).
        """
        if not chunks:
            return []
        with self._cond:
            self._active_runs += 1
        try:
            return self._run_chunks_locked(fn, chunks, on_result)
        finally:
            with self._cond:
                self._active_runs -= 1
                self._cond.notify_all()

    def _run_chunks_locked(self, fn, chunks, on_result):
        schedule = self._injector.run_kills() if self._injector else None
        results: List[object] = []
        remaining = list(chunks)
        respawns_this_run = 0
        while remaining:
            executor = self._ensure()
            # A kill that landed after a previous run's last result leaves
            # the executor broken before any submit — treat a failing
            # submit exactly like a future that raised broken-pool.
            futures = {}
            lost: List[Sequence] = []
            for chunk in remaining:
                try:
                    futures[executor.submit(fn, chunk)] = chunk
                except _BROKEN_ERRORS:
                    lost.append(chunk)
            remaining = lost
            for future in concurrent.futures.as_completed(list(futures)):
                chunk = futures.pop(future)
                try:
                    items = future.result()
                except _BROKEN_ERRORS:
                    remaining.append(chunk)
                    continue
                for item in items:
                    results.append(item)
                    if on_result is not None:
                        on_result(item)
                    if schedule is not None and schedule.due(len(results)):
                        if self.kill_one_worker() is not None:
                            self._injector.note_kill()
            if remaining:
                if respawns_this_run >= self._max_respawns:
                    count = sum(len(chunk) for chunk in remaining)
                    raise WorkerLostError(
                        f"worker pool kept dying: {count} task(s) still "
                        f"unfinished after {respawns_this_run} respawn(s)",
                        pending_chunks=remaining,
                        respawns=respawns_this_run)
                respawns_this_run += 1
                with self._cond:
                    self.reruns += sum(len(chunk) for chunk in remaining)
                self._replace_broken(executor)
        return results

    # -- shutdown -------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut the workers down (idempotent); the pool can be rebuilt.

        ``drain=True`` (the default) first waits for in-flight
        :meth:`run_chunks` calls — including any respawn/re-run they still
        owe — then shuts the executor down cleanly.  ``drain=False``
        SIGKILLs the workers and abandons whatever they were doing (the
        old ``terminate()`` behaviour, kept for tests and emergencies).
        """
        if drain:
            with self._cond:
                while self._active_runs:
                    self._cond.wait()
        with self._cond:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        _shutdown_executor(executor, force=not drain)

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)
