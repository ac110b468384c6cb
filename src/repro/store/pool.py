"""Persistent sweep worker pool: spawn once, serve many ``run()`` calls.

The per-call pool inside :meth:`repro.sim.sweep.SweepRunner.run` pays the
full spawn + import + dataset-materialisation cost on every grid, which
dominates for the many-small-grids shape of ``report`` generation and
what-if querying.  :class:`PersistentPool` amortises all three:

* **workers outlive runs** — one spawn pool serves every
  ``run(points, pool=...)`` call until :meth:`close` (the pool is also a
  context manager), and the pool tracks the worker pids it has seen so
  tests can assert reuse;
* **per-worker substrate caches** — each worker process keeps one
  rebuilt :class:`~repro.sim.sweep.SweepRunner` per runner spec, and all
  of them share module-level dataset and sampler memo dicts keyed by
  ``(dataset name, seed, scale)`` / ``(dataset size, sampling seed)``, so
  a dataset is materialised at most once per worker process no matter how
  many runs or runner configurations it serves; likewise one byte-capped
  :class:`~repro.cache.warm_kernel.TrajectoryMemo` serves every runner, so
  a page-cache trajectory the worker already replayed is not replayed
  again in a later run.

Tasks carry the pickled runner spec (a function reference plus four
scalars), so the pool itself is configuration-free and one pool can serve
arbitrarily many different runners.  Determinism is inherited from the
per-point seeding discipline of :meth:`~repro.sim.sweep.SweepRunner.point_seed`:
results are byte-identical to the serial executor, whichever worker
simulates which point in whichever order.

The pool is *supervised* (PR 9): it executes on
:class:`repro.resilience.SupervisedExecutor`, so a worker that dies
mid-chunk — OOM-killed, segfaulted, or murdered by a fault plan — is
detected instead of hanging the run, the pool is rebuilt, and the lost
chunks are re-run byte-identically (per-point seeding makes retry exact)
under a bounded respawn budget.  Exhausting the budget raises the usual
labelled :class:`~repro.exceptions.SweepPointError` naming the lowest lost
point, so callers see one failure protocol whether a point raised or its
worker was killed.  :meth:`close` drains in-flight runs by default
(``close(drain=False)`` keeps the old terminate-now behaviour).

Store interaction is parent-side only: workers never open a
:class:`~repro.store.SweepStore` — the calling run resolves hits, ships
only the misses to the pool, and writes results back through whichever
:class:`~repro.store.StoreBackend` the store was opened on.  The pool is
therefore backend-agnostic by construction.

The distributed fabric (:mod:`repro.dist`, PR 10) builds on the same
machinery: each remote worker agent rebuilds runners via this module's
``_worker_runner`` and shares the same module-level dataset/sampler
caches, so a ``repro dist worker`` process amortises substrate
materialisation across chunks exactly like a local pool worker does.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cache.warm_kernel import TrajectoryMemo
from repro.exceptions import (
    ConfigurationError,
    SweepPointError,
    WorkerLostError,
)
from repro.resilience.faults import FaultInjector, active_injector
from repro.resilience.supervise import (
    DEFAULT_MAX_RESPAWNS,
    SupervisedExecutor,
)
from repro.sim.sweep import (
    SweepPoint,
    SweepRecord,
    SweepRunner,
    _execute_point_task,
    _raise_lowest_failure,
    clamp_workers,
)

# -- worker-process state -----------------------------------------------------
#
# Module-level on purpose: spawned workers import this module fresh, and the
# caches live for the worker's (= the pool's) lifetime.  Sharing the dataset
# and sampler dicts across every runner spec a worker serves is safe because
# both are keyed by everything that defines their contents — (name, seed,
# scale) and (size, seed) — which is exactly why SweepRunner accepts
# externally-owned caches.

_WORKER_RUNNERS: Dict[tuple, SweepRunner] = {}
_SHARED_DATASETS: Dict[tuple, object] = {}
_SHARED_SAMPLERS: Dict[tuple, object] = {}
# Content-addressed and byte-capped, so one memo serves every spec safely.
_SHARED_TRAJECTORIES = TrajectoryMemo()


def _worker_runner(spec: tuple) -> SweepRunner:
    """Rebuild (once per worker per spec) the runner for one task's spec."""
    runner = _WORKER_RUNNERS.get(spec)
    if runner is None:
        server_factory, scale, seed, queue_depth, fast_path = spec
        runner = SweepRunner(server_factory, scale=scale, seed=seed,
                             queue_depth=queue_depth, fast_path=fast_path,
                             dataset_cache=_SHARED_DATASETS,
                             sampler_cache=_SHARED_SAMPLERS,
                             trajectory_memo=_SHARED_TRAJECTORIES)
        _WORKER_RUNNERS[spec] = runner
    return runner


def _run_pooled_point(task: Tuple[tuple, int, SweepPoint]):
    """Simulate one indexed point; never raise across the pipe.

    The per-call pool's task protocol
    (:func:`repro.sim.sweep._execute_point_task`, shared so the two
    executors cannot drift) plus the worker pid, so the parent can
    account which processes served a run.
    """
    spec, index, point = task
    index, record, failure = _execute_point_task(_worker_runner(spec),
                                                 index, point)
    return index, record, failure, os.getpid()


def _run_pooled_chunk(chunk: Sequence[Tuple[tuple, int, SweepPoint]]):
    """Simulate one chunk of tasks; the supervised executor's unit of loss."""
    return [_run_pooled_point(task) for task in chunk]


def _probe_worker(_: int) -> Tuple[int, ...]:
    """Report (pid, runners, datasets, samplers, trajectory entries,
    trajectory bytes, trajectory hits) cached in this worker."""
    return (os.getpid(), len(_WORKER_RUNNERS), len(_SHARED_DATASETS),
            len(_SHARED_SAMPLERS), len(_SHARED_TRAJECTORIES),
            _SHARED_TRAJECTORIES.nbytes, _SHARED_TRAJECTORIES.hits)


def _probe_chunk(chunk: Sequence[int]):
    """Probe once per task in the chunk (chunks are single tasks here)."""
    return [_probe_worker(item) for item in chunk]


class PersistentPool:
    """A supervised spawn pool of sweep workers reused across ``run()`` calls.

    Args:
        workers: Worker processes (>= 1; counts above ``os.cpu_count()``
            are clamped to it — oversubscribing a small machine only adds
            spawn cost and contention).  The pool is created lazily on the
            first run and kept until :meth:`close`.
        chunksize: Default points per pickled task (per run: about four
            chunks per worker when ``None``).
        max_respawns: Pool rebuilds allowed per :meth:`run_points` call
            when workers die, before the run escalates to
            :class:`~repro.exceptions.SweepPointError`.
        fault_injector: Optional
            :class:`~repro.resilience.FaultInjector` whose worker-kill
            schedule this pool delivers; defaults to the process-wide
            injector (``REPRO_FAULT_PLAN``), which is ``None`` — no
            injection, no overhead — in normal operation.

    Attributes:
        runs: Completed :meth:`run_points` calls.
        pids_seen: Every worker pid that ever served a task — with healthy
            reuse this stays at ``workers`` elements no matter how many
            runs the pool serves (the worker-reuse tests pin exactly that).
        last_run_pids: Pids that served the most recent run.

    Use it either directly (``pool.run_points(runner.spec(), ...)``) or,
    normally, through ``SweepRunner.run(points, pool=pool)``; it is a
    context manager (``with PersistentPool(4) as pool: ...``).

    The pool is thread-safe: concurrent :meth:`run_points` calls from
    different threads share the worker processes (the executor routes
    results by future, so interleaved runs cannot cross wires), which is
    how the serve layer's concurrent batches share one pool without
    head-of-line blocking.
    """

    def __init__(self, workers: int, chunksize: Optional[int] = None,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 fault_injector: Optional[FaultInjector] = None) -> None:
        if workers < 1:
            raise ConfigurationError("a persistent pool needs >= 1 workers")
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError("chunksize must be at least 1")
        self._workers = clamp_workers(workers)
        self._chunksize = chunksize
        if fault_injector is None:
            fault_injector = active_injector()
        self._supervisor = SupervisedExecutor(self._workers,
                                              max_respawns=max_respawns,
                                              injector=fault_injector)
        self._lock = threading.Lock()
        self.runs = 0
        self.pids_seen: Set[int] = set()
        self.last_run_pids: Set[int] = set()

    @property
    def workers(self) -> int:
        """Worker count (after the core-count clamp)."""
        return self._workers

    @property
    def respawns(self) -> int:
        """Worker-pool rebuilds after worker death, over the pool's life."""
        return self._supervisor.respawns

    @property
    def reruns(self) -> int:
        """Points resubmitted after their worker died, over the pool's life."""
        return self._supervisor.reruns

    def kill_one_worker(self) -> Optional[int]:
        """SIGKILL one live worker (chaos tests); returns its pid or None."""
        return self._supervisor.kill_one_worker()

    def run_points(self, spec: tuple,
                   indexed_points: List[Tuple[int, SweepPoint]],
                   chunksize: Optional[int] = None,
                   on_record: Optional[Callable[[int, SweepRecord], None]]
                   = None) -> List[Tuple[int, SweepRecord]]:
        """Simulate indexed points under ``spec``; return (index, record)s.

        ``on_record`` fires per record in completion order while the pool
        drains (``SweepRunner.run`` hooks its store write-back here, so
        finished points survive a later failure).  The failure protocol is
        the serial/per-call-pool one, shared via
        :func:`repro.sim.sweep._raise_lowest_failure`: drain everything,
        then raise the lowest failing input index as a labelled
        :class:`~repro.exceptions.SweepPointError` chaining the original
        worker exception.  Worker death joins the same protocol: lost
        chunks are re-run on a rebuilt pool, and only a run that exhausts
        its respawn budget raises — a :class:`SweepPointError` naming the
        lowest point that was still lost.
        """
        if not indexed_points:
            return []
        if chunksize is None:
            chunksize = self._chunksize
        if chunksize is None:
            chunksize = max(1, math.ceil(len(indexed_points)
                                         / (self._workers * 4)))
        elif chunksize < 1:
            raise ConfigurationError("chunksize must be at least 1")
        tasks = [(spec, index, point) for index, point in indexed_points]
        chunks = [tasks[start:start + chunksize]
                  for start in range(0, len(tasks), chunksize)]
        ran: List[Tuple[int, SweepRecord]] = []
        failures: Dict[int, tuple] = {}
        run_pids: Set[int] = set()

        def on_result(item) -> None:
            index, record, failure, pid = item
            run_pids.add(pid)
            if failure is not None:
                failures[index] = failure
            else:
                if on_record is not None:
                    on_record(index, record)
                ran.append((index, record))

        try:
            self._supervisor.run_chunks(_run_pooled_chunk, chunks,
                                        on_result=on_result)
        except WorkerLostError as exc:
            raise _lost_points_error(exc, indexed_points) from exc
        finally:
            with self._lock:
                self.last_run_pids = run_pids
                self.pids_seen |= run_pids
        with self._lock:
            self.runs += 1
        if failures:
            _raise_lowest_failure(failures, indexed_points)
        return ran

    def probe(self) -> Dict[int, Tuple[int, ...]]:
        """Sample the workers' cache sizes, by pid.

        Maps every *reached* worker pid to its (runners, datasets,
        samplers, trajectory entries, trajectory bytes, trajectory hits):
        the three substrate cache sizes, then the size, charged bytes and
        lifetime hits of its shared
        :class:`~repro.cache.warm_kernel.TrajectoryMemo`.  Probing sends
        one tiny task per worker slot times four; scheduling decides which
        workers answer, so treat the result as a sample — the reuse tests
        assert over the union, not coverage.
        """
        chunks = [[slot] for slot in range(self._workers * 4)]
        return {pid: tuple(sizes) for pid, *sizes
                in self._supervisor.run_chunks(_probe_chunk, chunks)}

    def close(self, drain: bool = True) -> None:
        """Shut the workers down (idempotent); the pool can be rebuilt.

        ``drain=True`` (the default) waits for in-flight
        :meth:`run_points` calls — including any worker-death recovery
        they still owe — before stopping the workers; ``drain=False``
        terminates immediately, abandoning whatever was running (the
        pre-supervision behaviour, kept for emergencies and tests).
        """
        self._supervisor.close(drain=drain)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Drain on a clean exit; when the body is already raising, don't
        # block on in-flight work that may never finish.
        self.close(drain=exc_type is None)


def _lost_points_error(exc: WorkerLostError,
                       indexed_points: List[Tuple[int, SweepPoint]]
                       ) -> SweepPointError:
    """Convert exhausted-respawn-budget loss into the sweep failure protocol.

    Names the lowest *input-order* point that was still unfinished, like
    :func:`~repro.sim.sweep._raise_lowest_failure` does for points that
    raised, so callers handle both kinds of failure identically.
    """
    lost_indices = sorted(
        task[1] for chunk in exc.pending_chunks for task in chunk)
    points = dict(indexed_points)
    label = ""
    if lost_indices:
        point = points.get(lost_indices[0])
        if point is not None:
            label = point.describe()
    where = f" (first lost point: {label})" if label else ""
    error = SweepPointError(
        f"sweep workers kept dying: {len(lost_indices)} point(s) lost "
        f"after {exc.respawns} pool respawn(s){where}")
    error.point_label = label
    return error
