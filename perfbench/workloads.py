"""The three benchmark workloads: report-cold, report-warm and serve-mixed.

Each workload function takes the seed, the run length and a ``trace`` flag
and returns a :class:`Outcome`.  Untraced, it measures the end-to-end
metrics.  Traced, it first repeats a short untraced measurement, then the
same work with the :mod:`spans` wrappers installed, and derives the
per-layer metrics from the recorded spans (:mod:`layers`).  Why each
workload was chosen is the ``why`` of its entry in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import layers
import spans

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAUNCHER = pathlib.Path(__file__).resolve().parent / "launch.py"

#: Dataset scale of every workload.  At 1/1000 the whole suite (212 sweep
#: points) runs cold in about 5 s on a 2-core box, so a run can repeat it.
SCALE = 0.001

#: Suite passes at least run per report measurement: 4 x 31 experiments
#: leave more than ten latency samples beyond p90.
MIN_PASSES = 4

#: Untraced passes a traced report run repeats as its overhead baseline.
BASELINE_PASSES = 2

#: Times set-up is repeated per untraced run; setup_s is their median.
SETUP_REPEATS = 3

#: serve-mixed traffic.  No serve traffic has been recorded, so the mix is
#: an assumption; the reason for each number is given with it.  The seed
#: picks models, pairs fractions with questions and orders the stream, but
#: the mix of loaders, datasets and fractions is fixed: record size and
#: simulation cost follow them, so a free draw would make the work itself
#: differ from seed to seed.
#:
#: Closed-loop clients, each waiting for its reply: two, one per core of
#: the 2-core box the run was sized on.
CLIENTS = 2
#: Dist agents: two, the smallest fleet over which the executor
#: partitions a batch and steals work.
AGENTS = 2
#: Share of requests that repeat a stored question.  A service that has
#: been up a while mostly answers repeats; 3:1 still leaves 100 fresh
#: requests in a 20 s run, more than ten beyond the p90 of either kind.
HOT_SHARE = 0.75
#: Share of the fresh requests whose question every client asks at once.
#: Their copies are consecutive in the stream and sent together, so all
#: but the first attach to in-flight futures (the batcher's coalescing
#: path) by design, not only by chance; the other fresh requests take the
#: plain miss path.
SHARED_SHARE = 0.4
#: Stream length: the 2-core box serves about 20 requests per second, so
#: the stream lasts about the run length.
REQUESTS_PER_RUN_SECOND = 20
MIN_REQUESTS = 100
#: Every request asks about two cache sizes of one (model, loader,
#: dataset): the smallest what-if that compares, and a batch of more than
#: one point.
MODELS = ("resnet18", "resnet50", "alexnet", "shufflenetv2")
LOADERS = ("coordl", "dali-shuffle", "dali-seq")
DATASETS = ("openimages", "imagenet-1k")
#: Hot questions, per (loader, dataset): HOT_MODELS of MODELS, each asking
#: one LOW and one HIGH fraction, 12 in all, so every loader and dataset
#: is among the hits whatever the seed.
HOT_MODELS = 2
LOW_FRACTIONS = (0.2, 0.3, 0.4)
HIGH_FRACTIONS = (0.5, 0.6, 0.7)
#: Fresh questions draw from a grid disjoint from the hot fractions, so a
#: fresh point is never already stored.
FRESH_FRACTIONS = tuple(round(0.1025 + 0.005 * k, 4) for k in range(150))

#: Bounded shutdown of child processes: SIGTERM, then SIGKILL.
STOP_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0
#: Per-request client timeout, and the point after which the closed loop
#: stops sending (unsent requests count as failed), so a stuck daemon still
#: ends the run well within its time limit.
REQUEST_TIMEOUT_S = 30.0
LOOP_LIMIT_S = 90.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    trace: Optional[List[Dict[str, Any]]] = None

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failure is noted."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def dir_mb(path: pathlib.Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- report workloads -------------------------------------------------------------

def store_backed(backed: bool = True) -> List[str]:
    """Registered experiments that take a ``store`` (their sweep grids go
    through it), or with ``backed=False`` those that do not."""
    from repro.experiments import registry

    return [experiment_id for experiment_id in registry.experiment_ids()
            if registry.accepts_kwarg(experiment_id, "store") == backed]


def run_suite(store, seed: int, latencies: List[float],
              tracer: Optional[spans.Tracer] = None,
              only: Optional[List[str]] = None) -> Dict[str, Optional[str]]:
    """Every registered experiment (or those in ``only``), in registry
    order, into ``store``.

    Returns each experiment's ``format_table()`` (``None`` if it raised)
    and appends each experiment's wall time to ``latencies``.
    """
    from repro.experiments import registry

    tables: Dict[str, Optional[str]] = {}
    for experiment_id in registry.experiment_ids():
        if only is not None and experiment_id not in only:
            continue
        kwargs: Dict[str, Any] = {}
        for name, value in (("scale", SCALE), ("seed", seed), ("store", store)):
            if registry.accepts_kwarg(experiment_id, name):
                kwargs[name] = value
        start = time.perf_counter()
        try:
            if tracer is None:
                result = registry.run_experiment(experiment_id, **kwargs)
            else:
                with tracer.timed(f"experiments.{experiment_id}",
                                  tag=experiment_id):
                    result = registry.run_experiment(experiment_id, **kwargs)
            tables[experiment_id] = result.format_table()
        except Exception as exc:  # counted as a failed operation
            print(f"{experiment_id} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            tables[experiment_id] = None
        latencies.append(time.perf_counter() - start)
    return tables


class Scratch:
    """Fresh per-run directory under the checkout's ``.perfbench/``."""

    def __init__(self) -> None:
        base = ROOT / ".perfbench" / "tmp"
        base.mkdir(parents=True, exist_ok=True)
        self.path = pathlib.Path(tempfile.mkdtemp(dir=base))

    def store_uri(self, name: str) -> str:
        return f"sqlite://{self.path / name / 'store.db'}"

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _compare_tables(outcome: Outcome, reference: Dict[str, Optional[str]],
                    tables: Dict[str, Optional[str]], what: str) -> None:
    """Each table must be byte-identical to the reference's."""
    for experiment_id, table in tables.items():
        outcome.check(table is not None and table == reference.get(experiment_id),
                      f"{what}: {experiment_id} table differs or raised")


def _cold_pass(outcome: Outcome, scratch: Scratch, name: str, seed: int,
               latencies: List[float], tracer: Optional[spans.Tracer] = None
               ) -> Tuple[float, Dict[str, Optional[str]], Any]:
    """One suite pass into a fresh, empty store.

    Returns (pass seconds, tables, the still-open store).
    """
    from repro.store import SweepStore

    store = SweepStore(scratch.store_uri(name))
    start = time.perf_counter()
    tables = run_suite(store, seed, latencies, tracer)
    elapsed = time.perf_counter() - start
    stats = store.stats()
    outcome.check(stats.hits == 0 and stats.puts == stats.entries > 0
                  and stats.mode == "ok",
                  f"{name}: a fresh store must miss every get and store "
                  f"every point (hits={stats.hits} puts={stats.puts} "
                  f"entries={stats.entries} mode={stats.mode})")
    return elapsed, tables, store


def _report_metrics(outcome: Outcome, walls: List[float],
                    latencies: List[float], setups: List[float],
                    store_mb: float) -> None:
    outcome.metrics.update({
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "store_mb": store_mb,
        "requests_per_s": len(latencies) / sum(walls),
        "latency_p50_ms": layers.quantile(latencies, 50) * 1e3,
        "latency_p90_ms": layers.quantile(latencies, 90) * 1e3,
    })
    outcome.notes.append(f"{len(walls)} suite passes, {len(latencies)} "
                         f"experiment runs")


def _repeat(one_pass, seconds: float, trace: bool) -> List[float]:
    """Suite passes until the run length has passed (at least MIN_PASSES);
    a traced run only repeats BASELINE_PASSES as its untraced baseline.
    Returns each pass's seconds."""
    walls: List[float] = []
    deadline = time.perf_counter() + (0 if trace else seconds)
    while (len(walls) < (BASELINE_PASSES if trace else MIN_PASSES)
           or time.perf_counter() < deadline):
        walls.append(one_pass(len(walls)))
    return walls


def _closed_size(store, scratch: Scratch, name: str) -> float:
    store.close()
    return dir_mb(scratch.path / name)


#: Set-up of a cold report, timed in a fresh interpreter: import the
#: experiments and the store, then open an empty SQLite store.
FRESH_START = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro.experiments.registry
from repro.store import SweepStore
SweepStore(sys.argv[2]).close()
print(time.perf_counter() - start)
"""


def _fresh_start_s(scratch: Scratch, name: str) -> float:
    done = subprocess.run(
        [sys.executable, "-c", FRESH_START, str(ROOT / "src"),
         scratch.store_uri(name)],
        capture_output=True, text=True, timeout=START_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def report_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    scratch = Scratch()
    try:
        setups = [] if trace else [_fresh_start_s(scratch, f"start{i}")
                                   for i in range(SETUP_REPEATS)]
        latencies: List[float] = []
        passes: List[Tuple[Dict[str, Optional[str]], float]] = []

        def one_pass(index: int) -> float:
            name = f"cold{index}"
            wall, tables, store = _cold_pass(outcome, scratch, name, seed,
                                             latencies)
            passes.append((tables, _closed_size(store, scratch, name)))
            return wall

        walls = _repeat(one_pass, seconds, trace)
        reference, store_mb = passes[0][0], passes[-1][1]
        for index, (tables, _) in enumerate(passes):
            _compare_tables(outcome, reference, tables, f"cold{index}")
        if not trace:
            _report_metrics(outcome, walls, latencies, setups, store_mb)
            return outcome

        tracer = spans.Tracer("bench")
        spans.install(tracer)
        traced_wall, tables, store = _cold_pass(outcome, scratch, "traced",
                                                seed, [], tracer)
        _compare_tables(outcome, reference, tables, "traced")
        store.close()
        with tracer.timed("probe", tag=layers.PROBE_TAG):
            _kernel_probe(seed)
        outcome.trace = [tracer.export()]
        outcome.metrics = layers.layer_metrics(
            outcome.trace, traced_wall_s=traced_wall,
            untraced_wall_s=statistics.median(walls))
        return outcome
    finally:
        scratch.close()


def _kernel_probe(seed: int) -> None:
    """One fig17 HP-search baseline point at the production scale.

    Its warm-kernel calls replay streams of production size (~1.1M
    accesses), which is where ``cache.warm_kernel.ns_per_access`` is read.
    """
    from repro.cluster.configs import config_ssd_v100
    from repro.compute.model_zoo import get_model
    from repro.experiments.base import SWEEP_SCALE
    from repro.sim.sweep import SweepPoint, SweepRunner

    SweepRunner(config_ssd_v100, scale=SWEEP_SCALE, seed=seed).run(
        [SweepPoint(model=get_model("resnet18"), loader="hp-baseline",
                    dataset="imagenet-22k", cache_fraction=0.35,
                    num_jobs=8, gpus_per_job=1)], store=False)


def report_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    """Set-up fills a store with the whole suite; the timed passes run only
    the store-backed experiments, whose sweep points all hit.  The other
    experiments have no sweep grid and would simulate on every pass, so
    they run once, untimed, after the timed phase, to check their tables.
    """
    from repro.store import SweepStore

    outcome = Outcome()
    scratch = Scratch()
    try:
        fills: List[float] = []
        reference = None
        for repeat in range(1 if trace else SETUP_REPEATS):
            name = f"fill{repeat}"
            start = time.perf_counter()
            _, tables, store = _cold_pass(outcome, scratch, name, seed, [])
            fills.append(time.perf_counter() - start)
            if reference is None:
                reference = tables
            _compare_tables(outcome, reference, tables, name)
            store_mb = _closed_size(store, scratch, name)
        warm = SweepStore(scratch.store_uri(name))
        backed = store_backed()

        latencies: List[float] = []

        def one_pass(index: int) -> float:
            start = time.perf_counter()
            tables = run_suite(warm, seed, latencies, only=backed)
            wall = time.perf_counter() - start
            _compare_tables(outcome, reference, tables, "warm")
            return wall

        walls = _repeat(one_pass, seconds, trace)
        if trace:
            tracer = spans.Tracer("bench")
            spans.install(tracer)
            start = time.perf_counter()
            tables = run_suite(warm, seed, [], tracer, only=backed)
            traced_wall = time.perf_counter() - start
            _compare_tables(outcome, reference, tables, "traced warm")
            outcome.trace = [tracer.export()]
            outcome.metrics = layers.layer_metrics(
                outcome.trace, traced_wall_s=traced_wall,
                untraced_wall_s=statistics.median(walls))
        stats = warm.stats()
        outcome.check(stats.misses == 0 and stats.puts == 0 and stats.hits > 0,
                      f"warm passes must hit every point (hits={stats.hits} "
                      f"misses={stats.misses} puts={stats.puts})")
        _compare_tables(outcome, reference,
                        run_suite(warm, seed, [], only=store_backed(False)),
                        "gridless")
        warm.close()
        if not trace:
            _report_metrics(outcome, walls, latencies, fills, store_mb)
        return outcome
    finally:
        scratch.close()


# -- serve-mixed --------------------------------------------------------------------

@dataclass
class Request:
    index: int
    kind: str  # "hit" or "miss"
    points: list
    #: Requests of one group ask the same question and are sent by every
    #: client at once (see SHARED_SHARE).
    group: Optional[int] = None


def serve_stream(seed: int, count: int) -> Tuple[list, List[Request]]:
    """Hot points plus the seeded request stream (same seed, same stream)."""
    from repro.compute.model_zoo import get_model
    from repro.sim.sweep import SweepPoint

    rng = random.Random(seed)

    def question(model, loader, dataset, fractions):
        return [SweepPoint(model=get_model(model), loader=loader,
                           dataset=dataset, cache_fraction=fraction)
                for fraction in sorted(fractions)]

    def pairs(low, high, n):
        """``n`` (low, high) pairs cycling through both lists, the pairing
        shuffled by the seed."""
        lows = [low[i % len(low)] for i in range(n)]
        highs = [high[i % len(high)] for i in range(n)]
        rng.shuffle(highs)
        return list(zip(lows, highs))

    hot_questions = []
    for dataset in DATASETS:
        asks = [(model, loader) for loader in LOADERS
                for model in rng.sample(MODELS, HOT_MODELS)]
        for (model, loader), fractions in zip(
                asks, pairs(LOW_FRACTIONS, HIGH_FRACTIONS, len(asks))):
            hot_questions.append(question(model, loader, dataset, fractions))

    fresh_count = round(count * (1 - HOT_SHARE))
    shared = round(fresh_count * SHARED_SHARE / CLIENTS)
    question_count = fresh_count - shared * (CLIENTS - 1)
    fresh_questions = []
    for d, dataset in enumerate(DATASETS):
        asks = [(rng.choice(MODELS), LOADERS[i % len(LOADERS)])
                for i in range(d, question_count, len(DATASETS))]
        # 2 * len(asks) distinct fractions spread evenly over the grid.
        grid = [FRESH_FRACTIONS[int((k + 0.5) * len(FRESH_FRACTIONS)
                                    / (2 * len(asks)))]
                for k in range(2 * len(asks))]
        for (model, loader), fractions in zip(
                asks, pairs(grid[:len(asks)], grid[len(asks):], len(asks))):
            fresh_questions.append(question(model, loader, dataset, fractions))

    # Shared questions are spread evenly over the fresh ones, so they mix
    # datasets and loaders the same way whatever the seed.
    spread = {int((k + 0.5) * len(fresh_questions) / shared)
              for k in range(shared)}
    fresh_units = [[("miss", question, q)] * CLIENTS if q in spread
                   else [("miss", question, None)]
                   for q, question in enumerate(fresh_questions)]
    rng.shuffle(fresh_units)
    # Hot questions repeat in one seeded cycle, so two clients ask the same
    # one at once only when one of them is a whole cycle behind: points
    # attach to in-flight futures on the shared questions, hardly ever by
    # chance.
    cycle = rng.sample(hot_questions, len(hot_questions))
    hot_units = [[("hit", cycle[i % len(cycle)], None)]
                 for i in range(count - fresh_count)]
    total = len(hot_units) + len(fresh_units)
    fresh_at = set(rng.sample(range(total), len(fresh_units)))
    hot_iter, fresh_iter = iter(hot_units), iter(fresh_units)
    units = [next(fresh_iter if u in fresh_at else hot_iter)
             for u in range(total)]
    stream = [Request(i, kind, points, group) for i, (kind, points, group)
              in enumerate(ask for unit in units for ask in unit)]
    return [p for q in hot_questions for p in q], stream


def _runner(seed: int):
    from repro.cluster.configs import config_ssd_v100
    from repro.sim.sweep import SweepRunner

    return SweepRunner(config_ssd_v100, scale=SCALE, seed=seed)


def _read_line(proc: subprocess.Popen, prefix: str, timeout_s: float) -> str:
    """The first stdout line of ``proc`` starting with ``prefix``."""
    deadline = time.monotonic() + timeout_s
    buffered = b""
    fd = proc.stdout.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.1)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode("utf-8", "replace").splitlines():
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
        elif proc.poll() is not None:
            break
    raise RuntimeError(f"child {proc.args[3:]} did not announce {prefix!r}")


class Fleet:
    """A serve daemon over two dist agents, all started via launch.py."""

    def __init__(self, scratch: Scratch, store_uri: str, name: str,
                 trace: bool) -> None:
        from repro.dist import LISTENING_PREFIX

        self.procs: List[subprocess.Popen] = []
        self.trace_files: List[pathlib.Path] = []
        log = open(scratch.path / f"{name}.log", "ab")
        try:
            agents = [self._spawn(scratch, log, f"{name}-agent{i}", trace,
                                  ["dist", "worker", "--listen", "127.0.0.1:0",
                                   "--workers", "0"])
                      for i in range(AGENTS)]
            hosts = [_read_line(p, LISTENING_PREFIX, START_TIMEOUT_S)
                     for p in agents]
            self.daemon = self._spawn(
                scratch, log, f"{name}-daemon", trace,
                ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--store", store_uri, "--hosts", ",".join(hosts)])
            url = _read_line(self.daemon, "serving on ", START_TIMEOUT_S)
            self.url = url.split()[0]
        except Exception:
            self.stop()
            raise
        finally:
            log.close()

    def _spawn(self, scratch: Scratch, log, label: str, trace: bool,
               command: List[str]) -> subprocess.Popen:
        argv = [sys.executable, str(LAUNCHER), "--label", label]
        if trace:
            out = scratch.path / f"{label}.trace.json"
            self.trace_files.append(out)
            argv += ["--trace-out", str(out)]
        proc = subprocess.Popen(argv + ["--"] + command, stdout=subprocess.PIPE,
                                stderr=log, cwd=str(ROOT))
        self.procs.append(proc)
        return proc

    def daemon_peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.daemon.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> int:
        """Terminate the daemon, then the agents; returns how many had to
        be killed (or were still alive after the kill)."""
        survivors = 0
        for group in (self.procs[-1:], self.procs[:-1]):
            for proc in group:
                if proc.poll() is None:
                    proc.terminate()
            for proc in group:
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    survivors += 1
                    proc.kill()
                    try:
                        proc.wait(timeout=STOP_TIMEOUT_S)
                    except subprocess.TimeoutExpired:
                        pass
                if proc.stdout is not None:
                    proc.stdout.close()
        self.procs = []
        return survivors


def _serve_setup(outcome: Outcome, scratch: Scratch, name: str, seed: int,
                 hot_points: list, trace: bool):
    """Fill the store with the hot points, then start agents and daemon.

    Returns (seconds, fleet, reference snapshot per hot point key).
    """
    from repro.serve import ServeClient
    from repro.store import SweepStore

    start = time.perf_counter()
    store = SweepStore(scratch.store_uri(name))
    records = _runner(seed).run(hot_points, store=store)
    store.close()
    fleet = Fleet(scratch, scratch.store_uri(name), name, trace)
    try:
        health = ServeClient(fleet.url, timeout_s=REQUEST_TIMEOUT_S,
                             retries=5).health()
    except Exception:
        fleet.stop()
        raise
    elapsed = time.perf_counter() - start
    outcome.check(health.get("status") == "ok",
                  f"{name}: daemon health {health.get('status')}")
    reference = {repr(p): r.snapshot(include_timeline=True)
                 for p, r in zip(hot_points, records)}
    return elapsed, fleet, reference


def _closed_loop(url: str, seed: int, stream: List[Request]):
    """The client threads pull the stream in order until it is drained.

    A client that pulls a request of a group waits until every client has
    pulled its copy, then all send at once.  The copies are consecutive
    and a waiting client pulls nothing, so each copy goes to another
    client.  Returns (wall seconds, {index: (latency s, [WhatIfResult] or
    exc)}); latency starts when the request is sent.
    """
    from repro.serve import ServeClient

    runner = _runner(seed)
    pending = iter(stream)
    lock = threading.Lock()
    results: Dict[int, Tuple[float, Any]] = {}
    cutoff = time.perf_counter() + LOOP_LIMIT_S
    barriers = {r.group: threading.Barrier(CLIENTS, timeout=REQUEST_TIMEOUT_S)
                for r in stream if r.group is not None}

    def client() -> None:
        session = ServeClient(url, timeout_s=REQUEST_TIMEOUT_S, retries=0)
        while time.perf_counter() < cutoff:
            with lock:
                request = next(pending, None)
            if request is None:
                return
            start = time.perf_counter()
            try:
                if request.group is not None:
                    barriers[request.group].wait()
                    start = time.perf_counter()
                answer: Any = session.whatif(runner, request.points)
            except Exception as exc:
                answer = exc
            results[request.index] = (time.perf_counter() - start, answer)

    threads = [threading.Thread(target=client, name=f"client{i}")
               for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, results


def _verify_serve(outcome: Outcome, seed: int, stream: List[Request],
                  results: Dict[int, Tuple[float, Any]],
                  reference: Dict[str, Dict]) -> None:
    """Every served record must equal a direct ``SweepRunner.run``."""
    fresh = list({repr(p): p for r in stream if r.kind == "miss"
                  for p in r.points}.values())
    if fresh:
        direct = _runner(seed).run(fresh, store=False)
        reference = dict(reference)
        reference.update((repr(p), r.snapshot(include_timeline=True))
                         for p, r in zip(fresh, direct))
    for request in stream:
        _, answer = results.get(request.index, (0.0, None))
        ok = (isinstance(answer, list) and len(answer) == len(request.points)
              and all(item.status == "ok" and item.record is not None
                      and item.record.snapshot(include_timeline=True)
                      == reference[repr(point)]
                      for point, item in zip(request.points, answer)))
        outcome.check(ok, f"request {request.index} ({request.kind}): "
                          f"{answer if not isinstance(answer, list) else 'record mismatch'}")


def _serve_phase(outcome: Outcome, scratch: Scratch, name: str, seed: int,
                 hot_points: list, stream: List[Request], trace: bool,
                 repeats: int, setups: List[float]) -> Dict[str, Any]:
    """Set up ``repeats`` times (keeping the last), run the stream, stop
    the children, verify; returns the phase's measurements."""
    from repro.serve import ServeClient
    from repro.store import SweepStore

    for repeat in range(repeats):
        phase = f"{name}{repeat}"
        elapsed, fleet, reference = _serve_setup(
            outcome, scratch, phase, seed, hot_points, trace)
        setups.append(elapsed)
        if repeat < repeats - 1:
            outcome.check(fleet.stop() == 0, f"{phase}: child survived SIGTERM")
    tracer = None
    if trace:
        tracer = spans.Tracer("bench")
        spans.install(tracer)
    try:
        wall, results = _closed_loop(fleet.url, seed, stream)
        bench_export = tracer.export() if tracer is not None else None
        stats = ServeClient(fleet.url, timeout_s=REQUEST_TIMEOUT_S,
                            retries=2).stats()
        rss = fleet.daemon_peak_rss_mb()
    finally:
        survivors = fleet.stop()
    outcome.check(survivors == 0, f"{phase}: {survivors} child(ren) survived "
                                  f"SIGTERM")
    _verify_serve(outcome, seed, stream, results, reference)
    distinct = {repr(p) for p in hot_points}
    distinct.update(repr(p) for r in stream if r.kind == "miss"
                    for p in r.points)
    # Reopening and closing the store checkpoints its WAL, so the size on
    # disk is that of the entries alone.
    store = SweepStore(scratch.store_uri(phase))
    entries = store.stats().entries
    store.close()
    outcome.check(entries == len(distinct),
                  f"{phase}: store holds {entries} entries, expected "
                  f"{len(distinct)} (hot points plus every fresh point)")
    exports = None
    if trace:
        exports = [bench_export] + [
            json.loads(f.read_text(encoding="utf-8"))
            for f in fleet.trace_files if f.exists()]
    return {"wall": wall, "results": results, "stats": stats, "rss": rss,
            "store_mb": dir_mb(scratch.path / phase), "exports": exports}


def _latencies(stream: List[Request], results, kind: Optional[str] = None
               ) -> List[float]:
    return [results[r.index][0] for r in stream
            if r.index in results and (kind is None or r.kind == kind)]


def _attached(stats: Dict[str, Any]) -> int:
    return stats.get("batcher", {}).get("attached_points", 0)


def serve_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    scratch = Scratch()
    try:
        count = max(MIN_REQUESTS, int(REQUESTS_PER_RUN_SECOND * seconds))
        hot_points, stream = serve_stream(seed, count)
        setups: List[float] = []
        plain = _serve_phase(outcome, scratch, "serve", seed, hot_points,
                             stream, False, 1 if trace else SETUP_REPEATS,
                             setups)
        hits = _latencies(stream, plain["results"], "hit")
        misses = _latencies(stream, plain["results"], "miss")
        daemon_p50 = plain["stats"].get("latency", {}).get("p50_ms", 0.0)
        # Points that attach to an in-flight future by design: all copies
        # of a shared question but the first.
        overlap = sum(len(r.points) for r in stream
                      if r.group is not None) * (CLIENTS - 1) // CLIENTS
        if not trace:
            every = _latencies(stream, plain["results"])
            outcome.metrics.update({
                "wall_s": plain["wall"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": plain["rss"],
                "store_mb": plain["store_mb"],
                "requests_per_s": len(every) / plain["wall"],
                "latency_p50_ms": layers.quantile(every, 50) * 1e3,
                "latency_p90_ms": layers.quantile(every, 90) * 1e3,
            })
            outcome.notes.append(
                f"{len(every)} requests ({len(hits)} hot, {len(misses)} fresh); "
                f"hit_latency_p50_ms={layers.quantile(hits, 50) * 1e3:.3f} "
                f"miss_latency_p50_ms={layers.quantile(misses, 50) * 1e3:.3f} "
                f"daemon_latency_p50_ms={daemon_p50}; "
                f"{_attached(plain['stats'])} points attached to in-flight "
                f"futures, {overlap} by design")
            return outcome
        traced = _serve_phase(outcome, scratch, "traced", seed, hot_points,
                              stream, True, 1, [])
        outcome.trace = traced["exports"]
        outcome.metrics = layers.layer_metrics(
            outcome.trace, traced_wall_s=traced["wall"],
            untraced_wall_s=plain["wall"], busy_threads=CLIENTS,
            serve_stats=traced["stats"])
        outcome.metrics.update({
            "serve.hit_latency_p50_ms": layers.quantile(hits, 50) * 1e3,
            "serve.miss_latency_p50_ms": layers.quantile(misses, 50) * 1e3,
            "serve.daemon_latency_p50_ms": float(daemon_p50),
            "serve.attached_share": (_attached(traced["stats"]) / overlap
                                     if overlap else 0.0),
        })
        return outcome
    finally:
        scratch.close()


WORKLOADS = {
    "report-cold": report_cold,
    "report-warm": report_warm,
    "serve-mixed": serve_mixed,
}
