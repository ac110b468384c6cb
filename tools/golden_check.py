#!/usr/bin/env python3
"""One golden-replay gate: every committed golden grid through a matrix of
store backends, executors, fault plans and transports.

Each cell of :data:`CELLS` replays each grid into a fresh traced store
twice, a cold pass and then a warm pass, and applies every check whose
precondition the cell meets:

* both passes reproduce the committed ``tests/golden`` bytes;
* the cold pass misses every point and puts each exactly once; the warm
  pass hits every point and simulates nothing (counted through a
  ``SweepRunner._run_point`` hook wherever simulation runs in this
  process);
* the store's read/write trace satisfies the write-once contract
  (:func:`~repro.store.verify_store_trace`);
* under a fault plan, built into a fresh injector per grid and handed to
  the store, pool, fabric and daemon alike, the planned faults were
  delivered: store faults absorbed by retries (``mode == "ok"``), worker
  kills, batch stalls with ``/v1/health`` reporting its subsystems, and
  exactly the planned host kills with one agent left alive; across the
  host-death cell at least one chunk is reassigned, and clean fabric
  cells lose no host;
* a cell leaves no thread or child process behind.

Per-cell elapsed times and counters land in ``BENCH_golden.json`` at the
repository root.  Run as ``make golden-check`` or ``PYTHONPATH=src python
tools/golden_check.py [--grids NAME ...]``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import multiprocessing
import pathlib
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dist import DistExecutor, LocalWorkerFleet  # noqa: E402
from repro.resilience import FaultInjector, FaultPlan  # noqa: E402
from repro.serve import ServeClient, ServeDaemon  # noqa: E402
from repro.sim.harness import (  # noqa: E402
    GOLDEN_GRIDS,
    golden_path,
    snapshot_diff,
    snapshot_to_json,
)
from repro.sim.sweep import SweepRunner  # noqa: E402
from repro.store import (  # noqa: E402
    PersistentPool,
    SweepStore,
    verify_store_trace,
)
from repro.store.backend import SQLITE_URI_PREFIX  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
REPORT_PATH = REPO_ROOT / "BENCH_golden.json"

PLANS = {
    "ci": FaultPlan.from_json(
        (REPO_ROOT / "tools" / "fault_plans" / "ci.json").read_text(
            encoding="utf-8")),
    # SIGKILL one agent after the first delivered record.
    "host-kill": FaultPlan(host_kills=(1,)),
}

#: How long a cell's threads and child processes may take to wind down.
SETTLE_S = 5.0


@dataclass(frozen=True)
class Cell:
    """One configuration of the matrix.

    ``executor`` is ``serial`` (``workers=0``), ``pool`` (a supervised
    ``PersistentPool(2, chunksize=1)``) or ``dist`` (a ``DistExecutor``
    over ``LocalWorkerFleet(hosts, workers)``); ``http`` routes the
    passes through an in-process ``ServeDaemon`` and ``ServeClient``
    instead of calling ``runner.run`` directly.
    """

    backend: str
    executor: str = "serial"
    plan: Optional[FaultPlan] = None
    http: bool = False
    hosts: int = 0
    workers: int = 0

    @property
    def name(self) -> str:
        executor = self.executor
        if executor == "dist":
            executor += f"[hosts={self.hosts},workers={self.workers}]"
        plan = next((name for name, plan in PLANS.items()
                     if plan == self.plan), "custom" if self.plan else "none")
        return "/".join((self.backend, executor, plan,
                         "http" if self.http else "direct"))


BACKENDS = ("json", "sqlite")
CELLS = (
    *(Cell(b) for b in BACKENDS),
    *(Cell(b, http=True) for b in BACKENDS),
    *(Cell(b, plan=PLANS["ci"]) for b in BACKENDS),
    *(Cell(b, "pool", PLANS["ci"]) for b in BACKENDS),
    *(Cell(b, plan=PLANS["ci"], http=True) for b in BACKENDS),
    *(Cell("sqlite", "dist", hosts=h, workers=w)
      for h in (1, 2) for w in (0, 1, 2)),
    Cell("sqlite", "dist", PLANS["host-kill"], hosts=2),
)


def check(ok: bool, message: str) -> None:
    """Raise :class:`AssertionError` (also under ``python -O``)."""
    if not ok:
        raise AssertionError(message)


@contextlib.contextmanager
def counting_simulations():
    """Count in-process ``SweepRunner._run_point`` calls."""
    simulated = []
    original = SweepRunner._run_point

    def counting(self, point):
        simulated.append(point)
        return original(self, point)

    SweepRunner._run_point = counting
    try:
        yield simulated
    finally:
        SweepRunner._run_point = original


def replay(cell: Cell, name: str, golden_dir: pathlib.Path = GOLDEN_DIR,
           fleet: Optional[LocalWorkerFleet] = None) -> dict:
    """Cold then warm pass of one golden grid through one cell.

    A ``dist`` cell runs over ``fleet`` when given, else over a fleet of
    its own that lives for this grid only.
    """
    grid = GOLDEN_GRIDS[name]
    points = grid.points()
    golden = golden_path(name, golden_dir).read_text(encoding="utf-8")
    plan = cell.plan or FaultPlan()
    injector = FaultInjector(plan) if cell.plan else None
    where = f"[{cell.name}] {name}"
    own_fleet = cell.executor == "dist" and fleet is None
    passes = {}
    with contextlib.ExitStack() as stack:
        tmp = pathlib.Path(stack.enter_context(
            tempfile.TemporaryDirectory(prefix="golden-check-")))
        location = (f"{SQLITE_URI_PREFIX}{tmp / 'store.db'}"
                    if cell.backend == "sqlite" else str(tmp / "store"))
        store = SweepStore(location, trace=True, fault_injector=injector)
        stack.callback(store.close)
        executor = None
        if cell.executor == "pool":
            executor = stack.enter_context(PersistentPool(
                2, chunksize=1, fault_injector=injector))
        elif cell.executor == "dist":
            if own_fleet:
                fleet = stack.enter_context(
                    LocalWorkerFleet(cell.hosts, workers=cell.workers))
            executor = stack.enter_context(DistExecutor(
                fleet.endpoints, chunksize=1, fault_injector=injector,
                kill_hook=fleet.kill_one))
        if cell.http:
            daemon = stack.enter_context(ServeDaemon(
                port=0, store=store, fault_injector=injector))
            client = ServeClient(daemon.url)

            def fetch() -> dict:
                results = client.whatif(grid.build_runner(), points)
                bad = [r.status for r in results if r.status != "ok"]
                check(not bad, f"{where}: non-ok statuses {bad}")
                return {"records": [r.record.snapshot() for r in results]}
        else:
            def fetch() -> dict:
                return grid.build_runner().run(
                    points, workers=0, pool=executor, store=store).snapshot()

        in_process = cell.executor == "serial"
        simulated = stack.enter_context(counting_simulations())

        def tally() -> tuple:
            return store.hits, store.misses, store.puts, len(simulated)

        for label in ("cold", "warm"):
            before = tally()
            start = time.perf_counter()
            actual = snapshot_to_json(fetch())
            elapsed = time.perf_counter() - start
            check(actual == golden,
                  f"{where} ({label}): diverged from the committed golden "
                  f"(first differences: "
                  f"{snapshot_diff(json.loads(golden), json.loads(actual))})")
            hits, misses, puts, sims = (
                now - then for now, then in zip(tally(), before))
            passes[label] = {"elapsed_s": round(elapsed, 6), "hits": hits,
                             "misses": misses, "puts": puts}
            cold = label == "cold"
            expected = (0, len(points), len(points)) if cold else (
                len(points), 0, 0)
            check((hits, misses, puts) == expected,
                  f"{where} ({label}): {hits} hits / {misses} misses / "
                  f"{puts} puts, expected {expected}")
            if in_process:
                check(sims == (len(points) if cold else 0),
                      f"{where} ({label}): {sims} simulations")

        violations = verify_store_trace(store.trace_events)
        check(not violations, f"{where}: store trace violates the write-once "
                              f"contract: {violations}")
        stats = store.stats().to_dict()
        check(stats["entries"] == len(points),
              f"{where}: {stats['entries']} stored entries for "
              f"{len(points)} points")
        faults = injector.snapshot() if injector else {}
        if plan.store_faults:
            planned = sum(f.times for f in plan.store_faults
                          if f.kind == "transient")
            check(faults["transient_store_faults"] >= planned,
                  f"{where}: {faults['transient_store_faults']} of "
                  f"{planned} planned transient store faults delivered")
            check(store.mode == "ok",
                  f"{where}: transient faults degraded the store to "
                  f"{store.mode!r} ({store.degraded_reason})")
        if plan.worker_kills and cell.executor == "pool":
            check(faults["worker_kills"] >= 1,
                  f"{where}: the plan delivered no worker kill")
        serve = {}
        if cell.http:
            health = client.health()
            check("admission" in health.get("subsystems", {}),
                  f"{where}: /v1/health lost its subsystem report")
            serve = {"status": health["status"],
                     "batcher": client.stats()["batcher"]}
            if plan.serve_stalls:
                check(faults["batch_stalls"] >= 1,
                      f"{where}: the planned batch stall never fired")
        counters = {name: getattr(executor, name) for name in (
            "respawns", "reruns", "points_sent", "steals", "duplicates",
            "hosts_lost") if hasattr(executor, name)}
        if cell.executor == "dist":
            lost = len(plan.host_kills)
            check(faults.get("host_kills", 0) == lost
                  and executor.hosts_lost == lost,
                  f"{where}: {faults.get('host_kills', 0)} host kill(s) "
                  f"delivered, {executor.hosts_lost} host(s) lost, wanted "
                  f"{lost}")
            check(len(fleet.alive) == cell.hosts - lost,
                  f"{where}: {len(fleet.alive)} agent(s) alive, wanted "
                  f"{cell.hosts - lost}")
    if own_fleet:
        check(not fleet.alive, f"{where}: agents outlived their fleet")
    return {"points": len(points), "passes": passes, "store": stats,
            "faults": faults, "executor": counters, "serve": serve}


def _live() -> collections.Counter:
    """Names of live threads and pids of child processes."""
    return collections.Counter(
        [t.name for t in threading.enumerate()]
        + [f"pid:{p.pid}" for p in multiprocessing.active_children()])


def run_cell(cell: Cell, names, golden_dir: pathlib.Path = GOLDEN_DIR
             ) -> dict:
    """Every grid through one cell; the cell must leave nothing running."""
    before = _live()
    start = time.perf_counter()
    # Every grid of a host-kill cell loses an agent, so it needs a fleet
    # of its own; other fabric cells share one.
    shared = (cell.executor == "dist"
              and not (cell.plan and cell.plan.host_kills))
    with (LocalWorkerFleet(cell.hosts, workers=cell.workers) if shared
          else contextlib.nullcontext()) as fleet:
        grids = {name: replay(cell, name, golden_dir, fleet)
                 for name in names}
    check(fleet is None or not fleet.alive,
          f"[{cell.name}]: agents outlived their fleet")
    elapsed = time.perf_counter() - start
    if cell.plan is not None and cell.plan.host_kills:
        reassigned = sum(g["executor"]["respawns"] for g in grids.values())
        check(reassigned >= 1,
              f"[{cell.name}]: no chunk was ever reassigned; every kill "
              f"landed after the victim's work had drained")
    deadline = time.monotonic() + SETTLE_S
    while (leaked := _live() - before) and time.monotonic() < deadline:
        time.sleep(0.05)
    check(not leaked, f"[{cell.name}]: left running after "
                      f"{SETTLE_S:.0f} s: {sorted(leaked)}")
    return {"elapsed_s": round(elapsed, 6), "grids": grids}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grids", nargs="+", metavar="NAME",
                        choices=sorted(GOLDEN_GRIDS),
                        default=sorted(GOLDEN_GRIDS),
                        help="replay only these golden grids "
                             "(default: every committed grid)")
    names = sorted(parser.parse_args().grids)
    cells = {}
    for cell in CELLS:
        cells[cell.name] = result = run_cell(cell, names)
        print(f"golden-check[{cell.name}]: {len(names)} grids "
              f"byte-identical cold and warm ({result['elapsed_s']:.2f} s)")
    REPORT_PATH.write_text(json.dumps(
        {"schema": "repro-golden-gate/1", "grids": names, "cells": cells},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"golden-check: {len(cells)} cells -> {REPORT_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
