"""Concurrency tests for the content-addressed store (``repro.store``).

The write-once concurrency contract the serve layer builds on, enforced
against **both** backends (JSON directory and ``sqlite://`` database):

* **concurrent writers never corrupt** — many threads putting the same
  key leave exactly one valid entry (first writer stores, the rest are
  ``redundant``), and racing writers that all miss the existence check
  still converge on identical bytes;
* **readers racing writers** — a reader sees either a miss or the one
  true entry, never torn bytes; proven by replaying the store's recorded
  read/write trace through :func:`~repro.store.verify_store_trace`
  (write-once + reads-serve-writes, checked over digests of the actual
  bytes each operation touched — file bytes for JSON, payload blobs for
  SQLite — so the checker is backend-independent);
* **corruption degrades and repairs** — a truncated entry is a counted
  invalid miss, is deleted so the write-once ``put`` can re-store it, and
  the repair round-trips byte-identically;
* **no stray files** — the JSON layout's atomic-write temp names are
  unique per (process, thread, attempt) and cleaned up on every path; the
  SQLite layout leaves nothing but the database (plus its WAL/shm);
* **no leaked connections** — a SQLite connection is released when the
  thread that used it exits, so short-lived threads (one per serve
  request) leave neither connections nor file descriptors behind;
* the trace checker itself **rejects fabricated inconsistent histories**
  (it must be able to fail, or passing it proves nothing).
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import sys
import threading

import pytest

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import RESNET18
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.store import (
    StoreTraceEvent,
    SweepStore,
    merge_store_traces,
    verify_store_trace,
)

SCALE = 1 / 500.0

BACKENDS = ("json", "sqlite")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def location(tmp_path, backend) -> str:
    if backend == "sqlite":
        return f"sqlite://{tmp_path / 'store.db'}"
    return str(tmp_path / "store")


def _write_raw(store: SweepStore, key: str, data: bytes) -> None:
    """Overwrite ``key``'s stored bytes in place, bypassing the backend.

    Opens its own connection for SQLite, so it is safe from any thread.
    """
    if store.backend.kind == "json":
        store.entry_path(key).write_bytes(data)
        return
    con = sqlite3.connect(str(store.backend.path), timeout=30.0)
    try:
        con.execute("UPDATE entries SET payload = ? WHERE key = ?",
                    (data, key))
        con.commit()
    finally:
        con.close()


def _read_raw(store: SweepStore, key: str) -> bytes:
    if store.backend.kind == "json":
        return store.entry_path(key).read_bytes()
    con = sqlite3.connect(str(store.backend.path), timeout=30.0)
    try:
        row = con.execute("SELECT payload FROM entries WHERE key = ?",
                          (key,)).fetchone()
        assert row is not None, f"no stored entry for {key}"
        return bytes(row[0])
    finally:
        con.close()


def _runner() -> SweepRunner:
    return SweepRunner(config_ssd_v100, scale=SCALE, seed=0)


def _point(fraction: float = 0.5) -> SweepPoint:
    return SweepPoint(model=RESNET18, loader="coordl", dataset="openimages",
                      cache_fraction=fraction)


def _simulate(runner: SweepRunner, point: SweepPoint):
    return runner.run([point]).records[0]


def _run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)


class TestConcurrentWriters:
    def test_same_key_put_race_is_write_once(self, location):
        runner, point = _runner(), _point()
        record = _simulate(runner, point)
        store = SweepStore(location)
        key = store.key_for(runner, point)
        barrier = threading.Barrier(8)

        def writer():
            barrier.wait()
            store.put(key, record)

        _run_threads([writer] * 8)
        assert store.puts + store.redundant_puts == 8
        assert store.puts >= 1
        # Exactly one valid entry stored, rehydrating byte-identically.
        assert store.stats().entries == 1
        rehydrated = SweepStore(location).get(key, point)
        assert (rehydrated.snapshot(include_timeline=True)
                == record.snapshot(include_timeline=True))

    def test_racing_past_the_existence_check_converges(self, location):
        """Four stores (no shared lock or counters) writing the same key:
        both may store, but the surviving bytes are valid and identical."""
        runner, point = _runner(), _point()
        record = _simulate(runner, point)
        stores = [SweepStore(location) for _ in range(4)]
        key = stores[0].key_for(runner, point)
        barrier = threading.Barrier(4)

        def writer(store):
            barrier.wait()
            store.put(key, record)

        _run_threads([lambda s=s: writer(s) for s in stores])
        assert stores[0].backend.entries() == [key]
        if stores[0].backend.kind == "json":
            entry = stores[0].entry_path(key)
            assert json.loads(entry.read_text())["key"] == key
        rehydrated = SweepStore(location).get(key, point)
        assert (rehydrated.snapshot(include_timeline=True)
                == record.snapshot(include_timeline=True))

    def test_no_stray_files(self, location, tmp_path, backend):
        runner, point = _runner(), _point()
        record = _simulate(runner, point)
        store = SweepStore(location)
        key = store.key_for(runner, point)

        def writer():
            for _ in range(5):
                store.put(key, record)

        _run_threads([writer] * 6)
        if backend == "json":
            strays = [p for p in (tmp_path / "store").rglob("*")
                      if p.is_file() and not p.name.endswith(".json")]
            assert strays == []
        else:
            allowed = {"store.db", "store.db-wal", "store.db-shm"}
            present = {p.name for p in tmp_path.iterdir() if p.is_file()}
            assert present <= allowed


def _db_fds(db: str) -> int:
    """This process's open file descriptors on ``db`` (and its WAL/shm)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith(db)
        except OSError:  # closed while listing (the listing's own fd)
            pass
    return count


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
class TestConnectionLifetime:
    def test_short_lived_threads_leave_no_connections(self, tmp_path):
        db = str(tmp_path / "store.db")
        store = SweepStore(f"sqlite://{db}")
        runner, point = _runner(), _point()
        key = store.key_for(runner, point)
        store.put(key, _simulate(runner, point))
        hits = []

        def reader():
            hits.append(store.get(key, point) is not None)

        _run_threads([reader])  # settles the spare connection
        baseline = len(os.listdir("/proc/self/fd"))
        # One short-lived thread after another, like a client's requests
        # to the serve daemon (a handler thread per connection).
        for _ in range(50):
            _run_threads([reader])
        assert (len(store.backend._connections)
                <= threading.active_count() + 1)
        assert len(os.listdir("/proc/self/fd")) == baseline
        # 50 overlapping threads, switching often: each one's connection
        # is released when it exits.  (SQLite defers closing the
        # descriptors of a connection closed while others are open and
        # reuses them for the next one it opens; they go once the last
        # connection closes.)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads([reader] * 50)
        finally:
            sys.setswitchinterval(interval)
        assert hits == [True] * 101
        assert (len(store.backend._connections)
                <= threading.active_count() + 1)
        store.close()
        assert not store.backend._connections
        assert _db_fds(db) == 0


class TestTraceConsistency:
    def test_concurrent_readers_and_writers_trace_verifies(self, location):
        """8 threads mixing gets and puts over overlapping keys: the store's
        own read/write trace satisfies the write-once contract."""
        runner = _runner()
        points = [_point(fraction) for fraction in (0.3, 0.5, 0.7)]
        records = {p.cache_fraction: _simulate(runner, p) for p in points}
        store = SweepStore(location, trace=True)
        keys = {p.cache_fraction: store.key_for(runner, p) for p in points}
        barrier = threading.Barrier(8)

        def reader():
            barrier.wait()
            for _ in range(10):
                for point in points:
                    store.get(keys[point.cache_fraction], point)

        def writer():
            barrier.wait()
            for _ in range(5):
                for point in points:
                    store.put(keys[point.cache_fraction],
                              records[point.cache_fraction])

        _run_threads([reader] * 4 + [writer] * 4)
        assert store.trace_events, "tracing was on but recorded nothing"
        assert verify_store_trace(store.trace_events) == []
        # Sanity over the counters the trace is built from.  Writers racing
        # past the existence check may all store (identical bytes), so puts
        # is bounded by the writer count, not pinned to one per key (the
        # SQLite backend's conflict-free INSERT pins it to one, which sits
        # inside the same bound).
        assert len(points) <= store.puts <= 4 * len(points)
        assert store.puts + store.redundant_puts == 4 * 5 * len(points)
        assert store.hits + store.misses == 4 * 10 * len(points)

    def test_verifier_rejects_conflicting_writes(self):
        events = [
            StoreTraceEvent(seq=0, op="put", key="k1", outcome="stored",
                            digest="aaaa", thread=1),
            StoreTraceEvent(seq=1, op="put", key="k1", outcome="stored",
                            digest="bbbb", thread=2),
        ]
        violations = verify_store_trace(events)
        assert len(violations) == 1
        assert "write-once violated" in violations[0]

    def test_verifier_rejects_reads_of_unwritten_bytes(self):
        events = [
            StoreTraceEvent(seq=0, op="put", key="k1", outcome="stored",
                            digest="aaaa", thread=1),
            StoreTraceEvent(seq=1, op="get", key="k1", outcome="hit",
                            digest="cccc", thread=2),
        ]
        violations = verify_store_trace(events)
        assert len(violations) == 1
        assert "no put of that key wrote" in violations[0]

    def test_verifier_rejects_disagreeing_preexisting_hits(self):
        events = [
            StoreTraceEvent(seq=0, op="get", key="k2", outcome="hit",
                            digest="aaaa", thread=1),
            StoreTraceEvent(seq=1, op="get", key="k2", outcome="hit",
                            digest="bbbb", thread=2),
        ]
        violations = verify_store_trace(events)
        assert len(violations) == 1
        assert "disagree" in violations[0]

    def test_verifier_accepts_consistent_history(self):
        events = [
            StoreTraceEvent(seq=0, op="get", key="k1", outcome="miss",
                            digest=None, thread=1),
            StoreTraceEvent(seq=1, op="put", key="k1", outcome="stored",
                            digest="aaaa", thread=1),
            StoreTraceEvent(seq=2, op="put", key="k1", outcome="redundant",
                            digest=None, thread=2),
            StoreTraceEvent(seq=3, op="get", key="k1", outcome="hit",
                            digest="aaaa", thread=2),
        ]
        assert verify_store_trace(events) == []


class TestCorruptionRepair:
    def test_truncated_entry_is_invalid_miss_then_repaired(self, location):
        runner, point = _runner(), _point()
        record = _simulate(runner, point)
        store = SweepStore(location, trace=True)
        key = store.key_for(runner, point)
        store.put(key, record)
        _write_raw(store, key, _read_raw(store, key)[:25])  # torn write
        assert store.get(key, point) is None
        assert store.invalid == 1 and store.misses == 1
        # Deleted, re-opening the write-once key for the repairing put.
        assert key not in store.backend.entries()
        # The repairing put stores (not redundant), and the entry serves.
        store.put(key, record)
        assert store.puts == 2 and store.redundant_puts == 0
        rehydrated = store.get(key, point)
        assert (rehydrated.snapshot(include_timeline=True)
                == record.snapshot(include_timeline=True))
        assert verify_store_trace(store.trace_events) == []

    def test_concurrent_truncation_and_reads_never_serve_wrong_bytes(
            self, location):
        """Readers racing a corrupter and a repairer: every hit served the
        one true content (checked over the recorded trace)."""
        runner, point = _runner(), _point()
        record = _simulate(runner, point)
        store = SweepStore(location, trace=True)
        key = store.key_for(runner, point)
        store.put(key, record)
        payload = _read_raw(store, key)
        barrier = threading.Barrier(6)
        stop = threading.Event()

        def reader():
            barrier.wait()
            while not stop.is_set():
                result = store.get(key, point)
                if result is not None:
                    assert (result.snapshot(include_timeline=True)
                            == record.snapshot(include_timeline=True))

        def corrupter():
            barrier.wait()
            for _ in range(10):
                try:
                    _write_raw(store, key, payload[:30])
                except (OSError, sqlite3.Error):
                    pass

        def repairer():
            barrier.wait()
            for _ in range(20):
                store.put(key, record)
            stop.set()

        _run_threads([reader] * 4 + [corrupter, repairer])
        stop.set()
        # Write-once + reads-serve-writes must hold over the whole ordeal;
        # corrupted reads appear as invalid (not hit) events and pass.
        assert verify_store_trace(store.trace_events) == []


class TestMultiWriterTraces:
    """Several concurrent writer processes/drivers (the multi-host fabric's
    shape) each record their own trace; merged into one globally-sequenced
    history, the write-once contract still holds — and a fabricated
    conflicting multi-writer history is still caught."""

    def test_concurrent_writers_merge_to_a_consistent_trace(self, location):
        runner = _runner()
        points = [_point(fraction) for fraction in (0.3, 0.5, 0.7)]
        records = {p.cache_fraction: _simulate(runner, p) for p in points}
        writers = {
            name: SweepStore(location, trace=True, trace_writer=name)
            for name in ("driver-a", "driver-b", "driver-c")}
        keys = {p.cache_fraction:
                next(iter(writers.values())).key_for(runner, p)
                for p in points}
        barrier = threading.Barrier(len(writers) * 2)

        def churn(store):
            barrier.wait()
            for _ in range(5):
                for point in points:
                    store.put(keys[point.cache_fraction],
                              records[point.cache_fraction])
                    store.get(keys[point.cache_fraction], point)

        _run_threads([lambda s=s: churn(s)
                      for s in writers.values() for _ in range(2)])
        merged = merge_store_traces(
            {name: store.trace_events for name, store in writers.items()})
        assert merged, "tracing was on but recorded nothing"
        # Stamped, re-sequenced, and contract-clean as one history.
        assert [event.seq for event in merged] == list(range(len(merged)))
        assert {event.writer for event in merged} == set(writers)
        assert sum(len(s.trace_events) for s in writers.values()) == len(merged)
        assert verify_store_trace(merged) == []

    def test_merge_is_deterministic_and_keeps_local_order(self):
        a = [StoreTraceEvent(seq=0, op="put", key="k", outcome="stored",
                             digest="aaaa", thread=1),
             StoreTraceEvent(seq=1, op="get", key="k", outcome="hit",
                             digest="aaaa", thread=1)]
        b = [StoreTraceEvent(seq=0, op="get", key="k", outcome="hit",
                             digest="aaaa", thread=2)]
        merged = merge_store_traces({"b": b, "a": a})
        assert merged == merge_store_traces({"a": a, "b": b})
        # Ties on local seq break on the writer id; each writer's own
        # events keep their relative order.
        assert [(e.writer, e.op) for e in merged] == [
            ("a", "put"), ("b", "get"), ("a", "get")]
        assert [e.seq for e in merged] == [0, 1, 2]

    def test_merged_conflicting_writers_are_caught(self):
        """Two drivers claiming to have stored different bytes under one
        key: invisible inside either single-writer trace, a write-once
        violation in the merged one."""
        a = [StoreTraceEvent(seq=0, op="put", key="k1", outcome="stored",
                             digest="aaaa", thread=1)]
        b = [StoreTraceEvent(seq=0, op="put", key="k1", outcome="stored",
                             digest="bbbb", thread=1)]
        assert verify_store_trace(a) == []
        assert verify_store_trace(b) == []
        violations = verify_store_trace(
            merge_store_traces({"driver-a": a, "driver-b": b}))
        assert len(violations) == 1
        assert "write-once violated" in violations[0]

    def test_merged_cross_writer_stale_read_is_caught(self):
        """A reader on one host seeing bytes no writer anywhere put."""
        a = [StoreTraceEvent(seq=0, op="put", key="k1", outcome="stored",
                             digest="aaaa", thread=1)]
        b = [StoreTraceEvent(seq=0, op="get", key="k1", outcome="hit",
                             digest="cccc", thread=1)]
        violations = verify_store_trace(
            merge_store_traces({"driver-a": a, "driver-b": b}))
        assert len(violations) == 1
        assert "no put of that key wrote" in violations[0]
