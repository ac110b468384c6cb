"""Content-addressed sweep result store and persistent worker pool.

The subsystem that turns the reproduction from recompute-everything into
serve-many-queries:

* :class:`SweepStore` — a content-addressed store of
  :class:`~repro.sim.sweep.SweepRecord` snapshots, keyed by a BLAKE2
  digest (:func:`store_key`) of the canonical (runner, point, env-flag)
  identity (:meth:`~repro.sim.sweep.SweepRunner.point_spec`) plus the
  store schema version and a :func:`source_digest` of the simulator's
  own code (so simulator edits orphan entries instead of serving stale
  bytes).  A hit rehydrates a byte-identical record
  (:meth:`~repro.sim.sweep.SweepRecord.from_snapshot`); corruption of any
  entry degrades to a miss, never to a wrong answer.
* :class:`StoreBackend` — the pluggable storage contract behind the
  store: :class:`JsonDirBackend` (one JSON file per entry, the original
  byte-compatible layout) or :class:`SqliteBackend` (one WAL-mode SQLite
  database: SQL index + packed payloads, so ``stats``/``gc``/
  ``invalidate`` are queries, not directory scans).  Locations select
  the backend — a plain directory path vs a ``sqlite://PATH`` URI — and
  :func:`migrate_store` converts a populated store between them.
* :class:`PersistentPool` — a spawn worker pool that outlives individual
  ``run()`` calls, with per-worker dataset/sampler caches shared across
  runner configurations.
* :func:`resolve_store` — the ``store=`` argument normaliser every
  sweep-backed ``run`` uses (:data:`STORE_ENV_VAR` supplies the ambient
  default; ``False`` opts out).

Both halves plug into :meth:`repro.sim.sweep.SweepRunner.run` via its
``store=`` / ``pool=`` arguments and are surfaced on the command line as
``--store`` / ``--no-store`` plus the ``repro store`` management
subcommands (``stats`` / ``gc`` / ``invalidate`` / ``migrate``).
"""

from repro.store.backend import (
    EntryInvalid,
    JsonDirBackend,
    RunnerStats,
    SqliteBackend,
    StoreBackend,
    open_backend,
)
from repro.store.pool import PersistentPool
from repro.store.store import (
    STORE_ENV_VAR,
    STORE_SCHEMA_VERSION,
    StoreArg,
    StoreStats,
    StoreTraceEvent,
    SweepStore,
    merge_store_traces,
    migrate_store,
    resolve_store,
    runner_spec_digest,
    source_digest,
    store_key,
    verify_store_trace,
)

__all__ = [
    "SweepStore",
    "StoreBackend",
    "JsonDirBackend",
    "SqliteBackend",
    "EntryInvalid",
    "RunnerStats",
    "StoreStats",
    "StoreArg",
    "StoreTraceEvent",
    "PersistentPool",
    "merge_store_traces",
    "migrate_store",
    "open_backend",
    "resolve_store",
    "runner_spec_digest",
    "source_digest",
    "store_key",
    "verify_store_trace",
    "STORE_ENV_VAR",
    "STORE_SCHEMA_VERSION",
]
