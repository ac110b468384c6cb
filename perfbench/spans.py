"""In-memory spans around the public entry points of each repro layer.

Nothing here edits the program: :func:`install` replaces public functions,
methods and module-level ``json`` references with timing wrappers at run
time, in whichever process calls it (the benchmark itself, or a serve
daemon / dist agent started through ``perfbench/launch.py``).

Each span records its name, start and end (``perf_counter_ns``, which is
``CLOCK_MONOTONIC`` and therefore comparable across processes on Linux),
its parent span on the same thread, a tag (the experiment or request id
the benchmark was working on, when it set one) and an optional note
(payload bytes, or the digest of a warm-kernel input).  A span's self time
is its duration minus the time covered by its children.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, module, attribute path) of every wrapped entry point.
#: ``Class.method`` paths are wrapped on the class and on every subclass
#: that overrides the method; plain function paths are replaced in every
#: loaded ``repro`` module that imported the function by name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cache.warm_kernel", "repro.cache.warm_kernel", "simulate_segmented_lru"),
    ("datasets.dataset", "repro.datasets.dataset", "SyntheticDataset.__init__"),
    ("datasets.sampler", "repro.datasets.sampler", "Sampler.epoch"),
    ("datasets.sampler", "repro.datasets.sampler", "ShuffleBufferSampler.storage_order"),
    ("datasets.sampler", "repro.datasets.sampler", "BatchSampler.epoch"),
    ("cache.page_cache", "repro.cache.page_cache", "PageCache.lookup"),
    ("cache.page_cache", "repro.cache.page_cache", "PageCache.admit"),
    ("cache.page_cache", "repro.cache.page_cache", "PageCache.bulk_epoch_hits"),
    ("cache.page_cache", "repro.cache.page_cache", "PageCache.bulk_saturating_hits"),
    ("cache.page_cache", "repro.cache.page_cache", "PageCache.bulk_stream_hits"),
    ("cache.minio", "repro.cache.minio", "MinIOCache.lookup"),
    ("cache.minio", "repro.cache.minio", "MinIOCache.admit"),
    ("cache.minio", "repro.cache.minio", "MinIOCache.contains_array"),
    ("cache.minio", "repro.cache.minio", "MinIOCache.bulk_epoch_hits"),
    ("cache.partitioned", "repro.cache.partitioned", "PartitionedCacheGroup.lookup"),
    ("cache.partitioned", "repro.cache.partitioned", "PartitionedCacheGroup.admit_local"),
    ("cache.partitioned", "repro.cache.partitioned", "PartitionedCacheGroup.bulk_epoch_lookup"),
    ("cache.partitioned", "repro.cache.partitioned", "PartitionedCacheGroup.populate_from_shards"),
    ("pipeline.batch_times", "repro.pipeline.base", "DataLoader.batch_time_arrays"),
    ("pipeline.batch_times", "repro.pipeline.base", "DataLoader.fetch_batch"),
    ("pipeline.batch_times", "repro.pipeline.base", "DataLoader.prep_batch_time"),
    ("sim.engine", "repro.sim.engine", "PipelineSimulator.run_epochs"),
    ("sim.engine", "repro.sim.engine", "PipelineSimulator.run_epoch"),
    ("sim.engine", "repro.sim.engine", "PipelineSimulator.collect_batch_times"),
    ("sim.engine", "repro.sim.engine", "pipeline_makespan"),
    ("sim.scenarios", "repro.sim.single_server", "build_loader"),
    ("sim.scenarios", "repro.sim.hp_search", "HPSearchScenario.run_baseline"),
    ("sim.scenarios", "repro.sim.hp_search", "HPSearchScenario.run_coordl"),
    ("sim.scenarios", "repro.sim.distributed", "DistributedTraining.run_baseline"),
    ("sim.scenarios", "repro.sim.distributed", "DistributedTraining.run_coordl"),
    ("sim.scenarios", "repro.sim.failures", "FailureScenario.run_crash"),
    ("sim.scenarios", "repro.sim.failures", "FailureScenario.run_elastic"),
    ("sim.scenarios", "repro.sim.failures", "FailureScenario.run_straggler"),
    ("sim.scenarios", "repro.sim.failures", "FailureScenario.run_multitenant"),
    ("sim.sweep", "repro.sim.sweep", "SweepRunner.run"),
    ("sim.sweep.snapshot", "repro.sim.sweep", "SweepRecord.snapshot"),
    ("sim.sweep.from_snapshot", "repro.sim.sweep", "SweepRecord.from_snapshot"),
    ("store.get", "repro.store.store", "SweepStore.get"),
    ("store.put", "repro.store.store", "SweepStore.put"),
    ("store.backend.get", "repro.store.backend", "StoreBackend.get"),
    ("store.backend.put", "repro.store.backend", "StoreBackend.put"),
    ("serve.encode", "repro.serve.protocol", "record_to_wire"),
    ("serve.client", "repro.serve.client", "ServeClient.whatif"),
    ("serve.client_decode", "repro.serve.protocol", "record_from_wire"),
    ("dist.run_points", "repro.dist.executor", "DistExecutor.run_points"),
)

#: (span name, module, json function) for modules whose ``json`` global is
#: swapped for a timing proxy: the serialisation cost and byte counts of
#: the store payloads, serve responses and dist frames live there.
JSON_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("store.backend.encode", "repro.store.backend", "dumps"),
    ("store.backend.decode", "repro.store.backend", "loads"),
    ("serve.encode", "repro.serve.server", "dumps"),
    ("serve.client_decode", "repro.serve.client", "loads"),
    ("dist.frames.encode", "repro.dist.protocol", "dumps"),
    ("dist.frames.decode", "repro.dist.protocol", "loads"),
)

#: Span of the segmented-LRU warm kernel, whose inputs are digested.
KERNEL_SPAN = TARGETS[0][0]

#: Counters the dist executor keeps, copied after every ``run_points``.
DIST_COUNTERS = ("points_sent", "steals", "duplicates")


class Tracer:
    """Per-thread span lists plus a few counters, all held in memory."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.counters: Dict[str, int] = {}
        self._threads: List[Tuple[str, List[Optional[tuple]]]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> list:
        state = getattr(self._local, "state", None)
        if state is None:
            spans: List[Optional[tuple]] = []
            state = self._local.state = [spans, [], None]
            with self._lock:
                self._threads.append((threading.current_thread().name, spans))
        return state

    def set_counter(self, name: str, value: int) -> None:
        with self._lock:
            self.counters[name] = value

    def span(self, name: str, fn: Callable, *,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call records one span.

        The span's note comes from ``before(args, kwargs)``, run ahead of
        the clock, or from ``after(args, result)``, run behind it.
        """
        state_of = self._state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack, tag = state_of()
            note = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if after is not None:
                    note = after(args, result)
                spans[index] = (name, start, end, parent, tag, note)

        return wrapper

    @contextlib.contextmanager
    def timed(self, name: str, tag: Optional[str] = None):
        """Record one span around a block, tagging it and everything the
        block records with ``tag`` when one is given."""
        state = self._state()
        spans, stack, previous_tag = state
        if tag is not None:
            state[2] = tag
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, state[2], None)
            state[2] = previous_tag

    def export(self) -> Dict[str, Any]:
        """Plain-data form of everything recorded (JSON-serialisable)."""
        with self._lock:
            threads = [(thread, list(spans)) for thread, spans in self._threads]
            counters = dict(self.counters)
        return {
            "process": self.process,
            "counters": counters,
            "threads": [{"thread": thread,
                         # unfinished spans stay as None: parents are
                         # referenced by position
                         "spans": [None if span is None else list(span)
                                   for span in spans]}
                        for thread, spans in threads],
        }


# -- installing the wrappers ----------------------------------------------------

def _kernel_digest(args: tuple, kwargs: Dict[str, Any]) -> list:
    """Content digest and access count of one ``simulate_segmented_lru``
    input: stream, sizes, cache parameters and initial list state."""
    import numpy as np

    ids = np.asarray(args[0] if args else kwargs["item_ids"], dtype=np.int64)
    sizes = np.asarray(args[1] if len(args) > 1 else kwargs["sizes"],
                       dtype=np.float64)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(ids.tobytes())
    digest.update(sizes.tobytes())
    for key in ("capacity_bytes", "page_bytes", "active_limit_bytes",
                "inactive_bytes", "active_bytes", "prior_hit_bytes"):
        digest.update(f"{key}={float(kwargs.get(key, 0.0)).hex()};".encode())
    for key in ("inactive", "active"):
        state = kwargs[key]
        digest.update(key.encode())
        digest.update(np.fromiter(state.keys(), np.int64,
                                  count=len(state)).tobytes())
        digest.update(np.fromiter(state.values(), np.float64,
                                  count=len(state)).tobytes())
    return [digest.hexdigest(), int(ids.size)]


def _result_bytes(args: tuple, result: Any) -> Optional[int]:
    return len(result) if isinstance(result, (bytes, str)) else None


def _argument_bytes(args: tuple, result: Any) -> Optional[int]:
    return len(args[0]) if args and isinstance(args[0], (bytes, str)) else None


def _store_outcome(args: tuple, result: Any) -> int:
    return 0 if result is None else 1


def _backend_payload(args: tuple, result: Any) -> Optional[int]:
    if isinstance(result, bytes):  # put: the packed payload it stored
        return len(result)
    if isinstance(result, tuple) and len(result) == 2:  # get: (snapshot, blob)
        return len(result[1])
    return None


def _replace_everywhere(original: Callable, wrapper: Callable) -> int:
    """Point every ``repro`` module global bound to ``original`` at
    ``wrapper``; returns how many bindings changed."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper
                replaced += 1
    return replaced


def _subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _wrap_method(tracer: Tracer, name: str, cls: type, method: str,
                 **hooks) -> int:
    wrapped = 0
    for klass in _subclasses(cls):
        raw = klass.__dict__.get(method)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(klass, method,
                    classmethod(tracer.span(name, raw.__func__, **hooks)))
        else:
            setattr(klass, method, tracer.span(name, raw, **hooks))
        wrapped += 1
    return wrapped


def _after_dist_run(tracer: Tracer) -> Callable:
    def after(args: tuple, result: Any) -> None:
        executor = args[0]
        for counter in DIST_COUNTERS:
            tracer.set_counter(f"dist.{counter}", int(getattr(executor, counter)))
        return None
    return after


def install(tracer: Tracer) -> None:
    """Wrap every target in this process.

    Imports every layer module first so subclasses and ``from … import``
    bindings exist before they are rewritten.  A target that no longer
    exists, or that nothing binds, raises instead of silently reading 0.
    """
    for module in ("repro.experiments.registry", "repro.serve",
                   "repro.serve.client", "repro.serve.server", "repro.dist",
                   "repro.dist.worker", "repro.coordl.partitioned_loader",
                   "repro.store.backend"):
        importlib.import_module(module)
    hooks_by_span: Dict[str, Dict[str, Callable]] = {
        KERNEL_SPAN: {"before": _kernel_digest},
        "store.get": {"after": _store_outcome},
        "store.backend.get": {"after": _backend_payload},
        "store.backend.put": {"after": _backend_payload},
        "dist.run_points": {"after": _after_dist_run(tracer)},
    }
    for span_name, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        hooks = hooks_by_span.get(span_name, {})
        owner, _, attr = path.rpartition(".")
        if owner:
            wrapped = _wrap_method(tracer, span_name, getattr(module, owner),
                                   attr, **hooks)
        else:
            original = getattr(module, attr)
            wrapped = _replace_everywhere(
                original, tracer.span(span_name, original, **hooks))
        if not wrapped:
            raise RuntimeError(f"nothing to wrap for {module_name}.{path}")
    proxies: Dict[str, types.ModuleType] = {}
    for span_name, module_name, function in JSON_TARGETS:
        proxy = proxies.get(module_name)
        if proxy is None:
            proxy = types.ModuleType("json")
            proxy.__dict__.update(vars(json))
            proxies[module_name] = proxy
            setattr(importlib.import_module(module_name), "json", proxy)
        after = _result_bytes if function == "dumps" else _argument_bytes
        setattr(proxy, function,
                tracer.span(span_name, getattr(json, function), after=after))


# -- reading spans back -----------------------------------------------------------

class Span:
    """One recorded span, with its self time filled in by :func:`load_spans`."""

    __slots__ = ("process", "name", "start", "end", "parent", "tag", "note",
                 "self_ns", "outer")

    def __init__(self, process: str, raw: list) -> None:
        self.process = process
        self.name, self.start, self.end, self.parent, self.tag, self.note = raw
        self.self_ns = self.end - self.start
        self.outer = True  # no ancestor of the same name

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


def load_spans(exports: Iterable[Dict[str, Any]]) -> List[Span]:
    """Flatten exported traces, computing self time and same-name nesting."""
    result: List[Span] = []
    for export in exports:
        for thread in export["threads"]:
            spans = [None if raw is None else Span(export["process"], raw)
                     for raw in thread["spans"]]
            for span in spans:
                if span is not None and span.parent >= 0:
                    parent = spans[span.parent]
                    parent.self_ns -= span.duration_ns
                    ancestor = parent
                    while ancestor is not None:
                        if ancestor.name == span.name:
                            span.outer = False
                            break
                        ancestor = (spans[ancestor.parent]
                                    if ancestor.parent >= 0 else None)
            result.extend(span for span in spans if span is not None)
    return result
