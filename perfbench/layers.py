"""Per-layer metrics from recorded spans (see ``layer_map.json``).

``self_s`` metrics sum span self time (duration minus child spans);
``_s`` metrics without ``self`` sum whole calls, counting a call nested
inside another call of the same span name once.  Spans tagged
:data:`PROBE_TAG` belong to the production-size warm-kernel probe and only
feed ``cache.warm_kernel.ns_per_access``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional

import spans as span_lib

PROBE_TAG = "probe"

#: Layers whose summed self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "cache.warm_kernel", "cache.page_cache", "cache.minio",
    "cache.partitioned", "datasets.sampler", "datasets.dataset",
    "pipeline.batch_times", "sim.engine", "sim.scenarios", "sim.sweep",
    "store.get", "store.put",
)


def quantile(values: List[float], q: int) -> float:
    """Inclusive-interpolated ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(exports: Iterable[Dict[str, Any]], *, traced_wall_s: float,
                  untraced_wall_s: float, busy_threads: int = 1,
                  serve_stats: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, float]:
    """Every per-layer metric derivable from one traced run.

    ``traced_wall_s`` and ``untraced_wall_s`` time the same work with and
    without the wrappers; ``busy_threads`` benchmark threads issued it
    (their combined wall time minus their root spans is what no span
    covers).
    """
    exports = list(exports)
    recorded = span_lib.load_spans(exports)
    probe = [s for s in recorded if s.tag == PROBE_TAG]
    work = [s for s in recorded if s.tag != PROBE_TAG]

    self_ns: Dict[str, int] = defaultdict(int)
    whole_ns: Dict[str, int] = defaultdict(int)
    notes: Dict[str, List[Any]] = defaultdict(list)
    durations: Dict[str, List[int]] = defaultdict(list)
    for span in work:
        self_ns[span.name] += span.self_ns
        if span.outer:
            whole_ns[span.name] += span.duration_ns
            durations[span.name].append(span.duration_ns)
        if span.note is not None:
            notes[span.name].append(span.note)

    metrics: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9

    kernel = sorted((s for s in work if s.name == span_lib.KERNEL_SPAN),
                    key=lambda s: s.start)
    seen = set()
    repeat_ns = 0
    for span in kernel:
        digest = span.note[0]
        if digest in seen:
            repeat_ns += span.duration_ns
        seen.add(digest)
    per_access = [s for s in probe if s.name == span_lib.KERNEL_SPAN] or kernel
    accesses = sum(s.note[1] for s in per_access)
    metrics.update({
        "cache.warm_kernel.calls": len(kernel),
        "cache.warm_kernel.distinct_inputs": len(seen),
        "cache.warm_kernel.repeat_s": repeat_ns / 1e9,
        "cache.warm_kernel.ns_per_access": (
            sum(s.duration_ns for s in per_access) / accesses
            if accesses else 0.0),
    })

    gets = durations["store.get"]
    payloads = notes["store.backend.put"] + notes["store.backend.get"]
    metrics.update({
        "sim.sweep.snapshot_s": whole_ns["sim.sweep.snapshot"] / 1e9,
        "sim.sweep.snapshot_bytes": sum(notes["store.backend.encode"]),
        "sim.sweep.from_snapshot_s": whole_ns["sim.sweep.from_snapshot"] / 1e9,
        "sim.sweep.hits": sum(1 for n in notes["store.get"] if n),
        "sim.sweep.misses": sum(1 for n in notes["store.get"] if not n),
        "store.backend.put_s": whole_ns["store.backend.put"] / 1e9,
        "store.backend.get_s": whole_ns["store.backend.get"] / 1e9,
        "store.bytes_per_entry": (sum(payloads) / len(payloads)
                                  if payloads else 0.0),
        "store.get.p50_ms": quantile(gets, 50) / 1e6,
        "store.get.p95_ms": quantile(gets, 95) / 1e6,
    })

    counters: Dict[str, int] = {}
    for export in exports:
        counters.update(export.get("counters", {}))
    whatifs = len(durations["serve.client"])
    daemon_frames = [s.note for s in work
                     if s.name in ("dist.frames.encode", "dist.frames.decode")
                     and s.process.endswith("daemon") and s.note is not None]
    batcher = (serve_stats or {}).get("batcher", {})
    metrics.update({
        "serve.encode_s": whole_ns["serve.encode"] / 1e9,
        "serve.client_decode_s": whole_ns["serve.client_decode"] / 1e9,
        "serve.response_bytes": (sum(notes["serve.client_decode"]) / whatifs
                                 if whatifs else 0.0),
        "serve.coalesced_points": batcher.get("attached_points", 0),
        "dist.run_points_s": whole_ns["dist.run_points"] / 1e9,
        "dist.frame_bytes": sum(daemon_frames),
    })
    for counter in span_lib.DIST_COUNTERS:
        metrics[f"dist.{counter}"] = counters.get(f"dist.{counter}", 0)

    experiment_ns = {name: ns for name, ns in whole_ns.items()
                     if name.startswith("experiments.")}
    for name, ns in experiment_ns.items():
        metrics[f"{name}.wall_s"] = ns / 1e9
    metrics["experiments.self_s"] = sum(
        self_ns[name] for name in experiment_ns) / 1e9

    roots_ns = sum(s.duration_ns for s in work
                   if s.process == "bench" and s.parent < 0)
    metrics["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    metrics["trace.unattributed_s"] = (busy_threads * traced_wall_s
                                       - roots_ns / 1e9)
    return metrics
