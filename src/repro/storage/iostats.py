"""I/O accounting.

Every read performed against a :class:`~repro.storage.filestore.FileStore`
is recorded here: bytes and requests by source (storage, cache, remote), plus
an optional time-series of (virtual time, cumulative disk bytes) samples used
to reproduce the disk-I/O-over-time plots (Fig. 11).

The timeline is materialised lazily: the vectorised fetch path records whole
epochs as numpy array chunks, and the per-sample ``(time, bytes)`` tuples are
only built when :attr:`IOStats.timeline` is actually read (the Fig. 11
experiment; most sweeps never look).

Recording is single-threaded (it happens inside one simulation), but
*reading* is not: concurrent store writers snapshot the same finished
record from several threads (``repro.store``'s write-once puts race by
design).  Samples and pending chunks therefore live in one tuple attribute
that materialisation replaces atomically — concurrent readers either
re-merge to the identical list or see the final state, never a partially
materialised or double-extended timeline.

The timeline's content digest (:attr:`IOStats.timeline_digest`, what
record snapshots and the goldens carry) is computed at most once per
timeline: it is remembered until a mutator changes the samples, travels
with :meth:`IOStats.copy`, and is installed from the snapshot when a
stored record is rehydrated (:meth:`IOStats.load_timeline`) — so a served
or relayed record re-snapshots without formatting a single sample.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np


class IOStats:
    """Counters for one loader / one epoch / one server (caller's choice).

    Attributes:
        disk_bytes / disk_requests: Reads served by the storage device.
        cache_bytes / cache_requests: Reads served from the local DRAM cache.
        remote_bytes / remote_requests: Reads served from a remote server.
        timeline: ``(virtual time, cumulative disk bytes)`` samples, one per
            disk read recorded with a timestamp (lazily materialised).
    """

    def __init__(self, disk_bytes: float = 0.0, disk_requests: int = 0,
                 cache_bytes: float = 0.0, cache_requests: int = 0,
                 remote_bytes: float = 0.0, remote_requests: int = 0) -> None:
        self.disk_bytes = disk_bytes
        self.disk_requests = disk_requests
        self.cache_bytes = cache_bytes
        self.cache_requests = cache_requests
        self.remote_bytes = remote_bytes
        self.remote_requests = remote_requests
        # (materialised samples, pending array chunks) — always read and
        # replaced as one tuple so concurrent timeline reads are coherent.
        self._timeline_state: Tuple[List[Tuple[float, float]],
                                    List[Tuple[np.ndarray, np.ndarray]]] = (
            [], [])
        # blake2b digest of the timeline; None until first computed, and
        # dropped by every mutator of the samples.
        self._digest: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IOStats(disk_bytes={self.disk_bytes}, "
                f"disk_requests={self.disk_requests}, "
                f"cache_requests={self.cache_requests}, "
                f"remote_requests={self.remote_requests})")

    @property
    def timeline(self) -> List[Tuple[float, float]]:
        """Per-read ``(time, cumulative disk bytes)`` samples, materialised.

        Safe under concurrent readers: the merge builds a fresh list from
        one coherent ``(samples, chunks)`` snapshot and publishes it in a
        single attribute assignment.  Racing readers repeat the identical
        merge; none ever extends a list another reader already returned.
        """
        samples, chunks = self._timeline_state
        if chunks:
            merged = list(samples)
            for times, cumulative in chunks:
                merged.extend(zip(times.tolist(), cumulative.tolist()))
            self._timeline_state = (merged, [])
            return merged
        return samples

    @timeline.setter
    def timeline(self, samples: Sequence[Tuple[float, float]]) -> None:
        self._timeline_state = (list(samples), [])
        self._digest = None

    @property
    def timeline_len(self) -> int:
        """Number of timeline samples (counted without materialising)."""
        samples, chunks = self._timeline_state
        return len(samples) + sum(int(times.size) for times, _ in chunks)

    def timeline_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The timeline as ``(times, cumulative bytes)`` float64 arrays.

        Reads pending chunks directly, so no ``(time, bytes)`` tuples are
        built; the arrays must be treated as read-only (they may be the
        pending chunk itself).
        """
        samples, chunks = self._timeline_state
        parts = list(chunks)
        if samples:
            pairs = np.array(samples, dtype=np.float64)
            parts.insert(0, (pairs[:, 0], pairs[:, 1]))
        if not parts:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        if len(parts) == 1:
            return parts[0]
        return (np.concatenate([times for times, _ in parts]),
                np.concatenate([cumulative for _, cumulative in parts]))

    @property
    def timeline_digest(self) -> str:
        """blake2b-128 hex digest of the timeline's exact float bits.

        Hashes ``"{t.hex()}:{b.hex()};"`` per sample, so two timelines
        agree on the digest iff they agree sample for sample.  Computed
        once and remembered until the samples change.
        """
        digest = self._digest
        if digest is None:
            times, cumulative = self.timeline_arrays()
            text = "".join([f"{t.hex()}:{b.hex()};" for t, b
                            in zip(times.tolist(), cumulative.tolist())])
            digest = hashlib.blake2b(text.encode("ascii"),
                                     digest_size=16).hexdigest()
            self._digest = digest
        return digest

    def load_timeline(self, times: np.ndarray, cumulative: np.ndarray,
                      digest: Optional[str] = None) -> None:
        """Replace the timeline with one pending ``(times, cumulative)``
        chunk (materialised only if :attr:`timeline` is read).

        ``digest``, when given, is taken as the new timeline's
        :attr:`timeline_digest` — the rehydration path passes the digest
        stored alongside the samples.
        """
        self._timeline_state = ([], [(times, cumulative)] if times.size
                                else [])
        self._digest = digest

    def record_disk(self, nbytes: float, at_time: float | None = None) -> None:
        """Account one read served by the storage device."""
        self.disk_bytes += nbytes
        self.disk_requests += 1
        if at_time is not None:
            self._digest = None
            # Materialises pending chunks first so samples stay in order
            # (recording is single-threaded; see module docstring).
            self.timeline.append((at_time, self.disk_bytes))

    def record_disk_bulk(self, sizes: Sequence[float],
                         at_times: Optional[Sequence[float]] = None) -> None:
        """Account many storage reads at once (vectorised fetch path).

        Equivalent to calling :meth:`record_disk` once per entry of ``sizes``
        (zipped with ``at_times`` when given), including the per-read
        cumulative-byte samples of :attr:`timeline` — but the samples stay as
        array chunks until the timeline is read.
        """
        sizes = np.asarray(sizes, dtype=np.float64)
        if at_times is not None:
            cumulative = self.disk_bytes + np.cumsum(sizes)
            samples, chunks = self._timeline_state
            self._timeline_state = (
                samples,
                chunks + [(np.asarray(at_times, dtype=np.float64),
                           cumulative)])
            self._digest = None
        self.disk_bytes += float(sizes.sum())
        self.disk_requests += int(sizes.size)

    def record_cache(self, nbytes: float) -> None:
        """Account one read served from the local DRAM cache."""
        self.cache_bytes += nbytes
        self.cache_requests += 1

    def record_cache_bulk(self, total_bytes: float, requests: int) -> None:
        """Account many local-cache reads at once (vectorised fetch path)."""
        self.cache_bytes += float(total_bytes)
        self.cache_requests += int(requests)

    def record_remote(self, nbytes: float) -> None:
        """Account one read served from a remote server's cache."""
        self.remote_bytes += nbytes
        self.remote_requests += 1

    def record_remote_bulk(self, total_bytes: float, requests: int) -> None:
        """Account many remote-cache reads at once (vectorised fetch path)."""
        self.remote_bytes += float(total_bytes)
        self.remote_requests += int(requests)

    @property
    def total_requests(self) -> int:
        """All item reads regardless of source."""
        return self.disk_requests + self.cache_requests + self.remote_requests

    @property
    def total_bytes(self) -> float:
        """All bytes read regardless of source."""
        return self.disk_bytes + self.cache_bytes + self.remote_bytes

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of requests served from local cache."""
        if self.total_requests == 0:
            return 0.0
        return self.cache_requests / self.total_requests

    @property
    def miss_ratio(self) -> float:
        """Fraction of requests that had to leave the local cache."""
        return 1.0 - self.cache_hit_ratio

    def copy(self) -> "IOStats":
        """Snapshot of the counters (timeline chunks shared, not re-built;
        a remembered digest carries over)."""
        snapshot = IOStats(
            disk_bytes=self.disk_bytes,
            disk_requests=self.disk_requests,
            cache_bytes=self.cache_bytes,
            cache_requests=self.cache_requests,
            remote_bytes=self.remote_bytes,
            remote_requests=self.remote_requests,
        )
        samples, chunks = self._timeline_state
        snapshot._timeline_state = (list(samples), list(chunks))
        snapshot._digest = self._digest
        return snapshot

    def merged_with(self, other: "IOStats") -> "IOStats":
        """Return the element-wise sum of two counters (timelines concatenated)."""
        merged = IOStats(
            disk_bytes=self.disk_bytes + other.disk_bytes,
            disk_requests=self.disk_requests + other.disk_requests,
            cache_bytes=self.cache_bytes + other.cache_bytes,
            cache_requests=self.cache_requests + other.cache_requests,
            remote_bytes=self.remote_bytes + other.remote_bytes,
            remote_requests=self.remote_requests + other.remote_requests,
        )
        merged.timeline = sorted(self.timeline + other.timeline)
        return merged

    def reset(self) -> None:
        """Zero all counters (e.g. between warm-up and measured epochs)."""
        self.disk_bytes = 0.0
        self.disk_requests = 0
        self.cache_bytes = 0.0
        self.cache_requests = 0
        self.remote_bytes = 0.0
        self.remote_requests = 0
        self._timeline_state = ([], [])
        self._digest = None
