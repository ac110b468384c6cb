"""Unit tests for storage devices, the file store, and I/O accounting."""

import hashlib

import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.storage.device import StorageDevice, dram, hdd, sata_ssd
from repro.storage.filestore import FileStore
from repro.storage.iostats import IOStats


class TestStorageDevice:
    def test_read_time_scales_with_size(self):
        ssd = sata_ssd()
        assert ssd.read_time(units.MBps(530)) == pytest.approx(1.0, rel=0.01)
        assert ssd.read_time(0.0) == pytest.approx(ssd.request_overhead_s)

    def test_sequential_reads_use_sequential_bandwidth(self):
        disk = hdd()
        random_t = disk.read_time(10e6, sequential=False)
        seq_t = disk.read_time(10e6, sequential=True)
        assert seq_t < random_t

    def test_effective_rate_below_nominal_for_small_requests(self):
        disk = hdd()
        # An 8 ms seek dominates a 100 KB read: effective rate << 15 MB/s.
        assert disk.effective_rate(100_000) < disk.random_read_bw

    def test_paper_rates(self):
        assert sata_ssd().random_read_bw == units.MBps(530)
        assert hdd().random_read_bw == units.MBps(15)
        assert dram().random_read_bw > units.GBps(10)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            StorageDevice("bad", random_read_bw=0, sequential_read_bw=1)
        with pytest.raises(ConfigurationError):
            StorageDevice("bad", random_read_bw=1, sequential_read_bw=1,
                          request_overhead_s=-1)

    def test_negative_read_rejected(self):
        with pytest.raises(ConfigurationError):
            sata_ssd().read_time(-1)


class TestIOStats:
    def test_counters_accumulate_by_source(self):
        stats = IOStats()
        stats.record_disk(100.0)
        stats.record_disk(200.0, at_time=1.0)
        stats.record_cache(50.0)
        stats.record_remote(25.0)
        assert stats.disk_bytes == 300.0
        assert stats.disk_requests == 2
        assert stats.cache_requests == 1
        assert stats.remote_requests == 1
        assert stats.total_bytes == 375.0
        assert stats.total_requests == 4
        assert stats.timeline == [(1.0, 300.0)]

    def test_hit_ratio(self):
        stats = IOStats()
        assert stats.cache_hit_ratio == 0.0
        stats.record_cache(1.0)
        stats.record_disk(1.0)
        assert stats.cache_hit_ratio == pytest.approx(0.5)
        assert stats.miss_ratio == pytest.approx(0.5)

    def test_merge_and_reset(self):
        a, b = IOStats(), IOStats()
        a.record_disk(10.0, at_time=0.5)
        b.record_cache(5.0)
        merged = a.merged_with(b)
        assert merged.disk_bytes == 10.0
        assert merged.cache_bytes == 5.0
        a.reset()
        assert a.disk_bytes == 0.0
        assert a.timeline == []

    def test_bulk_timeline_materialises_lazily_and_in_order(self):
        stats = IOStats()
        stats.record_disk_bulk([10.0, 20.0], at_times=[0.1, 0.2])
        stats.record_disk(5.0, at_time=0.3)
        assert stats.timeline == [(0.1, 10.0), (0.2, 30.0), (0.3, 35.0)]

    def test_concurrent_timeline_reads_materialise_once(self):
        """Regression: concurrent store writers snapshot the same finished
        record from several threads, so the lazy chunk merge must be safe
        under racing readers — no duplicated or partially merged samples.
        (The materialised state is published as one atomic tuple.)"""
        import threading

        for _ in range(50):
            stats = IOStats()
            for chunk in range(8):
                base = float(chunk)
                stats.record_disk_bulk(
                    [1.0] * 64, at_times=[base + i / 64 for i in range(64)])
            expected_len = 8 * 64
            results = []
            lock = threading.Lock()
            barrier = threading.Barrier(6)

            def reader():
                barrier.wait()
                timeline = stats.timeline
                with lock:
                    results.append(list(timeline))

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert all(len(r) == expected_len for r in results)
            assert all(r == results[0] for r in results)
            assert len(stats.timeline) == expected_len

    @staticmethod
    def _reference_digest(samples):
        digest = hashlib.blake2b(digest_size=16)
        for t, b in samples:
            digest.update(f"{t.hex()}:{b.hex()};".encode("ascii"))
        return digest.hexdigest()

    def test_digest_hashes_hex_samples_without_materialising(self):
        stats = IOStats()
        stats.record_disk(4.0, at_time=0.5)
        stats.record_disk_bulk([1.0, 2.0], at_times=[1.0, 2.0])
        expected = self._reference_digest([(0.5, 4.0), (1.0, 5.0),
                                           (2.0, 7.0)])
        assert stats.timeline_digest == expected
        assert stats.timeline_len == 3
        assert len(stats._timeline_state[1]) == 1  # chunk still pending
        assert IOStats().timeline_digest == self._reference_digest([])

    @pytest.mark.parametrize("mutate", [
        lambda s: s.record_disk(1.0, at_time=9.0),
        lambda s: s.record_disk_bulk([1.0], at_times=[9.0]),
        lambda s: setattr(s, "timeline", [(9.0, 1.0)]),
        lambda s: s.reset(),
    ], ids=["record_disk", "record_disk_bulk", "setter", "reset"])
    def test_every_timeline_mutator_drops_the_remembered_digest(self,
                                                                mutate):
        stats = IOStats()
        stats.record_disk_bulk([1.0, 2.0], at_times=[1.0, 2.0])
        before = stats.timeline_digest
        mutate(stats)
        assert stats.timeline_digest == self._reference_digest(
            stats.timeline)
        assert stats.timeline_digest != before

    def test_racing_digest_and_timeline_readers_agree(self):
        """Concurrent store writers snapshot one finished record: readers
        computing the digest while others materialise the timeline must
        all see the reference digest."""
        import sys
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                stats = IOStats()
                for chunk in range(4):
                    stats.record_disk_bulk(
                        [1.0] * 32, at_times=[chunk + i / 32
                                              for i in range(32)])
                expected = self._reference_digest(stats.copy().timeline)
                results = []
                barrier = threading.Barrier(8)

                def reader(index):
                    barrier.wait()
                    if index % 2:
                        stats.timeline
                    results.append(stats.timeline_digest)

                threads = [threading.Thread(target=reader, args=(i,))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                    assert not thread.is_alive()
                assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_copy_carries_the_digest_and_load_installs_one(self):
        stats = IOStats()
        stats.record_disk_bulk([1.0, 2.0], at_times=[1.0, 2.0])
        digest = stats.timeline_digest
        assert stats.copy()._digest == digest
        times, cumulative = stats.timeline_arrays()
        loaded = IOStats()
        loaded.load_timeline(times, cumulative, digest="f" * 32)
        assert loaded.timeline_digest == "f" * 32  # trusted, not rehashed
        loaded.load_timeline(times, cumulative)
        assert loaded.timeline_digest == digest
        assert loaded.timeline == stats.timeline


class TestFileStore:
    def test_reads_account_bytes_and_return_durations(self, tiny_dataset):
        store = FileStore(tiny_dataset, sata_ssd())
        duration = store.read_item(0)
        assert duration > 0
        assert store.stats.disk_bytes == pytest.approx(tiny_dataset.item_size(0))
        assert store.stats.disk_requests == 1

    def test_sequential_hint_changes_duration(self, tiny_dataset):
        random_store = FileStore(tiny_dataset, hdd(), sequential_hint=False)
        seq_store = FileStore(tiny_dataset, hdd(), sequential_hint=True)
        assert seq_store.read_item(0) < random_store.read_item(0)

    def test_reset_stats(self, tiny_dataset):
        store = FileStore(tiny_dataset, sata_ssd())
        store.read_item(1)
        store.reset_stats()
        assert store.stats.disk_requests == 0
