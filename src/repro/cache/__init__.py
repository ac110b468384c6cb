"""Cache substrate: LRU / OS page cache, MinIO, and partitioned caching."""

from repro.cache.base import Cache
from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache
from repro.cache.partitioned import (
    LookupSource,
    PartitionedCacheGroup,
    PartitionedLookup,
)
from repro.cache.stats import CacheStats
from repro.cache.warm_kernel import (
    TRAJECTORY_MEMO_MAX_BYTES,
    WARM_KERNEL_ENV_VAR,
    SegmentedLRUResult,
    TrajectoryMemo,
    simulate_segmented_lru,
    trajectory_key,
)

__all__ = [
    "Cache",
    "CacheStats",
    "LRUCache",
    "PageCache",
    "MinIOCache",
    "PartitionedCacheGroup",
    "PartitionedLookup",
    "LookupSource",
    "SegmentedLRUResult",
    "simulate_segmented_lru",
    "WARM_KERNEL_ENV_VAR",
    "TrajectoryMemo",
    "trajectory_key",
    "TRAJECTORY_MEMO_MAX_BYTES",
]
