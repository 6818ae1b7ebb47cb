"""Unit tests of the artifact cache, its fingerprint, and execution policies."""

import dataclasses

import pytest

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.graph.generators import random_connected_graph
from repro.pipeline import (
    ArtifactCache,
    ChunkingPolicy,
    MemoryBudgetPolicy,
    RetryPolicy,
    StageArtifact,
    derive_n_labels,
    filter_fingerprint,
    partition_slices,
)

pytestmark = pytest.mark.pipeline


class TestArtifactCache:
    def art(self, stage, key, value=None):
        return StageArtifact(stage=stage, fingerprint=(key,), value=value)

    def test_hit_miss_store_counters(self):
        cache = ArtifactCache()
        assert cache.get("refine", ("x",)) is None
        cache.put(self.art("refine", "x", 1))
        hit = cache.get("refine", ("x",))
        assert hit is not None and hit.value == 1
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "evictions": 0, "stores": 1,
        }

    def test_lru_eviction_order(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(self.art("refine", "a"))
        cache.put(self.art("refine", "b"))
        cache.get("refine", ("a",))  # refresh a; b is now the LRU entry
        cache.put(self.art("refine", "c"))
        assert cache.get("refine", ("a",)) is not None
        assert cache.get("refine", ("b",)) is None
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_reinsert_refreshes_value_and_recency(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(self.art("refine", "a", 1))
        cache.put(self.art("refine", "b"))
        cache.put(self.art("refine", "a", 2))  # refresh: a is now newest
        cache.put(self.art("refine", "c"))  # evicts b
        assert cache.get("refine", ("a",)).value == 2
        assert cache.get("refine", ("b",)) is None

    def test_clear_keeps_stats(self):
        cache = ArtifactCache()
        cache.put(self.art("refine", "a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.stores == 1

    def test_bound_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            ArtifactCache(max_entries=0)


class TestFingerprint:
    @pytest.fixture(scope="class")
    def batches(self):
        import numpy as np

        rng = np.random.default_rng(3)
        graphs = [
            random_connected_graph(8, extra_edges=4, n_labels=3, rng=rng)
            for _ in range(4)
        ]
        return CSRGO.from_graphs(graphs[:2]), CSRGO.from_graphs(graphs[2:])

    def test_sensitive_to_filter_knobs(self, batches):
        query, data = batches
        config = SigmoConfig(refinement_iterations=3)
        n = derive_n_labels(query, data, config.wildcard_label)
        base = filter_fingerprint(query, data, n, config)
        assert base == filter_fingerprint(query, data, n, config)
        for change in (
            {"refinement_iterations": 4},
            {"word_bits": 32 if config.word_bits == 64 else 64},
            {"edge_signatures": not config.edge_signatures},
        ):
            other = dataclasses.replace(config, **change)
            assert filter_fingerprint(query, data, n, other) != base

    def test_insensitive_to_join_knobs(self, batches):
        query, data = batches
        config = SigmoConfig(refinement_iterations=3)
        n = derive_n_labels(query, data, config.wildcard_label)
        base = filter_fingerprint(query, data, n, config)
        other = dataclasses.replace(config, record_embeddings=True)
        assert filter_fingerprint(query, data, n, other) == base

    def test_sensitive_to_batch_content(self, batches):
        query, data = batches
        config = SigmoConfig(refinement_iterations=3)
        n = derive_n_labels(query, data, config.wildcard_label)
        assert filter_fingerprint(query, data, n, config) != filter_fingerprint(
            data, query, n, config
        )


class TestPolicies:
    def test_chunking_units_cover_the_range(self):
        units = ChunkingPolicy(10).units(0, 25)
        assert [(u.start, u.stop) for u in units] == [(0, 10), (10, 20), (20, 25)]
        assert [u.size for u in units] == [10, 10, 5]
        with pytest.raises(ValueError, match="chunk_size"):
            ChunkingPolicy(0)

    def test_partition_slices_are_deterministic_blocks(self):
        assert partition_slices(30, 2) == [(0, 15), (15, 30)]
        assert partition_slices(30, 4) == [(0, 8), (8, 16), (16, 24), (24, 30)]
        assert partition_slices(3, 8) == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError, match="at least one item"):
            partition_slices(0, 2)
        with pytest.raises(ValueError, match="n_workers"):
            partition_slices(5, 0)

    def test_retry_policy_schedule(self):
        retry = RetryPolicy(max_attempts=3, backoff_base=0.5, backoff_factor=2.0)
        assert retry.delay(0) == 0.0
        assert retry.delay(1) == 1.0
        assert retry.delay(2) == 2.0
        assert not retry.exhausted(2)
        assert retry.exhausted(3)
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-1.0)

    def test_memory_budget_policy(self):
        unlimited = MemoryBudgetPolicy(capacity_bytes=None)
        assert unlimited.auto_chunk_size(10, 20.0, 100) == (100, None)
        bounded = MemoryBudgetPolicy(capacity_bytes=1 << 30)
        size, note = bounded.auto_chunk_size(10, 20.0, 100)
        assert size >= 1 and note is None
        tiny = MemoryBudgetPolicy(capacity_bytes=1)
        size, note = tiny.auto_chunk_size(10_000, 10_000.0, 100)
        assert size == 1 and note  # degraded to single-graph chunks
