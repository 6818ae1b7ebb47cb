"""Backend identity in cache keys: no stale-backend artifacts, ever.

Every cache keyed by ``CSRGO.content_hash()`` — the per-graph and
whole-batch view memos, the global signature/plan memos, the pipeline artifact cache, and
the serving pool — also keys on the active backend, so switching
backends mid-session can never serve arrays (or compiled plans) built by
a different backend.
"""

import pytest

from repro.accel import clear_accel_caches
from repro.accel.local_view import get_batch_view, get_local_view
from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.graph.batch import GraphBatch
from repro.graph.generators import random_connected_graph
from repro.pipeline import MatcherSession
from repro.pipeline.artifacts import filter_fingerprint
from repro.xp import use_backend

import numpy as np

pytestmark = pytest.mark.xp


@pytest.fixture
def data():
    rng = np.random.default_rng(99)
    graphs = [random_connected_graph(10, 3, 3, rng) for _ in range(3)]
    return CSRGO.from_batch(GraphBatch(graphs))


class TestViewCaches:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_accel_caches()
        yield
        clear_accel_caches()

    def test_batch_view_cache_is_backend_keyed(self, data):
        numpy_view = get_batch_view(data)
        with use_backend("instrumented"):
            other_view = get_batch_view(data)
        assert other_view is not numpy_view
        # Returning to numpy serves the original entry, not the other one.
        assert get_batch_view(data) is numpy_view
        with use_backend("instrumented"):
            assert get_batch_view(data) is other_view

    def test_local_view_cache_is_backend_keyed(self, data):
        numpy_view = get_local_view(data, 1)
        with use_backend("instrumented"):
            other_view = get_local_view(data, 1)
        assert other_view is not numpy_view
        assert get_local_view(data, 1) is numpy_view
        with use_backend("instrumented"):
            assert get_local_view(data, 1) is other_view


class TestFingerprints:
    def test_filter_fingerprint_includes_backend(self, data):
        numpy_cfg = SigmoConfig()
        instr_cfg = numpy_cfg.with_array_backend("instrumented")
        assert filter_fingerprint(data, data, 4, numpy_cfg) != (
            filter_fingerprint(data, data, 4, instr_cfg)
        )

    def test_session_never_reuses_other_backend_artifacts(self):
        dataset = build_benchmark(
            scale=1.0, n_queries=4, n_data_graphs=16, seed=3
        )
        config = SigmoConfig(refinement_iterations=2, record_embeddings=True)
        session = MatcherSession(dataset.queries, config=config)
        cold = session.match(dataset.data)
        warm = session.match(dataset.data)
        hits_after_warm = session.artifact_stats.as_dict()["hits"]
        assert hits_after_warm > 0  # same backend: artifacts are recalled
        switched = session.match(
            dataset.data, config=config.with_array_backend("instrumented")
        )
        stats = session.artifact_stats.as_dict()
        # The backend switch must MISS the cache (no stale-backend reuse)...
        assert stats["hits"] == hits_after_warm
        # ...and still produce the identical result.
        assert switched.total_matches == cold.total_matches
        assert switched.matched_pairs() == cold.matched_pairs()
        assert switched.embeddings == warm.embeddings
