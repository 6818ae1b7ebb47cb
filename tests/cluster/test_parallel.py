"""Unit tests for host-parallel chunked execution
(``run_resilient(..., n_workers=k)``)."""

import pytest

from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.runtime import run_resilient


@pytest.fixture(scope="module")
def workload(small_dataset):
    return small_dataset.queries[:8], small_dataset.data[:24]


class TestParallel:
    def test_matches_serial(self, workload):
        queries, data = workload
        serial = SigmoEngine(queries, data).run()
        parallel = run_resilient(queries, data, 5, n_workers=3)
        assert parallel.total_matches == serial.total_matches

    def test_matched_pairs_globalized(self, workload):
        queries, data = workload
        serial = SigmoEngine(queries, data).run(mode="find-first")
        parallel = run_resilient(queries, data, 4, mode="find-first", n_workers=2)
        assert parallel.matched_pairs == sorted(serial.matched_pairs())

    def test_single_worker_path(self, workload):
        queries, data = workload
        serial = SigmoEngine(queries, data).run()
        one = run_resilient(queries, data, 100, n_workers=1)
        assert one.total_matches == serial.total_matches
        assert one.n_chunks == 1

    def test_embeddings_survive_pickling(self, workload):
        queries, data = workload
        cfg = SigmoConfig(record_embeddings=True)
        serial = SigmoEngine(queries, data, cfg).run()
        parallel = run_resilient(queries, data, 6, config=cfg, n_workers=2)
        key = lambda r: (r.data_graph, r.query_graph, tuple(r.mapping))
        assert sorted(map(key, parallel.embeddings)) == sorted(
            map(key, serial.embeddings)
        )

    def test_validation(self, workload):
        queries, _ = workload
        with pytest.raises(ValueError):
            run_resilient(queries, [], n_workers=2)
        with pytest.raises(ValueError):
            run_resilient(queries, [queries[0]], chunk_size=0, n_workers=2)


class TestAggregation:
    def test_n_chunks_summed_across_workers(self, workload):
        queries, data = workload
        parallel = run_resilient(queries, data, 5, n_workers=3)
        # 24 graphs chunked by 5, whichever worker ran each chunk
        assert parallel.n_chunks == 5

    def test_timings_aggregated(self, workload):
        queries, data = workload
        parallel = run_resilient(queries, data, 6, n_workers=2)
        assert "join" in parallel.timings and "filter" in parallel.timings
        assert parallel.total_seconds == pytest.approx(
            sum(parallel.timings.values())
        )
        assert parallel.total_seconds > 0
