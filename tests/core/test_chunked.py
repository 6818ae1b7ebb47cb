"""Unit tests for chunked (out-of-core) execution via ``run_resilient``."""

import pytest

from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.pipeline.policies import BudgetInfeasible, chunk_size_for_budget
from repro.runtime import run_resilient


@pytest.fixture(scope="module")
def workload(small_dataset):
    return small_dataset.queries[:10], small_dataset.data[:30]


class TestEquivalence:
    def test_matches_equal_unchunked(self, workload):
        queries, data = workload
        full = SigmoEngine(queries, data).run()
        for chunk_size in (1, 7, 30, 100):
            chunked = run_resilient(queries, data, chunk_size)
            assert chunked.total_matches == full.total_matches, chunk_size

    def test_matched_pairs_globalized(self, workload):
        queries, data = workload
        full = SigmoEngine(queries, data).run(mode="find-first")
        chunked = run_resilient(queries, data, 7, mode="find-first")
        assert sorted(chunked.matched_pairs) == sorted(full.matched_pairs())

    def test_embeddings_globalized(self, workload):
        queries, data = workload
        cfg = SigmoConfig(record_embeddings=True)
        full = SigmoEngine(queries, data, cfg).run()
        chunked = run_resilient(queries, data, 11, config=cfg)
        assert {(r.data_graph, r.query_graph, tuple(r.mapping)) for r in full.embeddings} == {
            (r.data_graph, r.query_graph, tuple(r.mapping)) for r in chunked.embeddings
        }

    def test_chunk_count(self, workload):
        queries, data = workload
        assert run_resilient(queries, data, 7).n_chunks == -(-len(data) // 7)


class TestMemoryBound:
    def test_peak_memory_below_full_run(self, workload):
        queries, data = workload
        full = SigmoEngine(queries, data).run()
        chunked = run_resilient(queries, data, 5)
        assert chunked.peak_memory_bytes < full.memory.total

    def test_smaller_chunks_smaller_peak(self, workload):
        queries, data = workload
        small = run_resilient(queries, data, 3)
        large = run_resilient(queries, data, 15)
        assert small.peak_memory_bytes <= large.peak_memory_bytes

    def test_timings_accumulate(self, workload):
        queries, data = workload
        chunked = run_resilient(queries, data, 10)
        assert chunked.total_seconds > 0
        assert "join" in chunked.timings


class TestValidation:
    def test_bad_chunk_size(self, workload):
        queries, data = workload
        with pytest.raises(ValueError):
            run_resilient(queries, data, 0)

    def test_empty_data(self, workload):
        queries, _ = workload
        with pytest.raises(ValueError):
            run_resilient(queries, [], 5)


class TestBudgetHelper:
    def test_paper_scale_budget(self):
        # 3,413 query nodes, ~24 nodes/molecule, 30 GB usable: the chunk
        # should hold around 2.5M molecules (beyond scale factor 26 the
        # whole dataset no longer fits; chunking makes it unbounded).
        size = chunk_size_for_budget(3413, 23.9, 30 * 1024**3)
        assert 2_000_000 < size < 4_000_000

    def test_infeasible_budget_raises(self):
        # even one 200-node molecule against 10^9 query nodes blows a 1 KiB
        # budget; a typed error beats silently returning chunk_size=1
        with pytest.raises(BudgetInfeasible) as exc:
            chunk_size_for_budget(10**9, 200.0, 1024)
        assert exc.value.budget_bytes == 1024
        assert exc.value.required_bytes > 1024

    def test_tight_but_feasible_budget(self):
        # doubling the single-graph requirement makes the budget feasible
        with pytest.raises(BudgetInfeasible) as exc:
            chunk_size_for_budget(10**6, 50.0, 1024)
        assert chunk_size_for_budget(10**6, 50.0, 2 * exc.value.required_bytes) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_size_for_budget(0, 10, 100)
        with pytest.raises(ValueError):
            chunk_size_for_budget(10, 10, 0)
