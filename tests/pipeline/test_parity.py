"""Cross-driver parity: one seeded workload, every entry point, one answer.

Every run entry point — ``SigmoEngine.run``, the serial chunk loop
``run_resilient`` (over graph lists or CSR-GO batches) and the pool
driver ``run_parallel`` — is a thin adapter over the one pipeline,
:func:`~repro.pipeline.execute`, and all of them (plus ``execute``
invoked directly) must produce identical match sets,
embeddings, summed :class:`~repro.core.join.JoinStats`, and — for
drivers sharing a partition — identical ``stage_counts``.
"""

import pytest

from repro.chem.datasets import build_benchmark
from repro.cluster.parallel import run_parallel
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.join import JoinStats
from repro.pipeline import PipelineRequest, execute
from repro.runtime import FaultPlan
from repro.runtime.resilient import run_resilient

pytestmark = pytest.mark.pipeline

N_QUERIES = 6
N_DATA = 30
SEED = 7
ITERATIONS = 3
CHUNK = 10


@pytest.fixture(scope="module")
def dataset():
    return build_benchmark(
        scale=1.0, n_queries=N_QUERIES, n_data_graphs=N_DATA, seed=SEED
    )


@pytest.fixture(scope="module")
def config():
    return SigmoConfig(refinement_iterations=ITERATIONS, record_embeddings=True)


@pytest.fixture(scope="module")
def reference(dataset, config):
    """The whole-batch engine run every driver must reproduce."""
    engine = SigmoEngine(dataset.queries, dataset.data, config)
    return engine.run(mode="find-all")


def embedding_set(records):
    return {(r.data_graph, r.query_graph, tuple(int(v) for v in r.mapping)) for r in records}


def stats_tuple(stats: JoinStats):
    return (
        stats.pairs_joined,
        stats.stack_pushes,
        stats.candidate_visits,
        stats.edge_checks,
    )


class TestDriverParity:
    """Each legacy entry point against the whole-batch reference."""

    def check(self, result, reference):
        assert result.total_matches == reference.total_matches
        assert sorted(result.matched_pairs) == sorted(reference.matched_pairs())
        assert embedding_set(result.embeddings) == embedding_set(
            reference.embeddings
        )
        # Join work is per-(data, query) pair, so any partition of the
        # data batch must sum to exactly the whole-batch counters.
        assert stats_tuple(result.join_stats) == stats_tuple(
            reference.join_result.stats
        )

    def test_run_chunked(self, dataset, config, reference):
        # The serial chunk loop called positionally, as a plain chunked run.
        result = run_resilient(dataset.queries, dataset.data, CHUNK, config=config)
        assert result.n_chunks == 3
        self.check(result, reference)

    def test_run_resilient(self, dataset, config, reference):
        result = run_resilient(
            dataset.queries, dataset.data, chunk_size=CHUNK, config=config
        )
        assert result.status == "complete"
        self.check(result, reference)

    def test_run_resilient_csrgo(self, dataset, config, reference):
        query = CSRGO.from_graphs(dataset.queries)
        data = CSRGO.from_graphs(dataset.data)
        result = run_resilient(query, data, CHUNK, config=config)
        self.check(result, reference)

    def test_run_parallel(self, dataset, config, reference):
        result = run_parallel(
            dataset.queries,
            dataset.data,
            n_workers=2,
            chunk_size=CHUNK,
            config=config,
        )
        self.check(result, reference)

    def test_run_parallel_resilient(self, dataset, config, reference):
        # The pool driver's fault-tolerant path: a soft crash on slice 0 is
        # retried and the run still reproduces the whole-batch reference.
        result = run_parallel(
            dataset.queries,
            dataset.data,
            n_workers=2,
            chunk_size=CHUNK,
            config=config,
            fault_plan=FaultPlan(crash_at=((0, 0),)),
        )
        assert result.status == "complete"
        assert result.failed_slices == []
        self.check(result, reference)

    def test_executor_direct(self, dataset, config, reference):
        request = PipelineRequest(
            query=dataset.queries, data=dataset.data, config=config
        )
        result = execute(request)
        assert result.total_matches == reference.total_matches
        assert result.matched_pairs() == reference.matched_pairs()
        assert embedding_set(result.embeddings) == embedding_set(
            reference.embeddings
        )
        assert stats_tuple(result.join_result.stats) == stats_tuple(
            reference.join_result.stats
        )
        assert result.stage_counts == reference.stage_counts


class TestSharedPartition:
    """Drivers cutting the data identically must agree on everything."""

    def test_chunked_vs_resilient(self, dataset, config):
        # Graph-list and CSR-GO inputs to the serial chunk loop cut the
        # data identically.
        lists = run_resilient(
            dataset.queries, dataset.data, chunk_size=CHUNK, config=config
        )
        batches = run_resilient(
            CSRGO.from_graphs(dataset.queries),
            CSRGO.from_graphs(dataset.data),
            CHUNK,
            config=config,
        )
        assert batches.matched_pairs == lists.matched_pairs
        assert batches.embeddings == lists.embeddings
        assert batches.stage_counts == lists.stage_counts
        assert stats_tuple(batches.join_stats) == stats_tuple(lists.join_stats)

    def test_single_worker_pool_vs_chunked(self, dataset, config):
        serial = run_resilient(
            dataset.queries, dataset.data, chunk_size=CHUNK, config=config
        )
        pooled = run_parallel(
            dataset.queries,
            dataset.data,
            n_workers=1,
            chunk_size=CHUNK,
            config=config,
        )
        assert pooled.matched_pairs == sorted(serial.matched_pairs)
        assert pooled.embeddings == serial.embeddings
        assert pooled.stage_counts == serial.stage_counts
        assert stats_tuple(pooled.join_stats) == stats_tuple(serial.join_stats)

    def test_pool_vs_resilient_pool(self, dataset, config):
        plain = run_parallel(
            dataset.queries,
            dataset.data,
            n_workers=2,
            chunk_size=CHUNK,
            config=config,
        )
        # A retried soft crash re-runs the same slice, so the partition and
        # therefore every counter are unchanged.
        recovered = run_parallel(
            dataset.queries,
            dataset.data,
            n_workers=2,
            chunk_size=CHUNK,
            config=config,
            fault_plan=FaultPlan(crash_at=((0, 0),)),
        )
        assert recovered.status == plain.status == "complete"
        assert recovered.matched_pairs == plain.matched_pairs
        assert recovered.stage_counts == plain.stage_counts
        assert stats_tuple(recovered.join_stats) == stats_tuple(plain.join_stats)


class TestFindFirstParity:
    def test_modes_agree_across_drivers(self, dataset, config, reference):
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        first = engine.run(mode="find-first")
        chunked = run_resilient(
            dataset.queries, dataset.data, CHUNK, mode="find-first", config=config
        )
        assert chunked.total_matches == first.total_matches
        assert sorted(chunked.matched_pairs) == sorted(first.matched_pairs())
        # Find First visits a prefix of Find All's work per pair.
        assert first.total_matches <= reference.total_matches
