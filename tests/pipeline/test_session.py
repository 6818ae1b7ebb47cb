"""Prepared-query sessions: warm ``match()`` skips the query-side stages.

Covers the session acceptance criteria: two ``match()`` calls on one
session equal two fresh engines bitwise; a warm call reuses the cached
``FilterResult``/``GMCR`` (verified structurally via obs span counts —
zero ``stage:filter``/``stage:mapping`` spans on the warm call); the
iteration sweep flows through the session layer; and ``mode`` /
``join_budget`` pass through per call.
"""

import pytest

from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_FIRST, JoinBudget
from repro.obs.trace import tracing
from repro.pipeline import MatcherSession

pytestmark = pytest.mark.pipeline

N_QUERIES = 6
N_DATA = 30
SEED = 7
ITERATIONS = 3


@pytest.fixture(scope="module")
def dataset():
    return build_benchmark(
        scale=1.0, n_queries=N_QUERIES, n_data_graphs=N_DATA, seed=SEED
    )


@pytest.fixture(scope="module")
def config():
    return SigmoConfig(refinement_iterations=ITERATIONS, record_embeddings=True)


def assert_same_result(a, b):
    assert a.total_matches == b.total_matches
    assert a.matched_pairs() == b.matched_pairs()
    assert a.embeddings == b.embeddings
    assert a.filter_result.total_candidates == b.filter_result.total_candidates


class TestSessionReuse:
    def test_two_matches_equal_two_fresh_engines(self, dataset, config):
        session = MatcherSession(dataset.queries, config=config)
        first = session.match(dataset.data)
        second = session.match(dataset.data)
        fresh = SigmoEngine(dataset.queries, dataset.data, config).run()
        assert_same_result(first, fresh)
        assert_same_result(second, fresh)

    def test_warm_match_hits_the_artifact_cache(self, dataset, config):
        session = MatcherSession(dataset.queries, config=config)
        session.match(dataset.data)
        stats = session.artifact_stats.as_dict()
        assert stats["hits"] == 0 and stats["stores"] == 2
        session.match(dataset.data)
        stats = session.artifact_stats.as_dict()
        assert stats["hits"] == 2  # FilterResult + GMCR recalled

    def test_warm_match_skips_query_side_stages(self, dataset, config):
        session = MatcherSession(dataset.queries, config=config)
        with tracing() as cold:
            session.match(dataset.data)
        assert len(cold.find("stage:filter")) == 1
        assert len(cold.find("stage:mapping")) == 1
        with tracing() as warm:
            session.match(dataset.data)
        # The cached artifacts satisfy stages 2-4: no filter/mapping spans,
        # no refine kernels — only the join still runs.
        assert warm.find("stage:filter") == []
        assert warm.find("stage:mapping") == []
        assert [s for s in warm.spans if s.name.startswith("kernel:refine")] == []
        assert len(warm.find("stage:join")) == 1

    def test_config_change_invalidates_the_artifacts(self, dataset, config):
        session = MatcherSession(dataset.queries, config=config)
        session.match(dataset.data)
        with tracing() as t:
            other = session.match(
                dataset.data,
                config=SigmoConfig(
                    refinement_iterations=ITERATIONS + 2, record_embeddings=True
                ),
            )
        # Different filter-affecting config ⇒ different fingerprint ⇒ the
        # filter runs again (and its result is cached separately).
        assert len(t.find("stage:filter")) == 1
        fresh = SigmoEngine(
            dataset.queries,
            dataset.data,
            SigmoConfig(
                refinement_iterations=ITERATIONS + 2, record_embeddings=True
            ),
        ).run()
        assert_same_result(other, fresh)

    def test_different_data_batches_stream_through_one_session(
        self, dataset, config
    ):
        session = MatcherSession(dataset.queries, config=config)
        lo = session.match(dataset.data[:15])
        hi = session.match(dataset.data[15:])
        whole = session.match(dataset.data)
        assert lo.total_matches + hi.total_matches == whole.total_matches


class TestPassThrough:
    def test_mode(self, dataset, config):
        session = MatcherSession(dataset.queries, config=config)
        first = session.match(dataset.data, mode=FIND_FIRST)
        fresh = SigmoEngine(dataset.queries, dataset.data, config).run(
            mode=FIND_FIRST
        )
        assert first.mode == FIND_FIRST
        assert first.total_matches == fresh.total_matches
        assert first.matched_pairs() == fresh.matched_pairs()

    def test_join_budget_truncates_and_resumes(self, dataset, config):
        session = MatcherSession(dataset.queries, config=config)
        full = session.match(dataset.data)
        part = session.match(dataset.data, join_budget=JoinBudget(max_matches=1))
        assert part.truncated
        assert part.resume_pair is not None
        rest = session.match(dataset.data, join_start_pair=part.resume_pair)
        assert part.total_matches + rest.total_matches == full.total_matches
        assert part.embeddings + rest.embeddings == full.embeddings


class TestIterationSweep:
    def test_sweep_reuses_shared_state_through_the_session(self, dataset, config):
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        sweep = engine.run_iteration_sweep([1, 2, ITERATIONS])
        assert sorted(sweep) == [1, 2, ITERATIONS]
        for s, result in sweep.items():
            assert len(result.filter_result.iterations) <= s
        # The last sweep point matches a plain run at the same setting.
        plain = engine.run()
        assert sweep[ITERATIONS].total_matches == plain.total_matches
        # Repeating a sweep point on the same engine recalls its artifacts.
        hits_before = engine._artifacts.stats.hits
        engine.run_iteration_sweep([ITERATIONS])
        assert engine._artifacts.stats.hits > hits_before

    def test_sweep_accepts_mode_and_budget(self, dataset, config):
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        results = engine.run_iteration_sweep(
            [ITERATIONS], mode=FIND_FIRST, join_budget=JoinBudget(max_visits=10**9)
        )
        assert results[ITERATIONS].mode == FIND_FIRST
        fresh = SigmoEngine(dataset.queries, dataset.data, config).run(
            mode=FIND_FIRST
        )
        assert results[ITERATIONS].total_matches == fresh.total_matches


class TestConcurrentReuse:
    """The thread-safety contract: ``match()`` may be called from many
    threads; the internal lock serializes them and the shared artifact
    cache never corrupts (every concurrent result is bitwise-equal to a
    serial run)."""

    def test_interleaved_matches_do_not_corrupt_artifacts(self, dataset, config):
        import threading

        session = MatcherSession(dataset.queries, config=config)
        fresh = SigmoEngine(dataset.queries, dataset.data, config).run()
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def worker(i):
            try:
                barrier.wait()  # maximize interleaving pressure
                for _ in range(3):
                    results[i] = session.match(dataset.data)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for result in results:
            assert_same_result(result, fresh)
        # the cache converged to exactly one stored artifact pair
        stats = session.artifact_stats.as_dict()
        assert stats["stores"] == 2

    def test_concurrent_distinct_batches_stay_isolated(self, dataset, config):
        import threading

        session = MatcherSession(dataset.queries, config=config)
        batches = [dataset.data[:10], dataset.data[10:20], dataset.data[20:]]
        expected = [
            SigmoEngine(dataset.queries, b, config).run().total_matches
            for b in batches
        ]
        barrier = threading.Barrier(len(batches))
        got = [None] * len(batches)

        def worker(i):
            barrier.wait()
            got[i] = session.match(batches[i]).total_matches

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(batches))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == expected

    def test_concurrent_budgeted_and_full_calls_interleave(self, dataset, config):
        import threading

        session = MatcherSession(dataset.queries, config=config)
        full = session.match(dataset.data)
        barrier = threading.Barrier(2)
        out = {}

        def budgeted():
            barrier.wait()
            part = session.match(
                dataset.data, join_budget=JoinBudget(max_matches=1)
            )
            rest = session.match(
                dataset.data, join_start_pair=part.resume_pair
            )
            out["chain"] = part.total_matches + rest.total_matches

        def unbudgeted():
            barrier.wait()
            out["full"] = session.match(dataset.data).total_matches

        threads = [
            threading.Thread(target=budgeted),
            threading.Thread(target=unbudgeted),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert out["chain"] == full.total_matches
        assert out["full"] == full.total_matches
