"""Bitwise equivalence of the DFS and tabular join backends.

Seeded property-style sweep over random workloads: in Find All the two
backends must agree on *everything* — match sets, recorded embeddings
(including order and ``max_embeddings_recorded`` truncation), every
``JoinStats`` counter, and budget truncation at pair boundaries.  In Find
First they must agree on results (first-match semantics), while counters
are backend-specific by design.
"""

import numpy as np
import pytest

from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget
from tests.conftest import random_case

pytestmark = pytest.mark.perf_accel

SEEDS = [0, 1, 2, 3]


def _run(queries, data, backend, mode=FIND_ALL, budget=None, **fields):
    config = SigmoConfig(
        record_embeddings=True, join_backend=backend, **fields
    )
    engine = SigmoEngine(queries, data, config)
    return engine.run(mode=mode, join_budget=budget)


def _embeddings(result):
    return [
        (d, q, tuple(m.tolist())) for d, q, m in result.join_result.embeddings
    ]


def assert_find_all_parity(ra, rb):
    ja, jb = ra.join_result, rb.join_result
    assert ra.total_matches == rb.total_matches
    assert np.array_equal(ja.pair_matches, jb.pair_matches)
    assert np.array_equal(ja.pair_visits, jb.pair_visits)
    assert ja.stats.pairs_joined == jb.stats.pairs_joined
    assert ja.stats.candidate_visits == jb.stats.candidate_visits
    assert ja.stats.edge_checks == jb.stats.edge_checks
    assert ja.stats.stack_pushes == jb.stats.stack_pushes
    assert _embeddings(ra) == _embeddings(rb)


class TestFindAllParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_benchmark_workloads(self, seed):
        ds = build_benchmark(
            scale=1.0, n_queries=16, n_data_graphs=40, seed=seed
        )
        ra = _run(ds.queries, ds.data, "dfs")
        rb = _run(ds.queries, ds.data, "tabular")
        rc = _run(ds.queries, ds.data, "auto")
        rf = _run(ds.queries, ds.data, "fused")
        assert_find_all_parity(ra, rb)
        assert_find_all_parity(ra, rc)
        assert_find_all_parity(ra, rf)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_planted_patterns_found_by_both(self, seed):
        rng = np.random.default_rng(seed)
        queries, data = [], []
        for _ in range(12):
            q, d, _ = random_case(rng, n_edge_labels=3)
            queries.append(q)
            data.append(d)
        ra = _run(queries, data, "dfs")
        rb = _run(queries, data, "tabular")
        assert_find_all_parity(ra, rb)
        # Every planted pattern matches its own data graph.
        pairs = set(ra.matched_pairs())
        assert all((i, i) in pairs for i in range(len(queries)))

    def test_induced_mode_parity(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=5)
        ra = _run(ds.queries, ds.data, "dfs", induced=True)
        rb = _run(ds.queries, ds.data, "tabular", induced=True)
        assert_find_all_parity(ra, rb)

    def test_record_cap_truncation_parity(self):
        # Embedding recording truncates at the same point: frontier rows
        # are emitted in DFS order on both backends.
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=2)
        ra = _run(ds.queries, ds.data, "dfs", max_embeddings_recorded=7)
        rb = _run(ds.queries, ds.data, "tabular", max_embeddings_recorded=7)
        assert len(ra.join_result.embeddings) == 7
        assert _embeddings(ra) == _embeddings(rb)


class TestFindFirstParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_matched_pairs(self, seed):
        ds = build_benchmark(
            scale=1.0, n_queries=16, n_data_graphs=40, seed=seed
        )
        ra = _run(ds.queries, ds.data, "dfs", mode=FIND_FIRST)
        rb = _run(ds.queries, ds.data, "tabular", mode=FIND_FIRST)
        assert ra.total_matches == rb.total_matches
        assert np.array_equal(
            ra.join_result.pair_matches, rb.join_result.pair_matches
        )
        assert ra.matched_pairs() == rb.matched_pairs()

    def test_first_embedding_identical(self):
        # The tabular backend must return the DFS-first embedding, not
        # just any embedding.
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=1)
        ra = _run(ds.queries, ds.data, "dfs", mode=FIND_FIRST)
        rb = _run(ds.queries, ds.data, "tabular", mode=FIND_FIRST)
        rf = _run(ds.queries, ds.data, "fused", mode=FIND_FIRST)
        assert _embeddings(ra) == _embeddings(rb)
        assert _embeddings(ra) == _embeddings(rf)


class TestBudgetTruncationParity:
    """Budgets check at pair boundaries on bitwise-equal counters, so
    truncation points must be identical across backends in Find All."""

    @pytest.mark.parametrize(
        "budget",
        [
            JoinBudget(max_visits=500),
            JoinBudget(max_pushes=200),
            JoinBudget(max_matches=20),
        ],
    )
    def test_truncation_point_identical(self, budget):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=3)
        ra = _run(ds.queries, ds.data, "dfs", budget=budget)
        rb = _run(ds.queries, ds.data, "tabular", budget=budget)
        ja, jb = ra.join_result, rb.join_result
        assert ja.truncated and jb.truncated
        assert ja.resume_pair == jb.resume_pair
        assert ja.truncate_reason == jb.truncate_reason
        assert_find_all_parity(ra, rb)

    def test_resumed_run_completes_identically(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=3)
        full = _run(ds.queries, ds.data, "dfs")
        budget = JoinBudget(max_visits=500)
        for backend in ("dfs", "tabular"):
            config = SigmoConfig(record_embeddings=True, join_backend=backend)
            engine = SigmoEngine(ds.queries, ds.data, config)
            part = engine.run(join_budget=budget)
            assert part.truncated
            rest = engine.run(join_start_pair=part.resume_pair)
            total = part.total_matches + rest.total_matches
            assert total == full.total_matches, backend


class TestMixedDispatch:
    """``auto`` resolves to one backend, the fused table, for every pair."""

    def test_default_auto_routes_pairs_to_fused(self):
        ds = build_benchmark(scale=1.0, n_queries=24, n_data_graphs=60, seed=7)
        rc = _run(ds.queries, ds.data, "auto")
        split = rc.join_result.backend_pairs
        assert split["fused"] == rc.join_result.stats.pairs_joined > 0
        ra = _run(ds.queries, ds.data, "dfs")
        assert_find_all_parity(ra, rc)

    def test_backend_accounting_sums(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=0)
        r = _run(ds.queries, ds.data, "auto")
        j = r.join_result
        assert sum(j.backend_pairs.values()) == j.stats.pairs_joined
        assert sum(j.backend_visits.values()) == j.stats.candidate_visits
