"""Seeded differential test: every join path against the scalar DFS.

Random labeled batches from :mod:`repro.graph.generators` — trees,
degree-bounded graphs, rings and stars, with planted, single-node and
disconnected queries — run with the layout contracts on
(``REPRO_CHECK=1``) through the scalar DFS reference, the fused table,
the forced one-pair-per-table ``"tabular"`` arm and ``"auto"``.  Seeds
also vary induced mode, wildcard edge labels, the matching-order
heuristic and the bitmap word width.  In Find All every path must equal
the DFS in matches, every ``JoinStats`` counter and embedding order; in
Find First in matches, embeddings and single-node pairs' visits, also
across a budgeted run and its resume.  Both checks run with the
edge-aware filter pass on (the default) and off.  Budgets then truncate
each path at a random pair: truncation points, reasons and counters must
equal the DFS's, and resuming from the token must complete the full run
exactly.  Across the two filters, every path must give the same matches
and embeddings, and at the depth the edge-aware filter stops at, it may
only cut the join's work.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget
from repro.graph.generators import (
    random_connected_graph,
    random_subgraph_pattern,
    random_tree,
    ring_graph,
    star_graph,
)
from repro.graph.labeled_graph import LabeledGraph
from tests.accel.test_parity import _embeddings, assert_find_all_parity

#: Fixed seeds in tier-1 and CI; ``make fuzz`` widens the range through
#: ``REPRO_FUZZ_SEEDS``.
SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "10")))
BACKENDS = ("fused", "tabular", "auto")
#: ``SigmoConfig.edge_signatures`` values: node-only and edge-aware filters.
EDGE_FLAGS = (False, True)


def seed_flags(seeds):
    """``(seed, edge_signatures)`` cases: each seed with the default
    edge-aware filter (id ``seed``) and the node-only one."""
    return [
        pytest.param(seed, flag, id=str(seed) if flag else f"{seed}-node-only")
        for seed in seeds
        for flag in (True, False)
    ]


SEED_FLAGS = seed_flags(SEEDS)
#: Embeddings recorded per run (recording truncation is part of parity).
MAX_RECORDED = 500


def _data_graph(rng, n_labels, n_edge_labels):
    kind = int(rng.integers(0, 4))
    n = int(rng.integers(5, 20))
    if kind == 0:
        return random_tree(n, n_labels, rng, n_edge_labels)
    if kind == 1:
        return random_connected_graph(
            n, int(rng.integers(0, 10)), n_labels, rng, n_edge_labels, max_degree=4
        )
    if kind == 2:
        return ring_graph(n, rng.integers(0, n_labels, size=n), int(rng.integers(0, n_edge_labels)))
    leaves = rng.integers(0, n_labels, size=int(rng.integers(2, 7)))
    return star_graph(int(rng.integers(0, n_labels)), leaves)


def _workload(seed):
    """(queries, data, config fields) of one seed."""
    rng = np.random.default_rng(1000 + seed)
    n_labels = int(rng.integers(1, 4))
    n_edge_labels = int(rng.integers(1, 4))
    data = [_data_graph(rng, n_labels, n_edge_labels) for _ in range(10)]
    queries = []
    for g in data[:7]:
        q, _ = random_subgraph_pattern(g, int(rng.integers(1, min(7, g.n_nodes) + 1)), rng)
        queries.append(q)
    a, b = queries[0], queries[1]
    queries.append(
        LabeledGraph(
            np.concatenate([a.labels, b.labels]),
            [tuple(map(int, e)) for e in a.edges]
            + [(int(u) + a.n_nodes, int(v) + a.n_nodes) for u, v in b.edges],
            np.concatenate([a.edge_labels, b.edge_labels]),
        )
    )
    queries.append(LabeledGraph([int(rng.integers(0, n_labels))], []))
    fields = {
        "induced": seed % 3 == 1,
        "wildcard_edge_label": 0 if seed % 4 == 2 else None,
        "candidate_order": "bfs" if seed % 5 == 3 else "fewest-candidates",
        "word_bits": (64, 32, 16, 8)[seed % 4],
    }
    return queries, data, fields


def _engine(queries, data, backend, fields):
    config = SigmoConfig(
        record_embeddings=True,
        max_embeddings_recorded=MAX_RECORDED,
        join_backend=backend,
        **fields,
    )
    return SigmoEngine(queries, data, config)


@pytest.fixture(autouse=True)
def contracts_on(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")


@pytest.mark.parametrize(("seed", "edge_signatures"), SEED_FLAGS)
def test_find_all_equals_dfs(seed, edge_signatures):
    queries, data, fields = _workload(seed)
    fields["edge_signatures"] = edge_signatures
    ref = _engine(queries, data, "dfs", fields).run()
    assert ref.join_result.stats.pairs_joined > 0
    for backend in BACKENDS:
        assert_find_all_parity(ref, _engine(queries, data, backend, fields).run())


@pytest.mark.parametrize(("seed", "edge_signatures"), SEED_FLAGS)
def test_find_first_equals_dfs(seed, edge_signatures):
    queries, data, fields = _workload(seed)
    fields["edge_signatures"] = edge_signatures
    ref = _engine(queries, data, "dfs", fields).run(mode=FIND_FIRST)
    jr = ref.join_result
    # Single-node pairs: the DFS stops at the first candidate, and so
    # must every backend's work counters.
    single = np.array(
        [queries[q].n_nodes == 1 for q in ref.gmcr.query_graph_indices], dtype=bool
    )
    assert single.any()
    for backend in BACKENDS:
        got = _engine(queries, data, backend, fields).run(mode=FIND_FIRST)
        assert np.array_equal(got.join_result.pair_matches, jr.pair_matches)
        assert _embeddings(got) == _embeddings(ref)
        assert np.array_equal(
            got.join_result.pair_visits[single], jr.pair_visits[single]
        ), backend
    # A budgeted run plus its resume gives the DFS's answers on every
    # backend, wherever each backend's own counters truncate it.
    for budget in _budgets(ref, np.random.default_rng(seed)):
        for backend in ("dfs", *BACKENDS):
            engine = _engine(queries, data, backend, fields)
            part = engine.run(mode=FIND_FIRST, join_budget=budget)
            matches = part.join_result.pair_matches.copy()
            embeddings = _embeddings(part)
            if part.join_result.truncated:
                rest = engine.run(
                    mode=FIND_FIRST, join_start_pair=part.join_result.resume_pair
                )
                matches += rest.join_result.pair_matches
                embeddings += _embeddings(rest)
            assert np.array_equal(matches, jr.pair_matches), (backend, budget)
            assert embeddings == _embeddings(ref), (backend, budget)


def _budgets(ref, rng):
    """Budgets on each dimension that fire before a random pair."""
    jr = ref.join_result
    stop = int(rng.integers(1, jr.pair_visits.size)) if jr.pair_visits.size > 1 else 1
    visits = int(jr.pair_visits[:stop].sum())
    matches = int(jr.pair_matches[:stop].sum())
    return [
        JoinBudget(max_visits=max(visits, 1)),
        JoinBudget(max_matches=max(matches, 1)),
        JoinBudget(max_pushes=max(jr.stats.stack_pushes // 2, 1)),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_truncation_and_resume_equal_dfs(seed):
    queries, data, fields = _workload(seed)
    full = _engine(queries, data, "dfs", fields).run()
    for budget in _budgets(full, np.random.default_rng(seed)):
        ref = _engine(queries, data, "dfs", fields).run(join_budget=budget)
        for backend in ("dfs", *BACKENDS):
            engine = _engine(queries, data, backend, fields)
            part = engine.run(mode=FIND_ALL, join_budget=budget)
            jp, jr = part.join_result, ref.join_result
            assert (jp.truncated, jp.resume_pair, jp.truncate_reason) == (
                jr.truncated,
                jr.resume_pair,
                jr.truncate_reason,
            ), (backend, budget)
            assert_find_all_parity(ref, part)
            if not jp.truncated:
                continue
            rest = engine.run(join_start_pair=jp.resume_pair)
            assert part.total_matches + rest.total_matches == full.total_matches
            resumed = _embeddings(part) + _embeddings(rest)
            assert resumed[:MAX_RECORDED] == _embeddings(full)
            for counter in ("candidate_visits", "edge_checks", "stack_pushes"):
                assert getattr(jp.stats, counter) + getattr(
                    rest.join_result.stats, counter
                ) == getattr(full.join_result.stats, counter), (backend, counter)


#: ``JoinStats`` counters the edge-aware filter may only lower.
WORK_COUNTERS = ("pairs_joined", "candidate_visits", "edge_checks", "stack_pushes")


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_aware_filter_keeps_answers_and_cuts_work(seed):
    queries, data, fields = _workload(seed)
    fields["max_embeddings_recorded"] = 1_000_000
    for backend in ("dfs", *BACKENDS):
        config = SigmoConfig(
            record_embeddings=True, join_backend=backend, **fields
        )
        on = SigmoEngine(queries, data, config).run()
        # The node-only filter at the depth the edge-aware one stopped at.
        off = SigmoEngine(
            queries,
            data,
            replace(
                config,
                edge_signatures=False,
                refinement_iterations=on.filter_result.depth,
            ),
        ).run()
        assert on.total_matches == off.total_matches, backend
        assert sorted(on.matched_pairs()) == sorted(off.matched_pairs()), backend
        assert sorted(_embeddings(on)) == sorted(_embeddings(off)), backend
        assert (
            on.filter_result.total_candidates <= off.filter_result.total_candidates
        )
        for counter in WORK_COUNTERS:
            assert getattr(on.join_result.stats, counter) <= getattr(
                off.join_result.stats, counter
            ), (backend, counter)
