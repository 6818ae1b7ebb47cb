"""Unit tests for the stack-based DFS join."""

import numpy as np
import pytest

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.filtering import IterativeFilter
from repro.core.join import (
    FIND_ALL,
    FIND_FIRST,
    JoinBudget,
    QueryPlan,
    build_plan_table,
    build_query_plan,
    compile_plans,
    run_join,
)
from repro.core.mapping import build_gmcr
from repro.graph.generators import (
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from repro.graph.labeled_graph import LabeledGraph


def run_pipeline(queries, data, mode=FIND_ALL, iterations=3, budget=None, start_pair=0, **cfg):
    config = SigmoConfig(refinement_iterations=iterations, **cfg)
    q = CSRGO.from_graphs(queries)
    d = CSRGO.from_graphs(data)
    fr = IterativeFilter(q, d, config).run()
    gmcr = build_gmcr(fr.bitmap, q, d)
    result = run_join(
        q, d, fr.bitmap, gmcr, config, mode=mode, budget=budget, start_pair=start_pair
    )
    return result, gmcr


class TestQueryPlan:
    def test_order_is_permutation(self):
        q = CSRGO.from_graphs([ring_graph(5, [0, 1, 2, 3, 4])])
        plan = build_query_plan(q, 0)
        assert sorted(plan.order.tolist()) == list(range(5))

    def test_connected_prefix(self):
        q = CSRGO.from_graphs([path_graph([0, 1, 2, 3])])
        plan = build_query_plan(q, 0)
        # every node after the first has a back edge (connectivity)
        for checks in plan.check_edges[1:]:
            assert len(checks) >= 1

    def test_check_edges_cover_all_edges(self):
        g = ring_graph(4, [0, 1, 2, 3])
        q = CSRGO.from_graphs([g])
        plan = build_query_plan(q, 0)
        n_checks = sum(len(c) for c in plan.check_edges)
        assert n_checks == g.n_edges

    def test_fewest_candidates_starts_rare(self):
        q = CSRGO.from_graphs([path_graph([0, 1])])
        counts = np.array([100, 1])
        plan = build_query_plan(q, 0, counts, "fewest-candidates")
        assert plan.order[0] == 1

    def test_bfs_heuristic(self):
        q = CSRGO.from_graphs([path_graph([0, 1, 2])])
        plan = build_query_plan(q, 0, heuristic="bfs")
        assert plan.order.tolist() == [0, 1, 2]

    def test_bfs_skips_greedy_order(self, monkeypatch):
        import repro.core.join as join

        def greedy(*args):
            raise AssertionError("bfs must not run the greedy order")

        monkeypatch.setattr(join, "_greedy_order", greedy)
        q = CSRGO.from_graphs([path_graph([0, 1, 2])])
        plan = build_query_plan(q, 0, np.array([9, 1, 5]), heuristic="bfs")
        assert plan.order.tolist() == [0, 1, 2]

    def test_empty_query_raises(self):
        q = CSRGO.from_graphs([LabeledGraph([]), path_graph([0])])
        with pytest.raises(ValueError):
            build_query_plan(q, 0)


class TestJoinCounts:
    def test_path_in_ring(self):
        res, _ = run_pipeline([path_graph([1, 2])], [ring_graph(6, [1, 1, 2, 1, 1, 2])])
        assert res.total_matches == 4

    def test_automorphisms_counted(self):
        # triangle query in triangle data: 3! = 6 embeddings
        res, _ = run_pipeline(
            [ring_graph(3, [0, 0, 0])], [ring_graph(3, [0, 0, 0])]
        )
        assert res.total_matches == 6

    def test_edge_labels_checked(self):
        q = path_graph([0, 0], [1])  # edge label 1
        d = path_graph([0, 0], [2])  # edge label 2
        res, _ = run_pipeline([q], [d])
        assert res.total_matches == 0

    def test_injectivity(self):
        # two-leaf star query needs two distinct label-1 neighbors
        q = star_graph(0, [1, 1])
        d = path_graph([1, 0])  # only one neighbor
        res, _ = run_pipeline([q], [d])
        assert res.total_matches == 0

    def test_non_induced_semantics(self):
        # path query matches inside a triangle (extra data edges allowed)
        q = path_graph([0, 0, 0])
        d = ring_graph(3, [0, 0, 0])
        res, _ = run_pipeline([q], [d])
        assert res.total_matches == 6

    def test_multiple_data_graphs(self):
        q = path_graph([1, 2])
        data = [path_graph([1, 2]), path_graph([2, 1]), path_graph([3, 3])]
        res, gmcr = run_pipeline([q], data)
        assert res.total_matches == 2
        assert gmcr.matched.sum() == 2


class TestFindFirst:
    def test_find_first_counts_pairs(self):
        q = path_graph([1, 1])
        d = ring_graph(6, [1] * 6)  # 12 embeddings
        res_all, _ = run_pipeline([q], [d], mode=FIND_ALL)
        res_first, gmcr = run_pipeline([q], [d], mode=FIND_FIRST)
        assert res_all.total_matches == 12
        assert res_first.total_matches == 1
        assert gmcr.matched[0]

    def test_find_first_less_work(self):
        # DFS semantics: the scalar backend stops at the first embedding.
        # (The fused backend pays whole-block work regardless, so its
        # Find First counters are backend-specific by design.)
        q = path_graph([1, 1])
        d = ring_graph(12, [1] * 12)
        res_all, _ = run_pipeline([q], [d], mode=FIND_ALL, join_backend="dfs")
        res_first, _ = run_pipeline(
            [q], [d], mode=FIND_FIRST, join_backend="dfs"
        )
        assert res_first.stats.candidate_visits < res_all.stats.candidate_visits

    def test_invalid_mode(self):
        q = CSRGO.from_graphs([path_graph([0])])
        with pytest.raises(ValueError):
            run_join(q, q, None, None, mode="bogus")


class TestEmbeddingRecording:
    def test_embeddings_are_valid(self):
        q = path_graph([1, 2, 1])
        d = ring_graph(6, [1, 2, 1, 1, 2, 1])
        config = SigmoConfig(record_embeddings=True)
        engine = SigmoEngine([q], [d], config)
        res = engine.run()
        assert len(res.embeddings) == res.total_matches
        for rec in res.embeddings:
            mapping = rec.mapping
            # injective
            assert len(set(mapping.tolist())) == mapping.size
            # label-preserving
            for qi, di in enumerate(mapping):
                assert d.labels[di] == q.labels[qi]
            # edge-preserving with labels
            for (u, v), lab in zip(q.edges, q.edge_labels):
                assert d.has_edge(int(mapping[u]), int(mapping[v]))
                assert d.edge_label(int(mapping[u]), int(mapping[v])) == lab

    def test_record_cap(self):
        q = path_graph([1, 1])
        d = ring_graph(8, [1] * 8)
        config = SigmoConfig(record_embeddings=True, max_embeddings_recorded=3)
        res = SigmoEngine([q], [d], config).run()
        assert len(res.embeddings) == 3
        assert res.total_matches == 16


class TestJoinStats:
    def test_counters_populated(self):
        res, _ = run_pipeline([path_graph([1, 2])], [ring_graph(6, [1, 1, 2, 1, 1, 2])])
        assert res.stats.pairs_joined == 1
        assert res.stats.stack_pushes >= res.total_matches
        assert res.stats.candidate_visits >= res.stats.stack_pushes

    def test_pair_matches_aligned_with_gmcr(self):
        q = path_graph([1, 2])
        data = [path_graph([1, 2]), path_graph([1, 3, 2])]
        res, gmcr = run_pipeline([q], data, iterations=1)
        assert res.pair_matches.size == gmcr.n_pairs
        assert res.pair_matches.sum() == res.total_matches


class TestJoinBudget:
    """The join watchdog: truncation at pair boundaries with resume."""

    WORKLOAD = (
        [path_graph([1, 1]), path_graph([1, 1, 1])],
        [ring_graph(6, [1] * 6), ring_graph(8, [1] * 8), path_graph([1, 1, 1, 1])],
    )

    def test_no_budget_never_truncates(self):
        res, _ = run_pipeline(*self.WORKLOAD)
        assert not res.truncated
        assert res.resume_pair is None

    def test_match_budget_truncates_at_pair_boundary(self):
        full, gmcr = run_pipeline(*self.WORKLOAD)
        res, _ = run_pipeline(*self.WORKLOAD, budget=JoinBudget(max_matches=1))
        assert res.truncated
        assert res.truncate_reason
        assert 0 < res.resume_pair < gmcr.n_pairs
        assert 0 < res.total_matches < full.total_matches
        # pairs before the boundary are complete, pairs after untouched
        assert (res.pair_matches[: res.resume_pair] == full.pair_matches[: res.resume_pair]).all()
        assert (res.pair_matches[res.resume_pair :] == 0).all()

    def test_resume_chain_equals_full_run(self):
        full, _ = run_pipeline(*self.WORKLOAD)
        budget = JoinBudget(max_matches=1)
        total = 0
        start = 0
        for _ in range(100):
            res, _ = run_pipeline(*self.WORKLOAD, budget=budget, start_pair=start)
            total += res.total_matches
            if not res.truncated:
                break
            start = res.resume_pair
        else:
            pytest.fail("resume chain did not converge")
        assert total == full.total_matches

    def test_visit_budget_truncates(self):
        res, _ = run_pipeline(*self.WORKLOAD, budget=JoinBudget(max_visits=1))
        assert res.truncated
        assert "candidate_visits" in res.truncate_reason

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            JoinBudget(max_matches=0)
        with pytest.raises(ValueError):
            JoinBudget(max_visits=-1)

    def test_start_pair_validation(self):
        with pytest.raises(ValueError):
            run_pipeline(*self.WORKLOAD, start_pair=-1)
        with pytest.raises(ValueError):
            run_pipeline(*self.WORKLOAD, start_pair=10**6)

    def test_start_pair_skips_completed_pairs(self):
        full, gmcr = run_pipeline(*self.WORKLOAD)
        res, _ = run_pipeline(*self.WORKLOAD, start_pair=1)
        assert res.total_matches == full.total_matches - full.pair_matches[0]
        assert (res.pair_matches[0] == 0) and not res.truncated


# -- differential plan compiler ---------------------------------------------------
#
# The scalar per-graph compiler the batched one replaced, kept as the
# oracle: the batched table must reproduce its order (first-minimum
# tie-break, disconnected-graph jump), its check edges in CSR neighbour
# order and its induced forbidden depths, graph for graph.


def _oracle_greedy_order(query, query_graph, candidate_counts):
    start_node, stop_node = query.graph_node_range(query_graph)
    n = stop_node - start_node

    def local_neighbors(local):
        return query.neighbors(start_node + local) - start_node

    if candidate_counts is not None:
        counts = np.asarray(candidate_counts[start_node:stop_node], dtype=np.int64)
    else:
        counts = np.diff(
            query.row_offsets[start_node : stop_node + 1]
        ).astype(np.int64) * -1
    order = [int(np.argmin(counts))]
    in_order = np.zeros(n, dtype=bool)
    in_order[order[0]] = True
    adjacent = np.zeros(n, dtype=bool)
    adjacent[local_neighbors(order[0])] = True
    while len(order) < n:
        frontier = np.nonzero(adjacent & ~in_order)[0]
        if frontier.size == 0:
            frontier = np.nonzero(~in_order)[0]
        pick = int(frontier[np.argmin(counts[frontier])])
        order.append(pick)
        in_order[pick] = True
        adjacent[local_neighbors(pick)] = True
    return order


def _oracle_bfs_order(query, query_graph):
    from collections import deque

    start_node, stop_node = query.graph_node_range(query_graph)
    n = stop_node - start_node
    seen = np.zeros(n, dtype=bool)
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in query.neighbors(start_node + v) - start_node:
                if not seen[u]:
                    seen[u] = True
                    queue.append(int(u))
    return order


def _oracle_plan(query, qg, counts, heuristic, wildcard_edge_label, induced):
    start_node, _ = query.graph_node_range(qg)
    if heuristic == "bfs":
        order = _oracle_bfs_order(query, qg)
    else:
        order = _oracle_greedy_order(
            query, qg, counts if heuristic == "fewest-candidates" else None
        )
    position = {node: p for p, node in enumerate(order)}
    check_edges, forbidden = [], []
    for p, node in enumerate(order):
        checks = []
        adjacent_depths = set()
        nbrs = query.neighbors(start_node + node)
        elabs = query.neighbor_edge_labels(start_node + node)
        for nbr, elab in zip(nbrs, elabs):
            p2 = position[int(nbr) - start_node]
            if p2 < p:
                adjacent_depths.add(p2)
                code = int(elab)
                if wildcard_edge_label is not None and code == wildcard_edge_label:
                    code = -1
                checks.append((p2, code))
        check_edges.append(tuple(checks))
        forbidden.append(
            tuple(p2 for p2 in range(p) if p2 not in adjacent_depths)
            if induced
            else ()
        )
    return order, tuple(check_edges), tuple(forbidden)


def assert_plans_match_oracle(query, counts, heuristic, wildcard=None, induced=False):
    table = build_plan_table(query, counts, heuristic, wildcard, induced)
    assert len(table) == query.n_graphs
    for qg in range(query.n_graphs):
        order, checks, forbidden = _oracle_plan(
            query, qg, counts, heuristic, wildcard, induced
        )
        for plan in (
            table[qg],
            build_query_plan(query, qg, counts, heuristic, wildcard, induced),
        ):
            assert isinstance(plan, QueryPlan)
            assert plan.query_graph == qg
            assert plan.order.dtype == np.int32
            assert plan.order.tolist() == order, f"order of query graph {qg}"
            assert plan.check_edges == checks, f"checks of query graph {qg}"
            assert plan.forbidden == forbidden, f"forbidden of query graph {qg}"
        padded = table.order[qg, len(order) :]
        assert (padded == -1).all()


def _random_query(rng, n_labels=3, n_edge_labels=3):
    """A random labeled graph of 1-3 components (single nodes included)."""
    labels, edges, edge_labels = [], [], []
    for _ in range(int(rng.integers(1, 4))):
        n = int(rng.integers(1, 9))
        part = random_connected_graph(
            n, int(rng.integers(0, 4)), n_labels, rng, n_edge_labels=n_edge_labels
        )
        base = len(labels)
        labels.extend(part.labels.tolist())
        edges.extend((int(u) + base, int(v) + base) for u, v in part.edges)
        edge_labels.extend(part.edge_labels.tolist())
    return LabeledGraph(labels, edges, edge_labels)


HEURISTICS = ["fewest-candidates", "bfs"]


@pytest.mark.perf_accel
class TestPlanCompilerParity:
    @pytest.fixture(scope="class")
    def library(self):
        from repro.chem.datasets import build_benchmark

        ds = build_benchmark(scale=1.0, n_queries=618, n_data_graphs=200, seed=0)
        query = CSRGO.from_graphs(ds.queries)
        data = CSRGO.from_graphs(ds.data[:30])
        config = SigmoConfig(refinement_iterations=2)
        counts = IterativeFilter(query, data, config).run().bitmap.row_counts()
        return query, counts

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_reference_library(self, library, heuristic):
        query, counts = library
        assert query.n_graphs == 618
        assert_plans_match_oracle(query, counts, heuristic)

    def test_reference_library_degree_fallback(self, library):
        query, _ = library
        assert_plans_match_oracle(query, None, "fewest-candidates")

    def test_reference_library_induced_wildcard(self, library):
        query, counts = library
        assert_plans_match_oracle(
            query, counts, "fewest-candidates", wildcard=1, induced=True
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_random_graphs(self, seed, heuristic):
        rng = np.random.default_rng(seed)
        query = CSRGO.from_graphs([_random_query(rng) for _ in range(25)])
        # Few distinct values: ties are everywhere.
        counts = rng.integers(0, 3, size=query.n_nodes)
        for wildcard, induced in [(None, False), (2, False), (None, True), (0, True)]:
            assert_plans_match_oracle(query, counts, heuristic, wildcard, induced)
        assert_plans_match_oracle(query, None, heuristic)

    def test_all_counts_tied(self):
        rng = np.random.default_rng(11)
        query = CSRGO.from_graphs([_random_query(rng) for _ in range(20)])
        assert_plans_match_oracle(
            query, np.full(query.n_nodes, 7), "fewest-candidates"
        )

    def test_single_node_and_disconnected(self):
        query = CSRGO.from_graphs(
            [
                LabeledGraph([4]),
                LabeledGraph([0, 1, 2], [(0, 1)], [1]),  # isolated node 2
                LabeledGraph([0, 0, 0, 0], [(0, 1), (2, 3)], [1, 2]),
            ]
        )
        counts = np.array([5, 3, 1, 9, 2, 2, 1, 1])
        for heuristic in HEURISTICS:
            assert_plans_match_oracle(query, counts, heuristic, induced=True)

    def test_compile_plans_matches_table(self, library):
        query, counts = library

        class _Bitmap:
            def row_counts(self):
                return counts

        config = SigmoConfig(candidate_order="fewest-candidates", induced=True)
        first = compile_plans(query, _Bitmap(), config)
        again = compile_plans(query, _Bitmap(), config)
        fresh = build_plan_table(query, counts, induced=True)
        for table in (first, again):
            for a, b in zip(table.arrays(), fresh.arrays()):
                assert np.array_equal(a, b)
        # Each call wraps the memoized arrays in its own table.
        assert again is not first and again.order is first.order
        assert not first.order.flags.writeable

    def test_empty_query_in_batch_raises(self):
        q = CSRGO.from_graphs([path_graph([0]), LabeledGraph([])])
        with pytest.raises(ValueError, match="query graph 1 is empty"):
            build_plan_table(q)
