"""The whole-batch fused frontier table: parity, budgets, packing, reuse.

Seeded property-style sweeps assert the fused backend is bitwise-equal to
the scalar DFS reference in Find All (match sets, embeddings and their
order, every ``JoinStats`` counter, budget truncation and resume tokens)
and result-equal in Find First (the first embedding is the DFS-first
one).  Packing order inside the table and wave boundaries are shape-only:
reordering slots must not change a single output bit.
"""

import threading

import numpy as np
import pytest

from repro.accel import fused
from repro.accel.fused import (
    FUSED_BLOCK_ELEMS,
    _block_starts,
    build_fused_plan,
)
from repro.accel.local_view import batch_view_cache
from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.filtering import IterativeFilter
from repro.core import join
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget, compile_plans
from repro.pipeline.session import MatcherSession
from tests.accel.test_parity import (
    _embeddings,
    _run,
    assert_find_all_parity,
)

pytestmark = pytest.mark.perf_accel

SEEDS = [0, 1, 2, 3]


def _ascending_order(estimates):
    """Packing order that puts the cheapest pairs first (stable)."""
    return np.argsort(np.asarray(estimates, dtype=np.int64), kind="stable")


class TestFusedFindAllParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_equal_to_dfs(self, seed):
        ds = build_benchmark(
            scale=1.0, n_queries=16, n_data_graphs=40, seed=seed
        )
        ra = _run(ds.queries, ds.data, "dfs")
        rf = _run(ds.queries, ds.data, "fused")
        assert_find_all_parity(ra, rf)

    def test_induced_mode_parity(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=5)
        ra = _run(ds.queries, ds.data, "dfs", induced=True)
        rf = _run(ds.queries, ds.data, "fused", induced=True)
        assert_find_all_parity(ra, rf)

    def test_record_cap_truncation_parity(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=2)
        ra = _run(ds.queries, ds.data, "dfs", max_embeddings_recorded=7)
        rf = _run(ds.queries, ds.data, "fused", max_embeddings_recorded=7)
        assert len(rf.join_result.embeddings) == 7
        assert _embeddings(ra) == _embeddings(rf)

    def test_one_table_carries_every_pair(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=0)
        rf = _run(ds.queries, ds.data, "fused")
        jr = rf.join_result
        assert jr.fused_tables == 1
        assert sum(jr.fused_pairs_per_table) == jr.backend_pairs["fused"]
        assert jr.backend_visits["fused"] == jr.stats.candidate_visits


class TestFusedFindFirst:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_embedding_is_dfs_first(self, seed):
        ds = build_benchmark(
            scale=1.0, n_queries=16, n_data_graphs=40, seed=seed
        )
        ra = _run(ds.queries, ds.data, "dfs", mode=FIND_FIRST)
        rf = _run(ds.queries, ds.data, "fused", mode=FIND_FIRST)
        assert ra.total_matches == rf.total_matches
        assert np.array_equal(
            ra.join_result.pair_matches, rf.join_result.pair_matches
        )
        assert _embeddings(ra) == _embeddings(rf)

    def test_early_exit_depths_recorded(self):
        # Retirement fires when a pair matches while it still has stacked
        # frontier rows: a label-uniform ring gives a path query frontiers
        # whose neighbour elements (two per row) span more than one
        # block, so the first match retires the rest.
        from repro.graph.generators import path_graph, ring_graph

        n = FUSED_BLOCK_ELEMS // 2 + 400
        queries = [path_graph([1, 1, 1])]
        data = [ring_graph(n, [1] * n)]
        rf = _run(queries, data, "fused", mode=FIND_FIRST)
        depths = rf.join_result.fused_early_exit_depths
        assert depths
        assert all(d >= 1 for d in depths)

    def test_find_all_records_no_early_exits(self):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=0)
        rf = _run(ds.queries, ds.data, "fused")
        assert rf.join_result.fused_early_exit_depths == []


class TestFusedBudgets:
    @pytest.mark.parametrize(
        "budget",
        [
            JoinBudget(max_visits=500),
            JoinBudget(max_pushes=200),
            JoinBudget(max_matches=20),
        ],
    )
    def test_find_all_truncation_point_identical(self, budget):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=3)
        ra = _run(ds.queries, ds.data, "dfs", budget=budget)
        rf = _run(ds.queries, ds.data, "fused", budget=budget)
        ja, jf = ra.join_result, rf.join_result
        assert ja.truncated and jf.truncated
        assert ja.resume_pair == jf.resume_pair
        assert ja.truncate_reason == jf.truncate_reason
        assert_find_all_parity(ra, rf)

    @pytest.mark.parametrize("backend", ["fused", "auto"])
    def test_cross_engine_resume_completes(self, backend):
        # A token minted by a fused run resumes on any backend (and vice
        # versa) because truncation happens at GMCR pair boundaries.
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=3)
        full = _run(ds.queries, ds.data, "dfs")
        config = SigmoConfig(record_embeddings=True, join_backend=backend)
        engine = SigmoEngine(ds.queries, ds.data, config)
        part = engine.run(join_budget=JoinBudget(max_visits=500))
        assert part.truncated
        rest_engine = SigmoEngine(
            ds.queries, ds.data, SigmoConfig(record_embeddings=True, join_backend="dfs")
        )
        rest = rest_engine.run(join_start_pair=part.resume_pair)
        assert part.total_matches + rest.total_matches == full.total_matches

    @pytest.mark.parametrize("mode", [FIND_ALL, FIND_FIRST])
    def test_same_backend_resume_is_lossless(self, mode):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=1)
        config = SigmoConfig(join_backend="fused")
        full = SigmoEngine(ds.queries, ds.data, config).run(mode=mode)
        engine = SigmoEngine(ds.queries, ds.data, config)
        part = engine.run(mode=mode, join_budget=JoinBudget(max_visits=400))
        assert part.truncated
        rest = engine.run(mode=mode, join_start_pair=part.resume_pair)
        assert part.total_matches + rest.total_matches == full.total_matches
        assert sorted(part.matched_pairs() + rest.matched_pairs()) == sorted(
            full.matched_pairs()
        )

    def test_budget_splits_waves(self):
        # With a budget the fused queue runs in lazily sized waves sized
        # by the remaining headroom, never the whole batch in one table.
        # Waves are speculative: a wave may execute a few more pairs than
        # the fold commits before truncating.
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=3)
        full = _run(ds.queries, ds.data, "fused")
        rf = _run(ds.queries, ds.data, "fused", budget=JoinBudget(max_visits=500))
        jr = rf.join_result
        assert jr.fused_tables >= 1
        executed = sum(jr.fused_pairs_per_table)
        assert executed >= jr.backend_pairs["fused"]
        assert executed < full.join_result.backend_pairs["fused"]


class TestPackingInvariance:
    @pytest.mark.parametrize("mode", [FIND_ALL, FIND_FIRST])
    def test_table_order_never_changes_results(self, mode, monkeypatch):
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=2)
        baseline = _run(ds.queries, ds.data, "fused", mode=mode)
        packed = []

        def ascending(estimates):
            packed.append(len(estimates))
            return _ascending_order(estimates)

        monkeypatch.setattr(join, "packing_order", ascending)
        reordered = _run(ds.queries, ds.data, "fused", mode=mode)
        assert packed == reordered.join_result.fused_pairs_per_table
        assert _embeddings(baseline) == _embeddings(reordered)
        if mode == FIND_ALL:
            assert_find_all_parity(baseline, reordered)


class TestSessionReuse:
    def test_warm_session_reuses_batch_view(self, bench):
        session = MatcherSession(bench.queries)
        cache = batch_view_cache()
        r1 = session.match(bench.data)
        assert cache.stats.misses == 1
        r2 = session.match(bench.data)
        assert cache.stats.misses == 1  # warm path: no rebuild
        assert r1.total_matches == r2.total_matches

    def test_concurrent_matches_equal_sequential(self, bench):
        config = SigmoConfig(record_embeddings=True)
        expected = _run(bench.queries, bench.data, "fused")
        session = MatcherSession(bench.queries, config=config)
        results = [None] * 4
        errors = []

        def work(i):
            try:
                results[i] = session.match(bench.data)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for r in results:
            assert r is not None
            assert r.total_matches == expected.total_matches
            assert _embeddings(r) == _embeddings(expected)


# -- fused planning from the bitmap words ------------------------------------------


def _oracle_block_starts(counts, bound=FUSED_BLOCK_ELEMS):
    """The per-row greedy loop the cumsum/searchsorted version replaced."""
    starts = [0]
    running = 0
    for i, c in enumerate(counts.tolist()):
        if running and running + c > bound:
            starts.append(i)
            running = 0
        running += c
    return starts


class TestBlockStarts:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_counts(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(0, 60))
            counts = rng.integers(0, 3 * FUSED_BLOCK_ELEMS // 4, size=n)
            counts[rng.random(n) < 0.3] = 0
            got = _block_starts(counts, FUSED_BLOCK_ELEMS)
            assert got == _oracle_block_starts(counts)

    @pytest.mark.parametrize(
        "counts",
        [
            [],
            [0],
            [0, 0, 0],
            [FUSED_BLOCK_ELEMS + 5],
            [0, 0, FUSED_BLOCK_ELEMS + 5, 0, 3],
            [1, FUSED_BLOCK_ELEMS * 3, 0, 0, 2, FUSED_BLOCK_ELEMS + 1],
            [FUSED_BLOCK_ELEMS // 2, FUSED_BLOCK_ELEMS // 2, 1, 0],
            [FUSED_BLOCK_ELEMS, 0, FUSED_BLOCK_ELEMS, 1],
            [FUSED_BLOCK_ELEMS - 1, 1, 0, 1, FUSED_BLOCK_ELEMS - 1, 0],
        ],
    )
    def test_edge_cases(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        got = _block_starts(counts, FUSED_BLOCK_ELEMS)
        assert got == _oracle_block_starts(counts)

    def test_patched_bound_splits_tables_like_dfs(self, monkeypatch):
        # The split decision and the split itself must read the same live
        # bound, or a patched-small bound splits nothing and the same
        # table is pushed back forever.
        ds = build_benchmark(scale=1.0, n_queries=16, n_data_graphs=40, seed=0)
        ra = _run(ds.queries, ds.data, "dfs")
        wide = _run(ds.queries, ds.data, "fused")
        monkeypatch.setattr(fused, "FUSED_BLOCK_ELEMS", 16)
        small = _run(ds.queries, ds.data, "fused")
        assert_find_all_parity(ra, small)
        peak = small.join_result.fused_peak_table_bytes
        assert 0 < peak < wide.join_result.fused_peak_table_bytes

    def test_small_bounds(self):
        rng = np.random.default_rng(3)
        for bound in (1, 2, 5):
            counts = rng.integers(0, 4, size=40)
            assert _block_starts(counts, bound) == _oracle_block_starts(
                counts, bound
            )


def _oracle_fused_plan(slots):
    """Per-slot lists of the fused table's columns, from the scalar plans.

    Candidate lists are gathered only where the kernel crosses them:
    depth 0 and depths without a back-edge check.
    """
    columns = {k: [] for k in ("cand", "ck_depth", "ck_label", "bn_depth")}
    for plan, cand_lists in slots:
        for name, per_depth in (
            (
                "cand",
                [
                    [] if checks else a.tolist()
                    for a, checks in zip(cand_lists, plan.check_edges)
                ],
            ),
            ("ck_depth", [[c[0] for c in cs] for cs in plan.check_edges]),
            ("ck_label", [[c[1] for c in cs] for cs in plan.check_edges]),
            ("bn_depth", [list(b) for b in plan.forbidden]),
        ):
            columns[name].append(per_depth)
    return columns


def _unpack(flat, off, n_slots):
    return [flat[off[i] : off[i + 1]].tolist() for i in range(n_slots)]


class TestFusedPlanParity:
    @pytest.mark.parametrize("induced", [False, True])
    def test_columns_equal_per_slot_build(self, induced):
        ds = build_benchmark(scale=1.0, n_queries=30, n_data_graphs=25, seed=6)
        config = SigmoConfig(refinement_iterations=3, induced=induced)
        query = CSRGO.from_graphs(ds.queries)
        data = CSRGO.from_graphs(ds.data)
        bitmap = IterativeFilter(query, data, config).run().bitmap
        plans = compile_plans(query, bitmap, config)
        dense = bitmap.to_bool()
        rng = np.random.default_rng(0)
        qg = rng.integers(0, query.n_graphs, size=200)
        dg = rng.integers(0, data.n_graphs, size=200)
        fplan = build_fused_plan(qg, dg, plans, bitmap, data.graph_offsets)
        slots, nodes = [], []
        for q, d in zip(qg.tolist(), dg.tolist()):
            plan = plans[q]
            q_start, _ = query.graph_node_range(q)
            d_start, d_stop = data.graph_node_range(d)
            cands = []
            for local in plan.order.tolist():
                cands.append(np.flatnonzero(dense[q_start + local, d_start:d_stop]) + d_start)
            slots.append((plan, cands))
            nodes.append([q_start + local for local in plan.order.tolist()])
        expected = _oracle_fused_plan(slots)
        n = len(slots)
        assert fplan.depth_counts.tolist() == [p.n_nodes for p, _ in slots]
        assert fplan.max_depth == max(p.n_nodes for p, _ in slots)
        assert fplan.words is bitmap.words
        for depth in range(fplan.max_depth):
            live = [depth < p.n_nodes for p, _ in slots]
            assert fplan.cand_size[depth].tolist() == [
                cands[depth].size if ok else 0
                for ok, (_, cands) in zip(live, slots)
            ]
            assert [
                int(v) for v, ok in zip(fplan.query_nodes[depth], live) if ok
            ] == [ns[depth] for ns, ok in zip(nodes, live) if ok]
            got = {
                "cand": _unpack(fplan.cand_flat[depth], fplan.cand_off[depth], n),
                "ck_depth": _unpack(fplan.ck_depth[depth], fplan.ck_off[depth], n),
                "ck_label": _unpack(fplan.ck_label[depth], fplan.ck_off[depth], n),
                "bn_depth": _unpack(fplan.bn_depth[depth], fplan.bn_off[depth], n),
            }
            for name, per_slot in expected.items():
                want = [
                    cols[depth] if depth < len(cols) else []
                    for cols in per_slot
                ]
                assert got[name] == want, f"{name} at depth {depth}"
            for arr in (fplan.cand_flat[depth], fplan.ck_label[depth]):
                assert arr.dtype == np.int64

    def test_empty_slot_set(self):
        ds = build_benchmark(scale=1.0, n_queries=4, n_data_graphs=5, seed=1)
        query = CSRGO.from_graphs(ds.queries)
        data = CSRGO.from_graphs(ds.data)
        config = SigmoConfig()
        bitmap = IterativeFilter(query, data, config).run().bitmap
        fplan = build_fused_plan(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            compile_plans(query, bitmap, config),
            bitmap,
            data.graph_offsets,
        )
        assert fplan.n_slots == 0 and fplan.max_depth == 0
