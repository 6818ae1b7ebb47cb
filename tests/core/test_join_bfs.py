"""The BFS-versus-DFS join trade-off (paper section 4.6) on the fused kernel.

The paper rejects a level-synchronous (BFS) join because it holds every
partial match of a level at once.  The fused frontier table builds the
same levels block by block, and reports both quantities: the rows it
built per depth (``level_rows``, what a BFS join of the same wave holds
at that level) and the bytes it really held at once.  Results must equal
the scalar stack-DFS join.
"""

import numpy as np
import pytest

from repro.accel import fused
from repro.chem.datasets import build_benchmark
from repro.core import join
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.filtering import IterativeFilter
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget, run_join
from repro.core.mapping import build_gmcr
from repro.graph.generators import path_graph, ring_graph
from repro.graph.labeled_graph import LabeledGraph
from tests.conftest import random_case


def run_both(queries, data, iterations=3, mode=FIND_ALL, budget=None):
    """(scalar DFS, fused table) join results of one batch."""
    config = SigmoConfig(refinement_iterations=iterations)
    q = CSRGO.from_graphs(queries)
    d = CSRGO.from_graphs(data)
    fr = IterativeFilter(q, d, config).run()
    return tuple(
        run_join(
            q,
            d,
            fr.bitmap,
            build_gmcr(fr.bitmap, q, d),
            config.with_backend(backend),
            mode,
            budget=budget,
        )
        for backend in ("dfs", "fused")
    )


def capture_waves(monkeypatch):
    """Collect every fused wave's (plan, outcome) as ``run_join`` runs it."""
    waves = []
    original = join.fused_join

    def recording(view, fplan, find_first, acc, **kwargs):
        out = original(view, fplan, find_first, acc, **kwargs)
        waves.append((fplan, acc))
        return out

    monkeypatch.setattr(join, "fused_join", recording)
    return waves


class TestEquivalence:
    def test_simple_counts_agree(self):
        dfs, bfs = run_both(
            [path_graph([1, 2])], [ring_graph(6, [1, 1, 2, 1, 1, 2])]
        )
        assert dfs.total_matches == bfs.total_matches == 4

    def test_per_pair_counts_agree(self):
        queries = [path_graph([1, 2]), ring_graph(3, [1, 1, 1])]
        data = [ring_graph(6, [1, 1, 2, 1, 1, 2]), ring_graph(3, [1, 1, 1])]
        dfs, bfs = run_both(queries, data)
        np.testing.assert_array_equal(dfs.pair_matches, bfs.pair_matches)
        assert bfs.backend_pairs["fused"] == bfs.stats.pairs_joined > 0

    def test_random_cases_agree(self, rng):
        for _ in range(15):
            q, d, _ = random_case(rng)
            dfs, bfs = run_both([q], [d], iterations=2)
            assert dfs.total_matches == bfs.total_matches


class TestMemoryBehaviour:
    def test_bfs_materializes_partial_tables(self):
        # unlabeled-ish ring: many partial matches per level
        dfs, bfs = run_both([path_graph([1, 1, 1, 1])], [ring_graph(12, [1] * 12)])
        assert bfs.fused_level_table_bytes > dfs.total_matches
        # The last level alone holds every match: slot column + 4 nodes.
        assert bfs.fused_level_table_bytes >= dfs.total_matches * 5 * 8
        assert bfs.fused_peak_table_bytes > 0

    def test_peak_grows_with_ambiguity(self):
        # more identical labels -> larger tables (the exponential growth
        # the paper cites for rejecting BFS)
        _, small = run_both([path_graph([1, 1, 1])], [ring_graph(6, [1] * 6)])
        _, large = run_both([path_graph([1, 1, 1])], [ring_graph(14, [1] * 14)])
        assert large.fused_level_table_bytes > small.fused_level_table_bytes

    def test_blocked_peak_stays_below_level_table(self):
        # A level wider than one block: the kernel holds a fraction of it.
        n = 3 * fused.FUSED_BLOCK_ELEMS // 4
        q = CSRGO.from_graphs([path_graph([1] * 6)])
        d = CSRGO.from_graphs([ring_graph(n, [1] * n)])
        config = SigmoConfig(refinement_iterations=1, join_backend="fused")
        bitmap = IterativeFilter(q, d, config).run().bitmap
        bfs = run_join(q, d, bitmap, build_gmcr(bitmap, q, d), config)
        assert bfs.total_matches == 2 * n  # each start node, both directions
        assert 0 < bfs.fused_peak_table_bytes < bfs.fused_level_table_bytes
        # Blocks hold b rows of two neighbours each.  The root's first
        # block grows 2b depth-1 rows, split in two blocks; each row then
        # extends by one node per depth.  The peak is the last extension of
        # that first chain: the root's other block (b/2 rows x 2 columns)
        # and the other depth-1 block (b x 3) wait on the stack while
        # b x 6 rows grow into b x 7.
        b = fused.FUSED_BLOCK_ELEMS // 2
        assert bfs.fused_peak_table_bytes == 8 * b * (1 + 3 + 6 + 7)


class TestLevelRows:
    @pytest.mark.parametrize("mode", [FIND_ALL, FIND_FIRST])
    def test_level_rows_sum_to_multi_node_pushes(self, mode, monkeypatch):
        # Every row the kernel builds is one push of a multi-node slot;
        # single-node slots build no table.
        ds = build_benchmark(scale=1.0, n_queries=12, n_data_graphs=20, seed=4)
        queries = ds.queries + [LabeledGraph([int(ds.data[0].labels[0])], [])]
        waves = capture_waves(monkeypatch)
        run_both(queries, ds.data, mode=mode)
        assert waves
        for fplan, acc in waves:
            multi = fplan.depth_counts > 1
            assert sum(acc.level_rows) == int(acc.pushes[multi].sum())
            assert len(acc.level_rows) == fplan.max_depth

    def test_join_result_takes_max_over_waves(self, monkeypatch):
        # A push budget sizes the fused waves lazily, so one run spans many.
        ds = build_benchmark(scale=1.0, n_queries=30, n_data_graphs=40, seed=4)
        waves = capture_waves(monkeypatch)
        dfs, bfs = run_both(ds.queries, ds.data, budget=JoinBudget(max_pushes=10**9))
        pushes = bfs.stats.stack_pushes
        waves.clear()
        dfs, bfs = run_both(ds.queries, ds.data, budget=JoinBudget(max_pushes=pushes + 1))
        assert not bfs.truncated and bfs.total_matches == dfs.total_matches
        assert len(waves) == bfs.fused_tables > 1
        assert bfs.fused_peak_table_bytes == max(a.peak_table_bytes for _, a in waves)
        assert bfs.fused_level_table_bytes == max(
            max(r * (d + 2) * 8 for d, r in enumerate(a.level_rows)) for _, a in waves
        )
