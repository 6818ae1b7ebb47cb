"""Property-based tests for the extension modules (chunking,
fingerprints, the fused level-table join, wildcards)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.filtering import IterativeFilter
from repro.core.join import run_join
from repro.core.mapping import build_gmcr
from repro.graph.generators import random_connected_graph, random_subgraph_pattern
from repro.runtime import run_resilient

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def workloads(draw, n_data_max=6):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_data = draw(st.integers(2, n_data_max))
    data = [
        random_connected_graph(int(rng.integers(4, 12)), 3, 3, rng, 2)
        for _ in range(n_data)
    ]
    host = data[int(rng.integers(0, n_data))]
    query, _ = random_subgraph_pattern(host, int(rng.integers(2, 5)), rng)
    return [query], data


class TestChunkingProperties:
    @given(workloads(), st.integers(1, 4))
    @settings(**SETTINGS)
    def test_chunking_invariant(self, workload, chunk_size):
        queries, data = workload
        full = SigmoEngine(queries, data).run()
        chunked = run_resilient(queries, data, chunk_size)
        assert chunked.total_matches == full.total_matches


class TestBfsJoinProperties:
    @given(workloads(n_data_max=3))
    @settings(**SETTINGS)
    def test_bfs_equals_dfs(self, workload):
        """The fused table (levels built block by block) equals the DFS."""
        queries, data = workload
        config = SigmoConfig(refinement_iterations=2)
        q = CSRGO.from_graphs(queries)
        d = CSRGO.from_graphs(data)
        fr = IterativeFilter(q, d, config).run()
        gmcr_a = build_gmcr(fr.bitmap, q, d)
        gmcr_b = build_gmcr(fr.bitmap, q, d)
        dfs = run_join(q, d, fr.bitmap, gmcr_a, config.with_backend("dfs"))
        bfs = run_join(q, d, fr.bitmap, gmcr_b, config.with_backend("fused"))
        assert dfs.total_matches == bfs.total_matches
        np.testing.assert_array_equal(dfs.pair_matches, bfs.pair_matches)
        np.testing.assert_array_equal(dfs.pair_visits, bfs.pair_visits)
        assert dfs.stats == bfs.stats


class TestWildcardProperties:
    @given(workloads(n_data_max=3), st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_wildcarding_monotone(self, workload, seed):
        """Replacing a query node's label with the wildcard can only add
        matches (superset property)."""
        from repro.chem.smarts import WILDCARD_ATOM_LABEL, wildcard_config
        from repro.graph.labeled_graph import LabeledGraph

        (query,), data = workload
        rng = np.random.default_rng(seed)
        labels = query.labels.copy()
        labels[int(rng.integers(0, labels.size))] = WILDCARD_ATOM_LABEL
        wild = LabeledGraph(labels, query.edges, query.edge_labels)
        cfg = wildcard_config(refinement_iterations=3)
        base = SigmoEngine([query], data, cfg).run().total_matches
        wilded = SigmoEngine([wild], data, cfg).run().total_matches
        assert wilded >= base
