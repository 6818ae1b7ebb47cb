"""Unit tests for the GMCR mapping phase."""

import numpy as np
import pytest

from repro.core.candidates import CandidateBitmap, segment_counts
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.filtering import initialize_candidates
from repro.core.join import FIND_ALL, FIND_FIRST
from repro.core.mapping import GMCR, build_gmcr, viable_query_matrix
from repro.graph.generators import path_graph, ring_graph
from repro.graph.labeled_graph import LabeledGraph


@pytest.fixture
def setup():
    queries = [path_graph([1, 2]), path_graph([3, 3])]
    data = [path_graph([1, 2, 1]), path_graph([3, 3]), path_graph([1, 1])]
    q = CSRGO.from_graphs(queries)
    d = CSRGO.from_graphs(data)
    bitmap = initialize_candidates(q, d)
    return q, d, bitmap


def _node_has_oracle(bitmap, graph_offsets):
    """Dense oracle: does query node ``i`` keep a candidate in graph ``g``?"""
    dense = bitmap.to_bool()
    return np.array(
        [
            [dense[i, lo:hi].any() for lo, hi in zip(graph_offsets[:-1], graph_offsets[1:])]
            for i in range(dense.shape[0])
        ],
        dtype=bool,
    ).reshape(dense.shape[0], graph_offsets.size - 1)


def _viable_oracle(bitmap, q, d):
    """Per-(query graph, data graph) loop over the dense node-has matrix."""
    node_has = _node_has_oracle(bitmap, d.graph_offsets)
    out = np.zeros((q.n_graphs, d.n_graphs), dtype=bool)
    for qg in range(q.n_graphs):
        lo, hi = q.graph_node_range(qg)
        if hi > lo:
            out[qg] = node_has[lo:hi].all(axis=0)
    return out


class _Offsets:
    """The CSR-GO fields the mapping phase reads: graph node offsets."""

    def __init__(self, offsets):
        self.graph_offsets = np.asarray(offsets, dtype=np.int64)
        self.n_graphs = self.graph_offsets.size - 1
        self.n_nodes = int(self.graph_offsets[-1])

    def graph_node_range(self, g):
        return int(self.graph_offsets[g]), int(self.graph_offsets[g + 1])


class TestViability:
    def test_node_has_candidate_per_graph(self, setup):
        q, d, bitmap = setup
        m = segment_counts(bitmap, d.graph_offsets) > 0
        assert m.shape == (4, 3)
        # query node 0 (label 1) has candidates in graphs 0 and 2
        np.testing.assert_array_equal(m[0], [True, False, True])
        # query node 1 (label 2) only in graph 0
        np.testing.assert_array_equal(m[1], [True, False, False])
        np.testing.assert_array_equal(m, _node_has_oracle(bitmap, d.graph_offsets))

    def test_chunked_matches_unchunked(self, setup):
        # Point queries over any subset of (node, graph) cells equal the
        # whole matrix.
        q, d, bitmap = setup
        full = segment_counts(bitmap, d.graph_offsets)
        rows, graphs = np.indices(full.shape)
        for lo in range(full.shape[0]):
            got = segment_counts(bitmap, d.graph_offsets, rows[lo:], graphs[lo:])
            np.testing.assert_array_equal(got, full[lo:])

    def test_viable_query_matrix(self, setup):
        q, d, bitmap = setup
        v = viable_query_matrix(bitmap, q, d)
        # query 0 (C-O) viable only in data graph 0; query 1 (3-3) only in 1.
        np.testing.assert_array_equal(v, [[True, False, False], [False, True, False]])

    def test_viable_equals_per_graph_loop(self, rng):
        # Random bitmaps over random node splits, zero-node graphs included
        # on both sides.
        for _ in range(30):
            q_sizes = rng.integers(0, 4, size=int(rng.integers(1, 6)))
            d_sizes = rng.integers(0, 6, size=int(rng.integers(1, 9)))
            q_off = np.concatenate([[0], np.cumsum(q_sizes)])
            d_off = np.concatenate([[0], np.cumsum(d_sizes)])
            dense = rng.random((int(q_off[-1]), int(d_off[-1]))) < 0.5
            bitmap = CandidateBitmap.from_bool(dense, int(rng.choice([8, 16, 32, 64])))
            q = _Offsets(q_off)
            d = _Offsets(d_off)
            np.testing.assert_array_equal(
                viable_query_matrix(bitmap, q, d), _viable_oracle(bitmap, q, d)
            )
            gmcr = build_gmcr(bitmap, q, d)
            viable = _viable_oracle(bitmap, q, d)
            want = [np.flatnonzero(viable[:, g]).tolist() for g in range(d.n_graphs)]
            assert [gmcr.queries_of(g).tolist() for g in range(d.n_graphs)] == want
            assert gmcr.query_graph_indices.dtype == np.int32


def _empty_graph():
    return LabeledGraph(np.zeros(0, dtype=np.int64), [])


class TestZeroNodeDataGraphs:
    """A data graph without nodes maps to no query graph, wherever it sits."""

    QUERY = [path_graph([1, 1])]
    RING = ring_graph(3, [1, 1, 1])

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("mode", [FIND_ALL, FIND_FIRST])
    def test_gmcr_and_matches(self, position, mode):
        data = [self.RING, self.RING]
        data.insert(position, _empty_graph())
        config = SigmoConfig(record_embeddings=True)
        got = SigmoEngine(self.QUERY, data, config).run(mode=mode)
        ref = SigmoEngine(self.QUERY, data, config.with_backend("dfs")).run(mode=mode)
        assert got.gmcr.n_pairs == 2
        assert got.gmcr.queries_of(position).size == 0
        rings = [g for g in range(3) if g != position]
        assert [got.gmcr.queries_of(g).tolist() for g in rings] == [[0], [0]]
        np.testing.assert_array_equal(got.gmcr.query_graph_indices, ref.gmcr.query_graph_indices)
        np.testing.assert_array_equal(got.join_result.pair_matches, ref.join_result.pair_matches)
        assert got.total_matches == ref.total_matches == (12 if mode == FIND_ALL else 2)
        assert [(d, q, m.tolist()) for d, q, m in got.join_result.embeddings] == [
            (d, q, m.tolist()) for d, q, m in ref.join_result.embeddings
        ]

    def test_empty_query_graph_still_raises(self):
        with pytest.raises(ValueError, match="empty"):
            SigmoEngine([path_graph([1, 1]), _empty_graph()], [self.RING]).run()


class TestGMCR:
    def test_structure(self, setup):
        q, d, bitmap = setup
        gmcr = build_gmcr(bitmap, q, d)
        np.testing.assert_array_equal(gmcr.data_graph_offsets, [0, 1, 2, 2])
        np.testing.assert_array_equal(gmcr.query_graph_indices, [0, 1])
        assert not gmcr.matched.any()
        assert gmcr.n_pairs == 2
        assert gmcr.n_data_graphs == 3

    def test_queries_of(self, setup):
        q, d, bitmap = setup
        gmcr = build_gmcr(bitmap, q, d)
        np.testing.assert_array_equal(gmcr.queries_of(0), [0])
        assert gmcr.queries_of(2).size == 0

    def test_matched_pairs(self, setup):
        q, d, bitmap = setup
        gmcr = build_gmcr(bitmap, q, d)
        gmcr.matched[1] = True
        assert gmcr.matched_pairs() == [(1, 1)]

    def test_matched_pairs_equal_per_graph_loop(self):
        # Random GMCRs, empty data graphs included: the vectorized rows
        # equal the per-graph scan they replaced, in the same order.
        rng = np.random.default_rng(11)
        for _ in range(20):
            sizes = rng.integers(0, 5, size=int(rng.integers(1, 12)))
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            gmcr = GMCR(
                offsets,
                rng.integers(0, 9, size=int(offsets[-1])).astype(np.int32),
                rng.random(int(offsets[-1])) < 0.5,
            )
            expected = [
                (d, int(q))
                for d in range(gmcr.n_data_graphs)
                for q, m in zip(
                    gmcr.query_graph_indices[gmcr.pair_slice(d)],
                    gmcr.matched[gmcr.pair_slice(d)],
                )
                if m
            ]
            got = gmcr.matched_pairs()
            assert got == expected
            assert all(type(v) is int for pair in got for v in pair)
            assert gmcr.matched_pair_array().tolist() == [list(p) for p in expected]

    def test_nbytes(self, setup):
        q, d, bitmap = setup
        assert build_gmcr(bitmap, q, d).nbytes() > 0

    def test_empty_bitmap_maps_nothing(self, setup):
        q, d, _ = setup
        empty = CandidateBitmap(q.n_nodes, d.n_nodes)
        gmcr = build_gmcr(empty, q, d)
        assert gmcr.n_pairs == 0
