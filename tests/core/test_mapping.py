"""Unit tests for the GMCR mapping phase."""

import numpy as np
import pytest

from repro.core.candidates import CandidateBitmap
from repro.core.csrgo import CSRGO
from repro.core.filtering import initialize_candidates
from repro.core.mapping import (
    GMCR,
    build_gmcr,
    query_node_has_candidate_per_graph,
    viable_query_matrix,
)
from repro.graph.generators import path_graph


@pytest.fixture
def setup():
    queries = [path_graph([1, 2]), path_graph([3, 3])]
    data = [path_graph([1, 2, 1]), path_graph([3, 3]), path_graph([1, 1])]
    q = CSRGO.from_graphs(queries)
    d = CSRGO.from_graphs(data)
    bitmap = initialize_candidates(q, d)
    return q, d, bitmap


class TestViability:
    def test_node_has_candidate_per_graph(self, setup):
        q, d, bitmap = setup
        m = query_node_has_candidate_per_graph(bitmap, d.graph_offsets)
        assert m.shape == (4, 3)
        # query node 0 (label 1) has candidates in graphs 0 and 2
        np.testing.assert_array_equal(m[0], [True, False, True])
        # query node 1 (label 2) only in graph 0
        np.testing.assert_array_equal(m[1], [True, False, False])

    def test_chunked_matches_unchunked(self, setup):
        q, d, bitmap = setup
        a = query_node_has_candidate_per_graph(bitmap, d.graph_offsets, chunk_rows=1)
        b = query_node_has_candidate_per_graph(bitmap, d.graph_offsets, chunk_rows=64)
        np.testing.assert_array_equal(a, b)

    def test_viable_query_matrix(self, setup):
        q, d, bitmap = setup
        v = viable_query_matrix(bitmap, q, d)
        # query 0 (C-O) viable only in data graph 0; query 1 (3-3) only in 1.
        np.testing.assert_array_equal(v, [[True, False, False], [False, True, False]])


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
