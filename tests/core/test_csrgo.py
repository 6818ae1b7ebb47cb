"""Unit tests for the CSR-GO representation."""

import numpy as np
import pytest

from repro.core.csrgo import CSRGO
from repro.graph.batch import GraphBatch
from repro.graph.generators import path_graph, ring_graph
from repro.graph.labeled_graph import LabeledGraph


@pytest.fixture
def csrgo():
    return CSRGO.from_graphs(
        [path_graph([0, 1], [3]), ring_graph(3, [2, 2, 2]), LabeledGraph([1])]
    )


class TestConstruction:
    def test_paper_figure3_layout(self):
        # Fig. 3: G0 = 5 nodes, G1 = 4 nodes; graph offsets [0, 5, 9].
        g0 = LabeledGraph([0] * 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (2, 4)])
        g1 = LabeledGraph([0] * 4, [(0, 1), (1, 2), (1, 3)])
        c = CSRGO.from_graphs([g0, g1])
        np.testing.assert_array_equal(c.graph_offsets, [0, 5, 9])
        assert c.row_offsets[0] == 0
        assert c.row_offsets[-1] == c.column_indices.size

    def test_sizes(self, csrgo):
        assert csrgo.n_graphs == 3
        assert csrgo.n_nodes == 6
        assert csrgo.n_edges == 4
        assert csrgo.n_adjacency == 8

    def test_empty_batch(self):
        c = CSRGO.from_batch(GraphBatch([]))
        assert c.n_graphs == 0 and c.n_nodes == 0

    def test_validation_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            CSRGO(
                np.array([1, 2]),
                np.array([0, 0]),
                np.empty(0, np.int32),
                np.array([0]),
            )

    def test_validation_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            CSRGO(
                np.array([0, 2]),
                np.array([0, 0, 0]),
                np.empty(0, np.int32),
                np.array([0]),
            )

    def test_validation_rejects_column_out_of_range(self):
        with pytest.raises(ValueError, match="column index"):
            CSRGO(
                np.array([0, 1]),
                np.array([0, 1]),
                np.array([5], dtype=np.int32),
                np.array([0]),
            )

    def test_validation_rejects_negative_labels(self):
        # Path 0-1-2 whose edge (0, 1) carries -2, the join's "no edge"
        # sentinel: the dense and binary-search probes would disagree.
        arrays = (
            np.array([0, 3]),
            np.array([0, 1, 3, 4]),
            np.array([1, 0, 2, 1], dtype=np.int32),
        )
        with pytest.raises(ValueError, match="edge labels"):
            CSRGO(*arrays, np.array([0, 0, 0]), np.array([-2, -2, 0, 0]))
        with pytest.raises(ValueError, match="node labels"):
            CSRGO(*arrays, np.array([0, -1, 0]), np.zeros(4, dtype=np.int32))
        assert CSRGO(*arrays, np.array([0, 0, 0]), np.array([2, 2, 0, 0])).n_edges == 2

    def test_validation_rejects_cross_graph_edges(self):
        # Graph 0 is 0(0) 1(1) 2(0) with edge 0-1; graph 1 is node 3(0),
        # joined to node 1 by a cross-graph edge.  Graph 0's per-graph
        # view would key that edge 1*3+3 — the key of edge (2, 0) — so the
        # DFS saw a label-0 edge that does not exist.
        offsets = np.array([0, 3, 4])
        with pytest.raises(ValueError, match="neighbour"):
            CSRGO(
                offsets,
                np.array([0, 1, 3, 3, 4]),
                np.array([1, 0, 3, 1], dtype=np.int32),
                np.array([0, 1, 0, 0]),
            )
        assert CSRGO(
            offsets,
            np.array([0, 1, 2, 2, 2]),
            np.array([1, 0], dtype=np.int32),
            np.array([0, 1, 0, 0]),
        ).n_edges == 1

    def test_validation_symmetry_without_int64_composites(self):
        # 50,000 nodes and a label near 2**31: the (key, label) composites
        # would overflow int64, so symmetry is checked by a lexsort.
        n, big = 50_000, 2**31 - 1
        row_offsets = np.concatenate([[0, 1, 2], np.full(n - 2, 2)])
        arrays = (np.array([0, n]), row_offsets, np.array([1, 0], dtype=np.int32))
        assert CSRGO(*arrays, np.zeros(n), np.array([big, big])).n_edges == 1
        with pytest.raises(ValueError, match="symmetric"):
            CSRGO(*arrays, np.zeros(n), np.array([big, big - 1]))

    @pytest.mark.parametrize(
        "row_offsets, columns, edge_labels, message",
        [
            # Row 1 lists its neighbours out of order.
            ([0, 1, 3, 4], [1, 2, 0, 1], [0, 0, 0, 0], "sorted"),
            # Edge 0-1 stored twice in row 0.
            ([0, 2, 4, 4], [1, 1, 0, 0], [0, 0, 0, 0], "duplicate"),
            # Edge 0->1 without its reverse.
            ([0, 1, 1, 1], [1], [0], "symmetric"),
            # Edge 0-1 carrying label 1 one way and label 2 the other.
            ([0, 1, 2, 2], [1, 0], [1, 2], "symmetric"),
        ],
    )
    def test_validation_rejects_malformed_adjacency(
        self, row_offsets, columns, edge_labels, message
    ):
        with pytest.raises(ValueError, match=message):
            CSRGO(
                np.array([0, 3]),
                np.array(row_offsets),
                np.array(columns, dtype=np.int32),
                np.zeros(3, dtype=np.int32),
                np.array(edge_labels),
            )


class TestNavigation:
    def test_graph_of_node_binary_search(self, csrgo):
        assert csrgo.graph_of_node(0) == 0
        assert csrgo.graph_of_node(2) == 1
        assert csrgo.graph_of_node(5) == 2

    def test_graph_of_node_vectorized(self, csrgo):
        np.testing.assert_array_equal(
            csrgo.graph_of_node(np.array([0, 3, 5])), [0, 1, 2]
        )

    def test_graph_of_node_out_of_range(self, csrgo):
        with pytest.raises(ValueError):
            csrgo.graph_of_node(6)

    def test_node_range(self, csrgo):
        assert csrgo.graph_node_range(1) == (2, 5)
        with pytest.raises(ValueError):
            csrgo.graph_node_range(9)

    def test_graph_n_nodes(self, csrgo):
        np.testing.assert_array_equal(csrgo.graph_n_nodes(), [2, 3, 1])
        assert csrgo.graph_n_nodes(1) == 3

    def test_neighbors_are_global_ids(self, csrgo):
        np.testing.assert_array_equal(csrgo.neighbors(2), [3, 4])

    def test_degrees(self, csrgo):
        np.testing.assert_array_equal(csrgo.degrees(), [1, 1, 2, 2, 2, 0])

    def test_has_edge_and_label(self, csrgo):
        assert csrgo.has_edge(0, 1)
        assert csrgo.edge_label(0, 1) == 3
        assert not csrgo.has_edge(1, 2)
        with pytest.raises(KeyError):
            csrgo.edge_label(1, 2)

    def test_n_labels(self, csrgo):
        assert csrgo.n_labels == 3


class TestExtraction:
    def test_extract_graph_roundtrip(self, csrgo):
        g = csrgo.extract_graph(1)
        assert g == ring_graph(3, [2, 2, 2])

    def test_extract_preserves_edge_labels(self):
        orig = path_graph([0, 1, 0], [7, 9])
        c = CSRGO.from_graphs([orig])
        assert c.extract_graph(0) == orig

    def test_nbytes_positive(self, csrgo):
        assert csrgo.nbytes() > 0
