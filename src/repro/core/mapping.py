"""Mapping phase: the Graph Mapping Compressed Representation (GMCR).

After filtering, each data graph should only be joined against the query
graphs that can still match it (paper section 4.5).  A query graph ``q`` is
*viable* for data graph ``d`` iff every node of ``q`` retains at least one
candidate inside ``d``'s node range.

GMCR stores the viable pairs CSR-style:

* ``data_graph_offsets[d] .. data_graph_offsets[d+1]`` — the slice of
  ``query_graph_indices`` listing ``d``'s viable query graphs;
* ``matched`` — one boolean per entry, set by the join when a match is
  found (the Find First output).

Construction mirrors the paper's two kernels: a counting pass feeding a
prefix sum (done host-side here, like the paper's host-side inclusive sum),
then a population pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidateBitmap
from repro.core.csrgo import CSRGO


@dataclass
class GMCR:
    """Compressed data-graph -> query-graph mapping.

    Attributes
    ----------
    data_graph_offsets:
        ``int64[n_data_graphs + 1]`` prefix offsets into
        ``query_graph_indices``.
    query_graph_indices:
        ``int32[total_pairs]`` viable query-graph ids per data graph.
    matched:
        ``bool[total_pairs]`` join outcome per pair (Find First result).
    """

    data_graph_offsets: np.ndarray
    query_graph_indices: np.ndarray
    matched: np.ndarray

    @property
    def n_data_graphs(self) -> int:
        """Number of data graphs covered."""
        return self.data_graph_offsets.size - 1

    @property
    def n_pairs(self) -> int:
        """Total viable (data graph, query graph) pairs."""
        return int(self.query_graph_indices.size)

    def queries_of(self, data_graph: int) -> np.ndarray:
        """Viable query-graph ids of one data graph."""
        lo = self.data_graph_offsets[data_graph]
        hi = self.data_graph_offsets[data_graph + 1]
        return self.query_graph_indices[lo:hi]

    def pair_slice(self, data_graph: int) -> slice:
        """Slice into the pair arrays for one data graph."""
        return slice(
            int(self.data_graph_offsets[data_graph]),
            int(self.data_graph_offsets[data_graph + 1]),
        )

    def matched_pair_array(self) -> np.ndarray:
        """``int64[n, 2]`` ``(data_graph, query_graph)`` rows of the matched
        pairs, in pair order (so sorted by data graph)."""
        pairs = np.flatnonzero(self.matched)
        out = np.empty((pairs.size, 2), dtype=np.int64)
        out[:, 0] = np.searchsorted(self.data_graph_offsets, pairs, side="right") - 1
        out[:, 1] = self.query_graph_indices[pairs]
        return out

    def matched_pairs(self) -> list[tuple[int, int]]:
        """All ``(data_graph, query_graph)`` pairs flagged as matched."""
        return list(map(tuple, self.matched_pair_array().tolist()))

    def nbytes(self) -> int:
        """Storage footprint in bytes."""
        return (
            self.data_graph_offsets.nbytes
            + self.query_graph_indices.nbytes
            + self.matched.nbytes
        )


def query_node_has_candidate_per_graph(
    bitmap: CandidateBitmap,
    data_graph_offsets: np.ndarray,
    chunk_rows: int = 64,
) -> np.ndarray:
    """Boolean matrix: does query node ``i`` keep a candidate in data graph ``g``?

    Processes the bitmap ``chunk_rows`` query nodes at a time so the dense
    intermediate stays small even at full (2.7 M data node) scale.
    """
    offsets = np.asarray(data_graph_offsets, dtype=np.int64)
    n_graphs = offsets.size - 1
    nq = bitmap.n_query_nodes
    out = np.zeros((nq, n_graphs), dtype=bool)
    if n_graphs == 0 or nq == 0:
        return out
    starts = offsets[:-1]
    for row0 in range(0, nq, chunk_rows):
        row1 = min(row0 + chunk_rows, nq)
        from repro.utils.bitops import unpack_bitmap_rows

        dense = unpack_bitmap_rows(
            bitmap.words[row0:row1], bitmap.n_data_nodes, bitmap.word_bits
        )
        # Segment ORs via reduceat on integer view (any = sum > 0).
        sums = np.add.reduceat(dense.astype(np.int32), starts, axis=1)
        out[row0:row1] = sums > 0
    return out


def viable_query_matrix(
    bitmap: CandidateBitmap, query: CSRGO, data: CSRGO
) -> np.ndarray:
    """Viability matrix ``bool[n_query_graphs, n_data_graphs]``.

    Query graph ``q`` is viable for data graph ``d`` iff *all* its nodes
    have candidates inside ``d`` — "discarding any query graph that
    contains nodes with zero candidates in that data graph" (section 4.5).
    """
    node_has = query_node_has_candidate_per_graph(bitmap, data.graph_offsets)
    n_qgraphs = query.n_graphs
    out = np.zeros((n_qgraphs, data.n_graphs), dtype=bool)
    for qg in range(n_qgraphs):
        lo, hi = query.graph_node_range(qg)
        if hi > lo:
            out[qg] = node_has[lo:hi].all(axis=0)
    return out


def build_gmcr(bitmap: CandidateBitmap, query: CSRGO, data: CSRGO) -> GMCR:
    """Stage 5 of the pipeline: construct the GMCR.

    Counting pass -> prefix sum -> population pass, as in the paper's
    two-kernel mapping phase.
    """
    viable = viable_query_matrix(bitmap, query, data)  # (nq_graphs, nd_graphs)
    per_data = viable.sum(axis=0).astype(np.int64)  # counting pass
    offsets = np.zeros(data.n_graphs + 1, dtype=np.int64)
    np.cumsum(per_data, out=offsets[1:])  # host-side inclusive sum
    indices = np.empty(int(offsets[-1]), dtype=np.int32)
    for d in range(data.n_graphs):  # population pass
        qids = np.nonzero(viable[:, d])[0]
        indices[offsets[d] : offsets[d + 1]] = qids
    matched = np.zeros(indices.size, dtype=bool)
    return GMCR(offsets, indices, matched)
