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
then a population pass — all three as whole-batch array operations over
the per-(query node, data graph) candidate counts, read straight from the
bitmap words (:func:`repro.core.candidates.segment_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.core.candidates import CandidateBitmap, segment_counts
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


def viable_query_matrix(
    bitmap: CandidateBitmap, query: CSRGO, data: CSRGO
) -> np.ndarray:
    """Viability matrix ``bool[n_query_graphs, n_data_graphs]``.

    Query graph ``q`` is viable for data graph ``d`` iff *all* its nodes
    have candidates inside ``d`` — "discarding any query graph that
    contains nodes with zero candidates in that data graph" (section 4.5).
    """
    return viable_from_counts(segment_counts(bitmap, data.graph_offsets), query)


def viable_from_counts(counts: np.ndarray, query: CSRGO) -> np.ndarray:
    """:func:`viable_query_matrix` from the ``segment_counts`` matrix.

    A running count of zero-candidate nodes along the query-node axis,
    differenced at the query graph offsets, counts each query graph's
    empty nodes per data graph; query graphs without nodes are never
    viable.
    """
    empty = counts == 0
    running = xp.zeros((query.n_nodes + 1, counts.shape[1]), dtype=xp.int32)
    running[1:] = xp.cumsum(empty, axis=0, dtype=xp.int32)
    offsets = xp.asarray(query.graph_offsets, dtype=xp.int64)
    has_nodes = (offsets[1:] > offsets[:-1])[:, None]
    return has_nodes & (running[offsets[1:]] == running[offsets[:-1]])


def live_count(
    bitmap: CandidateBitmap, query: CSRGO, data: CSRGO
) -> tuple[int, np.ndarray]:
    """Live candidate bits of ``bitmap``, with its viability matrix.

    A live bit is a candidate bit of a query node inside a data graph its
    query graph is viable for (:func:`viable_query_matrix`, returned as
    the second item); only live bits can reach the join.
    """
    counts = segment_counts(bitmap, data.graph_offsets)
    viable = viable_from_counts(counts, query)
    owner = xp.repeat(
        xp.arange(query.n_graphs, dtype=xp.int64), xp.diff(query.graph_offsets)
    )
    return int(counts[viable[owner]].sum()), viable


def build_gmcr(
    bitmap: CandidateBitmap,
    query: CSRGO,
    data: CSRGO,
    viable: np.ndarray | None = None,
) -> GMCR:
    """Stage 5 of the pipeline: construct the GMCR.

    The paper's two-kernel mapping phase on whole-batch arrays: the
    counting pass sums each data graph's viable query graphs
    (:func:`viable_query_matrix`), a host-side inclusive sum turns the
    sums into ``data_graph_offsets``, and the population pass is one
    ``nonzero`` over the transposed viability matrix, which lists the
    viable query graphs data graph after data graph, ascending.  A
    ``viable`` matrix already counted from ``bitmap`` (the filter's
    :func:`live_count` at its stop) replaces the counting pass.
    """
    if viable is None:
        viable = viable_query_matrix(bitmap, query, data)
    viable = viable.T  # (nd_graphs, nq_graphs)
    offsets = xp.zeros(data.n_graphs + 1, dtype=xp.int64)
    offsets[1:] = xp.cumsum(viable.sum(axis=1, dtype=xp.int64))
    indices = xp.nonzero(viable)[1].astype(xp.int32)
    matched = xp.zeros(indices.size, dtype=xp.bool_)
    return GMCR(offsets, indices, matched)
