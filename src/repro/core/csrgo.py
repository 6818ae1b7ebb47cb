"""CSR-GO: Compressed Sparse Row with Graph Offsets (paper section 4.1).

Classic CSR stores one graph as ``row_offsets`` + ``column_indices``.
CSR-GO adds a third array, ``graph_offsets``, of length ``n_graphs + 1``:
entry ``g`` points at the first node of graph ``g`` in the row-offsets
space, exactly like row offsets point at adjacency lists.  This lets a
whole batch of disconnected molecules live in one structure without losing
component boundaries, and lets a work-item assigned to a graph find its
node/adjacency range with one or two indexed loads (or, given a bare node
id, a binary search over ``graph_offsets``).

This module stores node labels alongside the structure and keeps per-slot
edge labels (bond orders) so the join can check them without touching the
original Python graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.batch import GraphBatch
from repro.graph.labeled_graph import LabeledGraph


class CSRGO:
    """Batched graph storage: CSR plus a graph-offsets layer.

    Attributes
    ----------
    graph_offsets:
        ``int64[n_graphs + 1]`` — global node id where each graph starts.
    row_offsets:
        ``int64[total_nodes + 1]`` — adjacency slice per global node.
    column_indices:
        ``int32[2 * total_edges]`` — neighbor global node ids, sorted within
        each adjacency list.
    labels:
        ``int32[total_nodes]`` — node labels in global id order.
    adj_edge_labels:
        ``int32[2 * total_edges]`` — edge label per adjacency slot, parallel
        to ``column_indices``.

    Notes
    -----
    Instances are built with :meth:`from_batch` / :meth:`from_graphs`; the
    constructor takes the raw arrays for deserialization.
    """

    __slots__ = (
        "graph_offsets",
        "row_offsets",
        "column_indices",
        "labels",
        "adj_edge_labels",
        "_content_hash",
        "__weakref__",
    )

    def __init__(
        self,
        graph_offsets: np.ndarray,
        row_offsets: np.ndarray,
        column_indices: np.ndarray,
        labels: np.ndarray,
        adj_edge_labels: np.ndarray | None = None,
    ) -> None:
        self.graph_offsets = np.ascontiguousarray(graph_offsets, dtype=np.int64)
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.column_indices = np.ascontiguousarray(column_indices, dtype=np.int32)
        self.labels = np.ascontiguousarray(labels, dtype=np.int32)
        if adj_edge_labels is None:
            adj_edge_labels = np.zeros(self.column_indices.size, dtype=np.int32)
        self.adj_edge_labels = np.ascontiguousarray(adj_edge_labels, dtype=np.int32)
        self._content_hash: str | None = None
        self._validate()

    def _validate(self) -> None:
        if self.graph_offsets.ndim != 1 or self.graph_offsets.size < 1:
            raise ValueError("graph_offsets must be 1-D with length >= 1")
        if self.graph_offsets[0] != 0:
            raise ValueError("graph_offsets must start at 0")
        if np.any(np.diff(self.graph_offsets) < 0):
            raise ValueError("graph_offsets must be non-decreasing")
        n_nodes = int(self.graph_offsets[-1])
        if self.row_offsets.size != n_nodes + 1:
            raise ValueError(
                f"row_offsets length {self.row_offsets.size} != total nodes + 1 "
                f"({n_nodes + 1})"
            )
        if self.labels.size != n_nodes:
            raise ValueError("labels length must equal total node count")
        if self.row_offsets[0] != 0 or np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be a non-decreasing prefix sum from 0")
        if self.column_indices.size != int(self.row_offsets[-1]):
            raise ValueError("column_indices length must match row_offsets[-1]")
        if self.adj_edge_labels.size != self.column_indices.size:
            raise ValueError("adj_edge_labels must parallel column_indices")
        if self.column_indices.size and (
            self.column_indices.min() < 0 or self.column_indices.max() >= n_nodes
        ):
            raise ValueError("column index out of range")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_batch(cls, batch: GraphBatch) -> "CSRGO":
        """Convert a :class:`GraphBatch` (pipeline stage 1, paper Fig. 2)."""
        n_graphs = batch.n_graphs
        graph_offsets = batch.node_offsets.astype(np.int64)
        total_nodes = batch.total_nodes
        row_offsets = np.zeros(total_nodes + 1, dtype=np.int64)
        col_chunks: list[np.ndarray] = []
        lab_chunks: list[np.ndarray] = []
        for g_idx in range(n_graphs):
            g = batch[g_idx]
            base = graph_offsets[g_idx]
            row_offsets[base + 1 : base + g.n_nodes + 1] = np.diff(g.indptr)
            if g.indices.size:
                col_chunks.append(g.indices.astype(np.int64) + base)
                lab_chunks.append(g.edge_labels[g.edge_ids])
        np.cumsum(row_offsets, out=row_offsets)
        column_indices = (
            np.concatenate(col_chunks).astype(np.int32)
            if col_chunks
            else np.empty(0, dtype=np.int32)
        )
        adj_edge_labels = (
            np.concatenate(lab_chunks) if lab_chunks else np.empty(0, dtype=np.int32)
        )
        return cls(
            graph_offsets,
            row_offsets,
            column_indices,
            batch.merged_labels,
            adj_edge_labels,
        )

    @classmethod
    def from_graphs(cls, graphs) -> "CSRGO":
        """Convenience: build from an iterable of :class:`LabeledGraph`."""
        return cls.from_batch(GraphBatch(graphs))

    # -- sizes -----------------------------------------------------------------

    @property
    def n_graphs(self) -> int:
        """Number of graphs in the batch."""
        return self.graph_offsets.size - 1

    @property
    def n_nodes(self) -> int:
        """Total node count across all graphs."""
        return int(self.graph_offsets[-1])

    @property
    def n_adjacency(self) -> int:
        """Total adjacency slots (2x undirected edge count)."""
        return self.column_indices.size

    @property
    def n_edges(self) -> int:
        """Total undirected edge count."""
        return self.n_adjacency // 2

    @property
    def n_labels(self) -> int:
        """Size of the label vocabulary implied by the stored labels."""
        return int(self.labels.max()) + 1 if self.labels.size else 0

    # -- navigation --------------------------------------------------------------

    def graph_of_node(self, node: int | np.ndarray) -> int | np.ndarray:
        """Graph index owning ``node`` via binary search over graph offsets.

        Accepts scalars or arrays (vectorized searchsorted).
        """
        result = np.searchsorted(self.graph_offsets, node, side="right") - 1
        if np.isscalar(node) or np.ndim(node) == 0:
            n = int(node)
            if not 0 <= n < self.n_nodes:
                raise ValueError(f"node {n} out of range")
            return int(result)
        return result

    def graph_node_range(self, graph_index: int) -> tuple[int, int]:
        """Half-open global node range of one graph."""
        if not 0 <= graph_index < self.n_graphs:
            raise ValueError(f"graph index {graph_index} out of range")
        return (
            int(self.graph_offsets[graph_index]),
            int(self.graph_offsets[graph_index + 1]),
        )

    def graph_n_nodes(self, graph_index: int | None = None) -> np.ndarray | int:
        """Node count per graph, or of one graph."""
        sizes = np.diff(self.graph_offsets)
        if graph_index is None:
            return sizes
        return int(sizes[graph_index])

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor global ids of ``node``."""
        return self.column_indices[self.row_offsets[node] : self.row_offsets[node + 1]]

    def neighbor_edge_labels(self, node: int) -> np.ndarray:
        """Edge labels parallel to :meth:`neighbors`."""
        return self.adj_edge_labels[
            self.row_offsets[node] : self.row_offsets[node + 1]
        ]

    def degrees(self) -> np.ndarray:
        """Degree of every global node."""
        return np.diff(self.row_offsets)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether global nodes ``u`` and ``v`` are adjacent."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def edge_label(self, u: int, v: int) -> int:
        """Label of the edge between global nodes ``u`` and ``v``."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        if pos >= nbrs.size or nbrs[pos] != v:
            raise KeyError(f"no edge ({u}, {v})")
        return int(self.adj_edge_labels[int(self.row_offsets[u]) + int(pos)])

    # -- identity ----------------------------------------------------------------

    def content_hash(self) -> str:
        """SHA-256 over the five arrays — the batch's *content identity*.

        Computed once and cached on the instance (the arrays are treated
        as immutable after construction, which every pipeline stage
        respects).  Accelerator-layer caches (:mod:`repro.accel.memo`)
        key on this hash so logically identical batches — rebuilt across
        chunks, resilient re-runs, or iteration sweeps — share cached
        local views, signatures and query plans.
        """
        if self._content_hash is None:
            import hashlib

            h = hashlib.sha256()
            for arr in (
                self.graph_offsets,
                self.row_offsets,
                self.column_indices,
                self.labels,
                self.adj_edge_labels,
            ):
                h.update(arr.tobytes())
            self._content_hash = h.hexdigest()
        return self._content_hash

    def slice_graphs(self, start_graph: int, stop_graph: int) -> "CSRGO":
        """Copy of the contiguous graph range ``[start_graph, stop_graph)``.

        The result is bitwise identical to :meth:`from_graphs` over the
        same member graphs; the chunked and shared-memory drivers use it
        to carve per-chunk batches out of one converted batch without
        re-running the per-graph Python conversion (and, for shared
        memory, without retaining views into the shared buffers).
        """
        if not 0 <= start_graph <= stop_graph <= self.n_graphs:
            raise ValueError(
                f"graph range [{start_graph}, {stop_graph}) out of "
                f"[0, {self.n_graphs}]"
            )
        node_lo = int(self.graph_offsets[start_graph])
        node_hi = int(self.graph_offsets[stop_graph])
        adj_lo = int(self.row_offsets[node_lo])
        adj_hi = int(self.row_offsets[node_hi])
        return CSRGO(
            self.graph_offsets[start_graph : stop_graph + 1] - node_lo,
            self.row_offsets[node_lo : node_hi + 1] - adj_lo,
            self.column_indices[adj_lo:adj_hi] - np.int32(node_lo),
            self.labels[node_lo:node_hi].copy(),
            self.adj_edge_labels[adj_lo:adj_hi].copy(),
        )

    # -- export ------------------------------------------------------------------

    def extract_graph(self, graph_index: int) -> LabeledGraph:
        """Materialize one member graph back into a :class:`LabeledGraph`."""
        start, stop = self.graph_node_range(graph_index)
        labels = self.labels[start:stop]
        edges = []
        edge_labels = []
        for v in range(start, stop):
            lo, hi = int(self.row_offsets[v]), int(self.row_offsets[v + 1])
            for slot in range(lo, hi):
                u = int(self.column_indices[slot])
                if u > v:
                    edges.append((v - start, u - start))
                    edge_labels.append(int(self.adj_edge_labels[slot]))
        return LabeledGraph(labels, edges, edge_labels)

    def nbytes(self) -> int:
        """Host-side memory footprint of the stored arrays in bytes."""
        return (
            self.graph_offsets.nbytes
            + self.row_offsets.nbytes
            + self.column_indices.nbytes
            + self.labels.nbytes
            + self.adj_edge_labels.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"CSRGO(graphs={self.n_graphs}, nodes={self.n_nodes}, "
            f"edges={self.n_edges})"
        )
