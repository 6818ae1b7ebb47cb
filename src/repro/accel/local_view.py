"""Sorted-CSR local adjacency views, cached per data batch.

A per-run view that rebuilt a Python dict of every edge of a data graph —
one dict insert per adjacency slot — on *every* ``run_join`` call would
dominate small joins.  This module instead carves a **sorted-CSR local
view** out of the batch CSR-GO with pure NumPy slices (no per-edge Python
loop):

* ``row_offsets`` / ``neighbors`` / ``edge_labels`` — the graph's local
  CSR, neighbors sorted within each row (a CSR-GO construction
  invariant).
* ``flat_keys`` — ``u * width + v`` per adjacency slot.  Because rows are
  ascending and neighbors are sorted per row, this array is *globally*
  sorted, so one ``xp.searchsorted`` resolves any batch of edge-label
  probes — the vectorized lookup the tabular join backend is built on.
  Small views additionally build a dense ``int8`` label array lazily
  (:data:`DENSE_CELL_CAP` cells max), turning hot-loop probes into
  plain gathers; ``probe_labels`` picks the path transparently.

The scalar DFS backend still wants O(1) per-probe lookups; the view keeps
the flat dict as a *lazy* property built from the flat arrays (one C-level
``zip``), so the cost is paid at most once per (batch, graph) thanks to
the content-hash cache below — not once per run.

Views are cached per batch **content hash** (not object identity), so
iteration sweeps, chunked re-runs and resilient retries over identical
data share views even when the ``CSRGO`` object was rebuilt.  The cache
holds a bounded number of batches, LRU-evicted — switching batches
invalidates the oldest entries automatically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro import xp
from repro.accel.memo import MemoStats
from repro.core.csrgo import CSRGO

if TYPE_CHECKING:
    import numpy as np

#: Batches kept in the process-wide view cache before LRU eviction.
VIEW_CACHE_BATCHES = 8

#: Largest ``n_nodes**2`` for which :class:`BatchCSRView` materializes a
#: dense flat-key -> label array (int8, so this caps the table at 64 MB).
#: Molecular batches sit far below it; huge batches fall back to the
#: sorted-key binary search.
DENSE_CELL_CAP = 1 << 26

#: Labels must fit int8 alongside the -2 "no edge" sentinel.
_DENSE_LABEL_MAX = 125


def _build_dense(
    width: int, flat_keys: np.ndarray, edge_labels: np.ndarray
) -> "np.ndarray | bool":
    """Dense flat-key -> label table (int8, -2 = absent), or False.

    Oversized key spaces and labels that do not fit int8 fall back to
    the sorted-key binary search (``False``).
    """
    cells = width * width
    if cells > DENSE_CELL_CAP or (
        edge_labels.size and int(edge_labels.max()) > _DENSE_LABEL_MAX
    ):
        return False
    dense = xp.full(cells, -2, dtype=xp.int8)
    dense[flat_keys] = edge_labels.astype(xp.int8)
    return dense


class LocalCSRView:
    """Adjacency of one data graph in local ids, optimized for edge probes.

    Attributes
    ----------
    start:
        Global node id of the graph's first node (embedding recording
        converts local matches back with it).
    width:
        Node count of the graph; flat edge keys are ``u * width + v``.
    row_offsets / neighbors / edge_labels:
        Local CSR (``int64`` offsets, ``int64`` neighbor ids, ``int32``
        labels), neighbors sorted within each row.
    flat_keys:
        ``int64`` sorted flat edge keys, parallel to ``edge_labels``.
    """

    __slots__ = (
        "start",
        "width",
        "row_offsets",
        "neighbors",
        "edge_labels",
        "flat_keys",
        "_edge_label_map",
        "_dense",
    )

    def __init__(self, data: CSRGO, data_graph: int) -> None:
        start, stop = data.graph_node_range(data_graph)
        self.start = start
        width = stop - start
        self.width = width
        adj_lo = int(data.row_offsets[start])
        adj_hi = int(data.row_offsets[stop])
        self.row_offsets = (data.row_offsets[start : stop + 1] - adj_lo).astype(
            xp.int64
        )
        self.neighbors = (
            data.column_indices[adj_lo:adj_hi].astype(xp.int64) - start
        )
        self.edge_labels = xp.ascontiguousarray(
            data.adj_edge_labels[adj_lo:adj_hi], dtype=xp.int32
        )
        rows = xp.repeat(
            xp.arange(width, dtype=xp.int64), xp.diff(self.row_offsets)
        )
        self.flat_keys = rows * xp.checked_flat_stride(width) + self.neighbors
        self._edge_label_map: dict[int, int] | None = None
        self._dense: np.ndarray | None | bool = None

    # -- scalar interface (DFS backend) -----------------------------------------

    @property
    def edge_label_of(self) -> dict[int, int]:
        """Flat-key -> edge-label dict for O(1) scalar probes (lazy)."""
        if self._edge_label_map is None:
            self._edge_label_map = dict(
                zip(self.flat_keys.tolist(), self.edge_labels.tolist())
            )
        return self._edge_label_map

    def edge_label(self, local_u: int, local_v: int) -> int:
        """Label of local edge, or -1 when absent."""
        return self.edge_label_of.get(local_u * self.width + local_v, -1)

    # -- vectorized interface (tabular backend) ----------------------------------

    def lookup_edge_labels(self, local_u: np.ndarray, local_v: np.ndarray) -> np.ndarray:
        """Edge labels of ``(local_u[i], local_v[i])`` pairs, -2 when absent.

        One O(1) dense gather per probe batch (single-graph key spaces
        are tiny), falling back to a binary search over the globally
        sorted ``flat_keys`` for oversized graphs; the -2 sentinel
        matches the scalar DFS probe so the backends evaluate the
        identical predicate (-1 is the any-bond wildcard, which must
        still distinguish "edge with some label" from "no edge").
        """
        keys = xp.asarray(local_u, dtype=xp.int64) * self.width + xp.asarray(
            local_v, dtype=xp.int64
        )
        found, labels = self.probe_labels(keys)
        out = xp.full(keys.shape, -2, dtype=xp.int64)
        out[found] = labels[found]
        return out

    def probe_labels(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(edge-exists mask, edge labels) per flat key.

        Labels are only meaningful where the mask is True; identical
        predicate on the dense and binary-search paths.
        """
        if self._dense is None:
            self._dense = _build_dense(
                self.width, self.flat_keys, self.edge_labels
            )
        if self._dense is not False:
            labels = self._dense[keys]
            return labels != -2, labels
        size = self.flat_keys.size
        if size == 0:
            return xp.zeros(keys.shape, dtype=xp.bool_), xp.zeros(
                keys.shape, dtype=xp.int64
            )
        pos = xp.searchsorted(self.flat_keys, keys)
        clipped = xp.minimum(pos, size - 1)
        found = self.flat_keys[clipped] == keys
        return found, self.edge_labels[clipped]

    @property
    def n_edges(self) -> int:
        """Adjacency slots of the graph (2x undirected edges)."""
        return int(self.flat_keys.size)


class LocalViewCache:
    """Content-hash-keyed cache of per-graph :class:`LocalCSRView` objects.

    One bounded OrderedDict of batches (keyed by
    :meth:`~repro.core.csrgo.CSRGO.content_hash`), each holding the lazily
    built views of that batch's graphs.  ``stats`` counts *view-level*
    hits/misses, which is what the hoisting tests assert: a second run
    over the same batch must be all hits.
    """

    def __init__(self, capacity: int = VIEW_CACHE_BATCHES) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = MemoStats()
        self._batches: OrderedDict[tuple[str, str], dict[int, LocalCSRView]] = OrderedDict()
        self._lock = threading.Lock()

    def views_of(self, data: CSRGO) -> dict[int, LocalCSRView]:
        """The (mutable, lazily filled) view dict of one batch.

        Keyed by (content hash, active array backend): views hold backend
        arrays, so a backend switch mid-session must never recall another
        backend's artifacts.
        """
        key = (data.content_hash(), xp.backend_name())
        with self._lock:
            views = self._batches.get(key)
            if views is None:
                views = {}
                self._batches[key] = views
            self._batches.move_to_end(key)
            while len(self._batches) > self.capacity:
                self._batches.popitem(last=False)
                self.stats.evictions += 1
            return views

    def get(self, data: CSRGO, data_graph: int) -> LocalCSRView:
        """The cached view of ``data_graph``, building it on first use."""
        views = self.views_of(data)
        view = views.get(data_graph)
        if view is None:
            self.stats.misses += 1
            view = LocalCSRView(data, data_graph)
            views[data_graph] = view
        else:
            self.stats.hits += 1
        return view

    def n_batches(self) -> int:
        """Batches currently cached."""
        return len(self._batches)

    def clear(self) -> None:
        """Drop every cached view and reset the stats."""
        with self._lock:
            self._batches.clear()
            self.stats = MemoStats()


class BatchCSRView:
    """Whole-batch sorted flat edge keys — the fused join's one edge index.

    The fused frontier table (:mod:`repro.accel.fused`) carries rows of
    *every* pair of a batch at once, so its edge probes span many data
    graphs in one ``xp.searchsorted`` call.  Because CSR-GO node ids are
    global and neighbors are sorted within ascending rows, the flat keys
    ``u * n_nodes + v`` over the *entire* batch are globally sorted — one
    array answers any cross-graph probe batch.  Building it is one NumPy
    pass over the batch adjacency; the cache below guarantees it happens
    once per batch contents, not once per pair (the per-pair re-slice the
    fused path exists to avoid).

    Attributes
    ----------
    width:
        Total node count of the batch (the flat-key stride).
    flat_keys / edge_labels:
        Sorted ``int64`` keys and the parallel ``int32`` labels.
    """

    __slots__ = ("width", "flat_keys", "edge_labels", "_dense")

    def __init__(self, data: CSRGO) -> None:
        n = int(data.n_nodes)
        self.width = n
        rows = xp.repeat(
            xp.arange(n, dtype=xp.int64), xp.diff(data.row_offsets)
        )
        self.flat_keys = rows * xp.checked_flat_stride(n) + data.column_indices.astype(
            xp.int64
        )
        self.edge_labels = xp.ascontiguousarray(
            data.adj_edge_labels, dtype=xp.int32
        )
        self._dense: np.ndarray | None | bool = None

    def probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(edge-exists mask, adjacency slot index) per flat key.

        Slot indices are only meaningful where the mask is True; absent
        keys are clipped to the last slot so the caller can gather labels
        unconditionally and mask afterwards.
        """
        size = self.flat_keys.size
        if size == 0:
            return xp.zeros(keys.shape, dtype=xp.bool_), xp.zeros(
                keys.shape, dtype=xp.int64
            )
        pos = xp.searchsorted(self.flat_keys, keys)
        slot = xp.minimum(pos, size - 1)
        return self.flat_keys[slot] == keys, slot

    def probe_labels(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(edge-exists mask, edge labels) per flat key.

        Labels are only meaningful where the mask is True.  Small batches
        answer from the dense O(1) lookup table; oversized ones fall back
        to the sorted-key binary search.  Both paths evaluate the same
        predicate, so results are bit-identical.
        """
        if self._dense is None:
            self._dense = _build_dense(
                self.width, self.flat_keys, self.edge_labels
            )
        if self._dense is not False:
            labels = self._dense[keys]
            return labels != -2, labels
        found, slot = self.probe(keys)
        return found, self.edge_labels[slot]

    @property
    def n_edges(self) -> int:
        """Adjacency slots of the whole batch (2x undirected edges)."""
        return int(self.flat_keys.size)


class BatchViewCache:
    """Content-hash-keyed cache of :class:`BatchCSRView` objects.

    Bounded LRU like :class:`LocalViewCache`; ``stats`` counts builds vs
    recalls — the fused-path tests assert exactly one build (miss) per
    distinct batch contents, however many fused tables run over it.
    """

    def __init__(self, capacity: int = VIEW_CACHE_BATCHES) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = MemoStats()
        self._views: OrderedDict[tuple[str, str], BatchCSRView] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, data: CSRGO) -> BatchCSRView:
        """The cached batch view, building it on first use.

        Keyed by (content hash, active array backend) — see
        :meth:`LocalViewCache.views_of`.
        """
        key = (data.content_hash(), xp.backend_name())
        with self._lock:
            view = self._views.get(key)
            if view is not None:
                self._views.move_to_end(key)
                self.stats.hits += 1
                return view
        built = BatchCSRView(data)
        with self._lock:
            view = self._views.get(key)
            if view is None:
                self.stats.misses += 1
                self._views[key] = built
                view = built
            else:
                self.stats.hits += 1
            self._views.move_to_end(key)
            while len(self._views) > self.capacity:
                self._views.popitem(last=False)
                self.stats.evictions += 1
            return view

    def clear(self) -> None:
        """Drop every cached view and reset the stats."""
        with self._lock:
            self._views.clear()
            self.stats = MemoStats()


_VIEW_CACHE = LocalViewCache()
_BATCH_VIEW_CACHE = BatchViewCache()


def local_view_cache() -> LocalViewCache:
    """The process-wide local-view cache."""
    return _VIEW_CACHE


def batch_view_cache() -> BatchViewCache:
    """The process-wide batch-view cache (fused join edge index)."""
    return _BATCH_VIEW_CACHE


def get_local_view(data: CSRGO, data_graph: int) -> LocalCSRView:
    """Cached sorted-CSR local view of one data graph."""
    return _VIEW_CACHE.get(data, data_graph)


def get_batch_view(data: CSRGO) -> BatchCSRView:
    """Cached whole-batch sorted edge index of one data batch."""
    return _BATCH_VIEW_CACHE.get(data)
