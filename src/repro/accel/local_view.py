"""Sorted-CSR edge views of a node range, cached by batch content.

The join probes data edges by flat key: a per-run view that rebuilt a
Python dict of every edge — one dict insert per adjacency slot — on
*every* ``run_join`` call would dominate small joins.  This module
instead carves a **sorted-CSR view** of the node range ``[start, stop)``
out of the batch CSR-GO with pure NumPy slices (no per-edge Python loop):

* ``flat_keys`` — ``(u - start) * width + (v - start)`` per adjacency
  slot.  Because rows are ascending and neighbors are sorted per row (a
  CSR-GO construction invariant), this array is *globally* sorted, so
  one ``xp.searchsorted`` resolves any batch of edge-label probes.
  Small ranges additionally build a dense ``int8`` label array lazily
  (:data:`DENSE_CELL_CAP` cells max), turning hot-loop probes into plain
  gathers; ``probe_labels`` picks the path transparently.
* ``edge_labels`` — the labels parallel to ``flat_keys``.
* ``row_offsets`` — each node's slice of the two arrays, so a kernel can
  read a node's neighbours (``flat_keys[at] - u * width``) and their edge
  labels without touching the raw CSR-GO.

One class serves every join kernel: the DFS kernel probes one data
graph's range (:func:`get_local_view`), the fused table reads and probes
the whole batch ``[0, n_nodes)`` with global ids (:func:`get_batch_view`).
The scalar DFS kernel wants O(1) per-probe lookups; the view keeps a flat
dict as a *lazy* property built from the flat arrays (one C-level
``zip``), paid at most once per cached view — not once per run.

Views are cached per batch **content hash** (not object identity) and
array backend, so iteration sweeps, chunked re-runs and resilient
retries over identical data share views even when the ``CSRGO`` object
was rebuilt.  Both tables are :class:`~repro.accel.memo.ContentMemo` LRUs
bounded by :data:`VIEW_MEMO_BYTES` of view arrays: a stream of fresh
batches recycles the budget instead of pinning old views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import xp
from repro.accel.memo import ContentMemo
from repro.core.csrgo import CSRGO

if TYPE_CHECKING:
    import numpy as np

#: Byte budget of each view table (per-graph views, whole-batch views);
#: a view heavier than the whole budget is returned but not stored.
VIEW_MEMO_BYTES = 4 << 20

#: Largest ``width**2`` for which a view materializes a dense flat-key ->
#: label array (int8, so this caps the table at 64 MB).  Molecular
#: batches sit far below it; huge ranges fall back to the sorted-key
#: binary search.
DENSE_CELL_CAP = 1 << 26

#: Labels must fit int8 alongside the -2 "no edge" sentinel.
_DENSE_LABEL_MAX = 125


def _dense_fits(width: int, edge_labels: np.ndarray) -> bool:
    """Whether a range of ``width`` nodes qualifies for the dense table."""
    return width * width <= DENSE_CELL_CAP and not (
        edge_labels.size and int(edge_labels.max()) > _DENSE_LABEL_MAX
    )


class LocalCSRView:
    """Adjacency of the node range ``[start, stop)``, optimized for probes.

    Attributes
    ----------
    start:
        Global node id of the range's first node (embedding recording
        converts local matches back with it).
    width:
        Node count of the range; flat edge keys are ``u * width + v``
        in range-local ids.
    flat_keys:
        ``int64`` sorted flat edge keys.
    edge_labels:
        ``int32`` labels parallel to ``flat_keys``.
    row_offsets:
        ``int64[width + 1]``: node ``u``'s slots are
        ``row_offsets[u] : row_offsets[u + 1]`` of the two arrays above.
    """

    __slots__ = (
        "start",
        "width",
        "flat_keys",
        "edge_labels",
        "row_offsets",
        "_edge_label_map",
        "_dense",
    )

    def __init__(self, data: CSRGO, start: int, stop: int) -> None:
        self.start = start
        width = stop - start
        self.width = width
        row_offsets = data.row_offsets[start : stop + 1]
        adj_lo = int(row_offsets[0])
        adj_hi = int(row_offsets[-1])
        rows = xp.repeat(xp.arange(width, dtype=xp.int64), xp.diff(row_offsets))
        neighbors = data.column_indices[adj_lo:adj_hi].astype(xp.int64) - start
        self.flat_keys = rows * xp.checked_flat_stride(width) + neighbors
        self.edge_labels = xp.ascontiguousarray(
            data.adj_edge_labels[adj_lo:adj_hi], dtype=xp.int32
        )
        self.row_offsets = xp.asarray(row_offsets, dtype=xp.int64) - adj_lo
        self._edge_label_map: dict[int, int] | None = None
        self._dense: np.ndarray | None | bool = None

    @property
    def edge_label_of(self) -> dict[int, int]:
        """Flat-key -> edge-label dict for O(1) scalar probes (lazy)."""
        if self._edge_label_map is None:
            self._edge_label_map = dict(
                zip(self.flat_keys.tolist(), self.edge_labels.tolist())
            )
        return self._edge_label_map

    def probe_labels(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(edge-exists mask, edge labels) per flat key.

        Labels are only meaningful where the mask is True.  Small ranges
        answer from the dense O(1) lookup table (-2 = absent); oversized
        ones fall back to a binary search over the sorted ``flat_keys``.
        Both paths evaluate the same predicate, so results are
        bit-identical.
        """
        if self._dense is None:
            self._dense = False
            if _dense_fits(self.width, self.edge_labels):
                dense = xp.full(self.width * self.width, -2, dtype=xp.int8)
                dense[self.flat_keys] = self.edge_labels.astype(xp.int8)
                self._dense = dense
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


def _view_bytes(view: LocalCSRView) -> int:
    """Memo weight: the CSR arrays plus the dense table it may build."""
    width = view.width
    dense = width * width if _dense_fits(width, view.edge_labels) else 0
    arrays = view.flat_keys.nbytes + view.edge_labels.nbytes + view.row_offsets.nbytes
    return int(arrays + dense)


_LOCAL_VIEWS = ContentMemo(VIEW_MEMO_BYTES, weigh=_view_bytes)
_BATCH_VIEWS = ContentMemo(VIEW_MEMO_BYTES, weigh=_view_bytes)


def local_view_cache() -> ContentMemo:
    """The process-wide per-graph view table.

    Keys: ``(batch content hash, array backend, data graph)``.  ``stats``
    counts view-level hits/misses: a second run over the same batch must
    be all hits.
    """
    return _LOCAL_VIEWS


def batch_view_cache() -> ContentMemo:
    """The process-wide whole-batch view table (fused join edge index).

    Keys: ``(batch content hash, array backend)``; one build (miss) per
    distinct batch contents, however many fused tables run over it.
    """
    return _BATCH_VIEWS


def get_local_view(data: CSRGO, data_graph: int) -> LocalCSRView:
    """Cached view of one data graph's node range.

    Keyed by array backend too: views hold backend arrays, so a backend
    switch mid-session must never recall another backend's view.
    """
    return _LOCAL_VIEWS.get_or_build(
        (data.content_hash(), xp.backend_name(), data_graph),
        lambda: LocalCSRView(data, *data.graph_node_range(data_graph)),
    )


def get_batch_view(data: CSRGO) -> LocalCSRView:
    """Cached view of the whole batch ``[0, n_nodes)`` (global ids)."""
    return _BATCH_VIEWS.get_or_build(
        (data.content_hash(), xp.backend_name()),
        lambda: LocalCSRView(data, 0, data.n_nodes),
    )
