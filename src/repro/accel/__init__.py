"""Kernel-acceleration layer: cached local views, join backends, memoization.

The paper's throughput lives in the join stage (section 4.6); this package
is the reproduction's hot-path engine room.  It provides:

* :mod:`repro.accel.local_view` — one sorted-CSR edge view class over a
  node range, built with NumPy slices (no per-edge Python loop): per data
  graph for the DFS and tabular kernels, over the whole batch for the
  fused table.  Views are cached by batch content hash in byte-bounded
  :class:`~repro.accel.memo.ContentMemo` tables, so iteration sweeps,
  chunked drivers and resilient re-runs over the same batch never
  rebuild identical adjacency.
* :mod:`repro.accel.tabular` — the vectorized *tabular frontier join*: a
  Δ-Motif/GSI-style formulation that extends every partial embedding at a
  depth in one NumPy pass (candidate gather → ``np.searchsorted``
  edge-label probes → injectivity mask), bitwise-equivalent to the scalar
  stack-DFS reference backend in Find All — including
  :class:`~repro.core.join.JoinStats` counters, embedding order and
  budget truncation.
* :mod:`repro.accel.fused` — the whole-batch fused frontier table: every
  fused-dispatched pair of a batch extends through one table with a
  leading pair column, so per-pair call overhead is paid once per batch.
* :mod:`repro.accel.dispatch` — the per-(data graph, query graph) backend
  choice: under ``config.join_backend="auto"`` one size rule (DFS for
  single-node queries, fused up to ``FUSED_MAX_ELEMENTS`` estimated
  elements, tabular above), with ``"dfs"`` / ``"tabular"`` / ``"fused"``
  forcing a backend for every pair.
* :mod:`repro.accel.memo` — :class:`~repro.accel.memo.ContentMemo`, the
  one bounded LRU behind every cache on the matching path, and the
  content-hash memoization of signature count matrices and compiled
  :class:`~repro.core.join.PlanTable` arrays, keyed on every config field
  that affects them, shared across engine runs.
"""

from repro.accel.dispatch import (
    BACKEND_AUTO,
    BACKEND_DFS,
    BACKEND_FUSED,
    BACKEND_TABULAR,
    FUSED_MAX_ELEMENTS,
    JOIN_BACKENDS,
    choose_backends,
)
from repro.accel.local_view import LocalCSRView, get_local_view, local_view_cache
from repro.accel.memo import (
    MemoStats,
    clear_accel_caches,
    plan_memo,
    signature_memo,
)
from repro.accel.tabular import tabular_join_pair

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_DFS",
    "BACKEND_FUSED",
    "BACKEND_TABULAR",
    "FUSED_MAX_ELEMENTS",
    "JOIN_BACKENDS",
    "LocalCSRView",
    "MemoStats",
    "choose_backends",
    "clear_accel_caches",
    "get_local_view",
    "local_view_cache",
    "plan_memo",
    "signature_memo",
    "tabular_join_pair",
]
