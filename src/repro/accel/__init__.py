"""Kernel-acceleration layer: cached local views, join backends, memoization.

The paper's throughput lives in the join stage (section 4.6); this package
is the reproduction's hot-path engine room.  It provides:

* :mod:`repro.accel.local_view` — one sorted-CSR edge view class over a
  node range, built with NumPy slices (no per-edge Python loop): per data
  graph for the DFS kernel, over the whole batch for the fused table.
  Views are cached by batch content hash in byte-bounded
  :class:`~repro.accel.memo.ContentMemo` tables, so iteration sweeps,
  chunked drivers and resilient re-runs over the same batch never
  rebuild identical adjacency.
* :mod:`repro.accel.fused` — the vectorized frontier join: a
  Δ-Motif/GSI-style table that extends every partial embedding of every
  pair in a batch at once, growing each row from its anchor's CSR-GO
  neighbours (bitmap membership → injectivity → edge-label checks),
  bitwise-equivalent to the scalar stack-DFS reference backend in Find
  All — including :class:`~repro.core.join.JoinStats` counters,
  embedding order and budget truncation.  ``tabular_join_pair`` runs it
  one pair per table.
* :mod:`repro.accel.dispatch` — the one backend of a run:
  ``config.join_backend="auto"`` resolves to the fused table for every
  pair, and ``"dfs"`` / ``"tabular"`` / ``"fused"`` force a backend.
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
    JOIN_BACKENDS,
    resolve_backend,
)
from repro.accel.fused import tabular_join_pair
from repro.accel.local_view import LocalCSRView, get_local_view, local_view_cache
from repro.accel.memo import (
    MemoStats,
    clear_accel_caches,
    plan_memo,
    signature_memo,
)

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_DFS",
    "BACKEND_FUSED",
    "BACKEND_TABULAR",
    "JOIN_BACKENDS",
    "LocalCSRView",
    "MemoStats",
    "clear_accel_caches",
    "get_local_view",
    "local_view_cache",
    "plan_memo",
    "resolve_backend",
    "signature_memo",
    "tabular_join_pair",
]
