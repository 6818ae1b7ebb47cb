"""Kernel-acceleration layer: cached local views, join backends, memoization.

The paper's throughput lives in the join stage (section 4.6); this package
is the reproduction's hot-path engine room.  It provides:

* :mod:`repro.accel.local_view` — sorted-CSR per-data-graph adjacency
  views built with NumPy slices (no per-edge Python loop) and cached by
  batch content hash, so iteration sweeps, chunked drivers and resilient
  re-runs over the same batch never rebuild identical adjacency.
* :mod:`repro.accel.tabular` — the vectorized *tabular frontier join*: a
  Δ-Motif/GSI-style formulation that extends every partial embedding at a
  depth in one NumPy pass (candidate gather → ``np.searchsorted``
  edge-label probes → injectivity mask), bitwise-equivalent to the scalar
  stack-DFS reference backend in Find All — including
  :class:`~repro.core.join.JoinStats` counters, embedding order and
  budget truncation.
* :mod:`repro.accel.dispatch` — the per-(data graph, query graph) backend
  choice: a plan-cost heuristic under ``config.join_backend="auto"``,
  with ``"dfs"`` / ``"tabular"`` forcing either backend.
* :mod:`repro.accel.memo` — content-hash memoization of signature count
  matrices and compiled :class:`~repro.core.join.PlanTable` arrays, keyed
  on every config field that affects them, shared across engine runs.
"""

from repro.accel.dispatch import (
    BACKEND_AUTO,
    BACKEND_DFS,
    BACKEND_TABULAR,
    JOIN_BACKENDS,
    select_backend,
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
    "BACKEND_TABULAR",
    "JOIN_BACKENDS",
    "LocalCSRView",
    "MemoStats",
    "clear_accel_caches",
    "get_local_view",
    "local_view_cache",
    "plan_memo",
    "select_backend",
    "signature_memo",
    "tabular_join_pair",
]
