"""Join backend resolution: one backend per run.

The engine exposes one join entry point (``run_join``); this module names
the backends it can run and resolves ``SigmoConfig.join_backend`` to the
one that joins *every* pair of a run:

* ``"fused"`` — the whole-batch frontier table (:mod:`repro.accel.fused`):
  every pair of a batch rides one table with a leading pair column,
  growing rows from their anchors' CSR-GO neighbours, so the per-pair
  Python call and table setup are paid once per *batch*;
* ``"dfs"`` — the scalar stack-DFS reference (paper section 4.6);
  forced only;
* ``"tabular"`` — the fused kernel with one pair per table
  (:func:`repro.accel.fused.tabular_join_pair`); forced only.

``"auto"`` (the default) resolves to ``"fused"``, single-node queries
included: the table counts a single-node pair's work exactly as the DFS
does.  The backends are bitwise-equivalent in Find All — match sets,
stats, truncation, embedding order — so the forced arms exist for parity
tests and the hot-path benchmark.

The pre-join work estimates (:func:`estimate_elements`) order pairs
*within* a fused table (:func:`packing_order`), which packs expensive
pairs into early row blocks, and size budgeted waves — ordering never
changes results, only block shapes.
"""

from __future__ import annotations

import numpy as np

#: Scalar stack-DFS reference backend (paper section 4.6).
BACKEND_DFS = "dfs"
#: The fused kernel with one pair per table (forced only).
BACKEND_TABULAR = "tabular"
#: Whole-batch frontier table (:mod:`repro.accel.fused`).
BACKEND_FUSED = "fused"
#: The default: resolves to the fused table.
BACKEND_AUTO = "auto"
#: Valid ``SigmoConfig.join_backend`` values.
JOIN_BACKENDS = (BACKEND_AUTO, BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED)


def resolve_backend(requested: str = BACKEND_AUTO) -> str:
    """The backend that joins every pair of a run.

    ``requested`` is ``SigmoConfig.join_backend``: a forced backend is
    returned as is, ``"auto"`` resolves to ``"fused"``, anything else
    raises ``ValueError``.
    """
    if requested not in JOIN_BACKENDS:
        raise ValueError(
            f"join_backend must be one of {JOIN_BACKENDS}, got {requested!r}"
        )
    return BACKEND_FUSED if requested == BACKEND_AUTO else requested


def estimate_elements(n_depths: int, counts: np.ndarray) -> np.ndarray:
    """Pre-join work estimate of each pair (column) of ``counts``.

    ``counts`` is ``int[n_depths, n_pairs]`` — one column of per-depth
    candidate sizes per pair, all of plan depth ``n_depths``.  The
    estimate is root visits plus the first-expansion cross product
    (``c0 + c0*c1``; ``c0`` for single-depth plans): the visits every
    backend pays before any pruning can differentiate pairs.
    """
    c0 = counts[0].astype(np.int64)
    if n_depths < 2:
        return c0
    return c0 + c0 * counts[1].astype(np.int64)


def packing_order(estimates: np.ndarray) -> np.ndarray:
    """Packing order of fused pairs: descending estimated work.

    Expensive pairs lead the table so early row blocks are dense; stable
    on the original index, so equal-estimate pairs keep GMCR order.
    Results are invariant to this order (asserted in
    ``tests/accel/test_fused.py``) — it shapes blocks, nothing else.
    """
    return np.argsort(-estimates, kind="stable")
