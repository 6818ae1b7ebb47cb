"""Per-pair join backend selection.

The engine exposes one dispatch point (``run_join``); this module decides,
for each (data graph, query graph) pair, which backend joins it:

* ``"dfs"`` — the scalar stack-DFS reference (paper section 4.6);
* ``"fused"`` — the whole-batch frontier table (:mod:`repro.accel.fused`):
  every fused-dispatched pair of a batch rides one table with a leading
  pair column, growing rows from their anchors' CSR-GO neighbours, so the
  per-pair Python call and table setup are paid once per *batch*;
* ``"tabular"`` — the same kernel with one pair per table
  (:func:`repro.accel.fused.tabular_join_pair`); forced only, never
  chosen under ``"auto"``.

Because the backends are bitwise-equivalent in Find All — match sets,
stats, truncation, embedding order — the choice is *purely* a performance
decision and may differ pair to pair within one run.

Under ``join_backend="auto"`` single-node queries go to DFS (a plain
candidate scan, nothing to vectorize) and every other pair to the fused
table.  The pre-dispatch work estimates (:func:`estimate_elements`) still
order pairs *within* the table (:func:`packing_order`), which packs
expensive pairs into early row blocks, and size budgeted waves —
ordering never changes results, only block shapes.

``join_backend="dfs"`` / ``"tabular"`` / ``"fused"`` force the respective
backend for every pair (parity tests and the hot-path benchmark arms).
"""

from __future__ import annotations

import numpy as np

#: Scalar stack-DFS reference backend (paper section 4.6).
BACKEND_DFS = "dfs"
#: The fused kernel with one pair per table (forced only).
BACKEND_TABULAR = "tabular"
#: Whole-batch frontier table (:mod:`repro.accel.fused`).
BACKEND_FUSED = "fused"
#: DFS for single-node queries, fused otherwise.
BACKEND_AUTO = "auto"
#: Valid ``SigmoConfig.join_backend`` values.
JOIN_BACKENDS = (BACKEND_AUTO, BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED)
#: Backend names by integer code (the engine's per-pair dispatch array).
BACKEND_CODES = (BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED)
DFS_CODE, TABULAR_CODE, FUSED_CODE = range(len(BACKEND_CODES))


def estimate_elements(n_depths: int, counts: np.ndarray) -> np.ndarray:
    """Pre-dispatch work estimate of each pair (column) of ``counts``.

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


def choose_backends(
    n_depths: int, counts: np.ndarray, requested: str = BACKEND_AUTO
) -> np.ndarray:
    """Backend code (index into :data:`BACKEND_CODES`) of every pair.

    ``counts`` is as in :func:`estimate_elements`; ``requested`` is
    ``SigmoConfig.join_backend``.  A forced backend wins for every pair;
    under ``"auto"`` single-node queries go to DFS and the rest to the
    fused table.
    """
    n_pairs = counts.shape[1]
    if requested in BACKEND_CODES:
        return np.full(n_pairs, BACKEND_CODES.index(requested), dtype=np.int8)
    if requested != BACKEND_AUTO:
        raise ValueError(
            f"join_backend must be one of {JOIN_BACKENDS}, got {requested!r}"
        )
    return np.full(n_pairs, DFS_CODE if n_depths < 2 else FUSED_CODE, dtype=np.int8)


def packing_order(estimates: np.ndarray) -> np.ndarray:
    """Packing order of fused pairs: descending estimated work.

    Expensive pairs lead the table so early row blocks are dense; stable
    on the original index, so equal-estimate pairs keep GMCR order.
    Results are invariant to this order (asserted in
    ``tests/accel/test_fused.py``) — it shapes blocks, nothing else.
    """
    return np.argsort(-estimates, kind="stable")
