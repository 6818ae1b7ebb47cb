"""Per-pair join backend selection by one size rule.

The engine exposes one dispatch point (``run_join``); this module decides,
for each (data graph, query graph) pair, which backend joins it:

* ``"dfs"`` — the scalar stack-DFS reference (paper section 4.6);
* ``"tabular"`` — the per-pair vectorized tabular frontier backend
  (:func:`repro.accel.tabular.tabular_join_pair`);
* ``"fused"`` — the whole-batch fused frontier table
  (:mod:`repro.accel.fused`): every fused-dispatched pair of a batch
  rides one table with a leading pair column, so the per-pair Python
  call and frontier setup are paid once per *batch*, not once per pair.

Because the backends are bitwise-equivalent in Find All — match sets,
stats, truncation, embedding order — the choice is *purely* a performance
decision and may differ pair to pair within one run.

Under ``join_backend="auto"`` the rule reads one pre-dispatch feature per
pair, the estimated work ``c0 + c0*c1`` (root candidates plus the
first-expansion cross product): single-node queries go to DFS, estimates
up to :data:`FUSED_MAX_ELEMENTS` to the fused table, the rest to per-pair
tabular.  The same estimates order pairs *within* the fused table
(:func:`packing_order`), which packs expensive pairs into early row
blocks — ordering never changes results, only block shapes.

``join_backend="dfs"`` / ``"tabular"`` / ``"fused"`` force the respective
backend for every pair (parity tests and the hot-path benchmark arms).
"""

from __future__ import annotations

import numpy as np

#: Scalar stack-DFS reference backend (paper section 4.6).
BACKEND_DFS = "dfs"
#: Per-pair vectorized tabular frontier backend (:mod:`repro.accel.tabular`).
BACKEND_TABULAR = "tabular"
#: Whole-batch fused frontier table (:mod:`repro.accel.fused`).
BACKEND_FUSED = "fused"
#: Per-pair size-rule choice.
BACKEND_AUTO = "auto"
#: Valid ``SigmoConfig.join_backend`` values.
JOIN_BACKENDS = (BACKEND_AUTO, BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED)
#: Backend names by integer code (the engine's per-pair dispatch array).
BACKEND_CODES = (BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED)
DFS_CODE, TABULAR_CODE, FUSED_CODE = range(len(BACKEND_CODES))

#: Largest estimated work (``c0 + c0*c1``) a pair may have and still ride
#: the fused table under ``"auto"``; larger pairs go per-pair tabular.
#: This is where the fused and tabular cost lines of the earlier fitted
#: linear cost model crossed, in both Find All and Find First.  It also
#: separates the end-to-end benchmark's two sides: nearly every molecular
#: screening pair estimates below it (median ~20 elements), nearly every
#: enumeration-heavy pair above it (median ~4200).
FUSED_MAX_ELEMENTS = 1794


def estimate_elements(n_depths: int, counts: np.ndarray) -> np.ndarray:
    """Pre-dispatch work estimate of each pair (column) of ``counts``.

    ``counts`` is ``int[n_depths, n_pairs]`` — one column of per-depth
    candidate sizes per pair, all of plan depth ``n_depths``.  The
    estimate is root visits plus the first-expansion cross product
    (``c0 + c0*c1``; ``c0`` for single-depth plans): the two terms every
    backend pays before any pruning can differentiate them.
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
    under ``"auto"`` single-node queries go to DFS (a plain candidate
    scan, nothing to vectorize), estimates at or below
    :data:`FUSED_MAX_ELEMENTS` to fused and the rest to tabular.
    """
    n_pairs = counts.shape[1]
    if requested in BACKEND_CODES:
        return np.full(n_pairs, BACKEND_CODES.index(requested), dtype=np.int8)
    if requested != BACKEND_AUTO:
        raise ValueError(
            f"join_backend must be one of {JOIN_BACKENDS}, got {requested!r}"
        )
    if n_depths < 2:
        return np.full(n_pairs, DFS_CODE, dtype=np.int8)
    small = estimate_elements(n_depths, counts) <= FUSED_MAX_ELEMENTS
    return np.where(small, FUSED_CODE, TABULAR_CODE).astype(np.int8)


def packing_order(estimates: np.ndarray) -> np.ndarray:
    """Packing order of fused pairs: descending estimated work.

    Expensive pairs lead the table so early row blocks are dense; stable
    on the original index, so equal-estimate pairs keep GMCR order.
    Results are invariant to this order (asserted in
    ``tests/accel/test_fused.py``) — it shapes blocks, nothing else.
    """
    return np.argsort(-estimates, kind="stable")
