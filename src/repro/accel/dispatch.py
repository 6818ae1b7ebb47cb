"""Per-pair join backend selection driven by a calibrated plan-cost model.

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

Under ``join_backend="auto"`` a :class:`PlanCostModel` predicts each
backend's cost from the pair's *pre-dispatch* plan features (candidate
list sizes), following gMatch's fine-grained cost-driven scheduling:

    cost(backend) = pair_overhead + element_cost * estimated_elements

where ``estimated_elements`` is the root candidate count plus the
first-expansion cross product (``c0 + c0*c1``).  The coefficients are
calibrated per mode (Find All / Find First) from recorded ``JoinStats``
and wall-clock observations by ``repro calibrate``
(:func:`repro.accel.memo.fit_cost_model`); the committed defaults come
from that sweep on the seeded hot-path suites.  The same model orders
pairs *within* the fused table (descending predicted cost), which packs
expensive pairs into early row blocks — ordering never changes results,
only block shapes.

``join_backend="dfs"`` / ``"tabular"`` / ``"fused"`` force the respective
backend for every pair (parity tests and the hot-path benchmark arms).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

#: Scalar stack-DFS reference backend (paper section 4.6).
BACKEND_DFS = "dfs"
#: Per-pair vectorized tabular frontier backend (:mod:`repro.accel.tabular`).
BACKEND_TABULAR = "tabular"
#: Whole-batch fused frontier table (:mod:`repro.accel.fused`).
BACKEND_FUSED = "fused"
#: Per-pair cost-model choice.
BACKEND_AUTO = "auto"
#: Valid ``SigmoConfig.join_backend`` values.
JOIN_BACKENDS = (BACKEND_AUTO, BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED)
#: Backend names by integer code (the engine's per-pair dispatch array).
BACKEND_CODES = (BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED)

#: The historical static dispatch threshold: minimum first-expansion
#: elements (depth-0 candidates x depth-1 candidates) before the per-pair
#: tabular pass amortized its call overhead.  Kept as the reference point
#: ``repro calibrate`` compares the fitted model against, and as the
#: crossover the default Find All coefficients reproduce for the
#: dfs-vs-tabular decision.
TABULAR_MIN_ELEMENTS = 48

#: Join modes the cost model distinguishes (coefficient table keys).
MODE_FIND_ALL = "find-all"
MODE_FIND_FIRST = "find-first"


@dataclass(frozen=True)
class BackendCost:
    """Linear cost coefficients of one backend in one mode.

    ``pair_overhead`` is the fixed per-dispatched-pair cost in seconds
    (Python call, frontier setup; near-zero for fused pairs because the
    table is shared), ``element_cost`` the marginal seconds per estimated
    search element.
    """

    pair_overhead: float
    element_cost: float

    def predict(self, elements: float) -> float:
        """Predicted join seconds for one pair of ``elements`` work."""
        return self.pair_overhead + self.element_cost * float(elements)


def _default_coefficients() -> dict[str, dict[str, BackendCost]]:
    """Committed coefficients from the seeded calibration sweep.

    Fitted by ``repro calibrate`` (see ``benchmarks``/CLI docs) on the
    hot-path suites; re-running the sweep on other hardware shifts the
    absolute values but the crossovers are stable.  The Find All
    dfs/tabular crossover lands near :data:`TABULAR_MIN_ELEMENTS`, which
    is what the old static threshold hard-coded; the fused/tabular
    crossover sits near ~1800 estimated elements in both modes —
    molecular pairs (hundreds of elements) ride the shared table, the
    enumeration-heavy suite's pairs (thousands) go per-pair tabular.
    """
    return {
        MODE_FIND_ALL: {
            BACKEND_DFS: BackendCost(pair_overhead=2.1e-6, element_cost=1.45e-7),
            BACKEND_TABULAR: BackendCost(pair_overhead=7.6e-6, element_cost=3.2e-8),
            BACKEND_FUSED: BackendCost(pair_overhead=1.5e-6, element_cost=3.54e-8),
        },
        MODE_FIND_FIRST: {
            BACKEND_DFS: BackendCost(pair_overhead=2.1e-6, element_cost=6.0e-8),
            BACKEND_TABULAR: BackendCost(pair_overhead=7.6e-6, element_cost=3.0e-8),
            BACKEND_FUSED: BackendCost(pair_overhead=1.5e-6, element_cost=3.34e-8),
        },
    }


@dataclass(frozen=True)
class PlanCostModel:
    """Per-mode, per-backend linear cost model for join dispatch.

    ``coefficients[mode][backend]`` maps a mode (:data:`MODE_FIND_ALL` /
    :data:`MODE_FIND_FIRST`) and backend name to a :class:`BackendCost`.
    ``source`` records provenance (``"default"`` or a calibration tag);
    it never affects decisions.
    """

    coefficients: Mapping[str, Mapping[str, BackendCost]] = field(
        default_factory=_default_coefficients
    )
    source: str = "default"

    # -- features ----------------------------------------------------------------

    @staticmethod
    def estimate_elements(n_depths: int, cand_sizes: Sequence[int]) -> int:
        """Pre-dispatch work estimate of one pair.

        Root visits plus the first-expansion cross product — the two
        terms every backend pays before any pruning can differentiate
        them.  Deeper levels are unknowable pre-join (pruning dominates),
        so the model leaves them to the calibrated slope.
        """
        c0 = int(cand_sizes[0])
        if n_depths < 2:
            return c0
        return c0 + c0 * int(cand_sizes[1])

    # -- decisions ---------------------------------------------------------------

    def predict(self, mode: str, backend: str, elements: float) -> float:
        """Predicted seconds of ``backend`` joining one pair in ``mode``."""
        return self.coefficients[mode][backend].predict(elements)

    def choose(
        self,
        find_first: bool,
        n_depths: int,
        cand_sizes: Sequence[int],
        requested: str = BACKEND_AUTO,
        fused_available: bool = True,
    ) -> str:
        """The backend that should join one pair.

        Parameters
        ----------
        find_first:
            Whether the run stops each pair at its first embedding.
        n_depths:
            Query size (DFS stack depth / frontier column count).
        cand_sizes:
            Per-depth candidate list sizes, in plan order.
        requested:
            ``SigmoConfig.join_backend`` — a forced backend or ``"auto"``.
        fused_available:
            Whether the caller can route pairs into a fused table (the
            per-pair ``tabular_join_pair`` entry point cannot).
        """
        if requested in (BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED):
            return requested
        if requested != BACKEND_AUTO:
            raise ValueError(
                f"join_backend must be one of {JOIN_BACKENDS}, got {requested!r}"
            )
        if n_depths < 2:
            # Single-node queries: nothing to vectorize, the scalar loop
            # is a plain candidate scan.
            return BACKEND_DFS
        mode = MODE_FIND_FIRST if find_first else MODE_FIND_ALL
        elements = self.estimate_elements(n_depths, cand_sizes)
        # Three-way cost comparison.  The fused table amortizes per-pair
        # overhead across the batch, so it owns the many-small-pairs
        # regime; the per-pair tabular pass probes a single graph's edge
        # index and wins back the enumeration-heavy regime above the
        # fused/tabular crossover.  Fused-vs-tabular ties go fused (the
        # batch backend), vectorized-vs-DFS ties go to the reference.
        tab_cost = self.predict(mode, BACKEND_TABULAR, elements)
        vectorized, vec_cost = BACKEND_TABULAR, tab_cost
        if fused_available:
            fused_cost = self.predict(mode, BACKEND_FUSED, elements)
            if fused_cost <= tab_cost:
                vectorized, vec_cost = BACKEND_FUSED, fused_cost
        dfs_cost = self.predict(mode, BACKEND_DFS, elements)
        return vectorized if vec_cost < dfs_cost else BACKEND_DFS

    def estimate_elements_batch(
        self, n_depths: int, counts: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`estimate_elements` over the columns of ``counts``.

        ``counts`` is ``int[n_depths, n_pairs]`` — one column of per-depth
        candidate sizes per pair, all of plan depth ``n_depths``.  Defers to
        the scalar method column-by-column when a subclass overrides it.
        """
        if type(self).estimate_elements is not PlanCostModel.estimate_elements:
            return np.array(
                [
                    self.estimate_elements(n_depths, counts[:, i].tolist())
                    for i in range(counts.shape[1])
                ],
                dtype=np.int64,
            )
        c0 = counts[0].astype(np.int64)
        if n_depths < 2:
            return c0
        return c0 + c0 * counts[1].astype(np.int64)

    def choose_batch(
        self,
        find_first: bool,
        n_depths: int,
        counts: np.ndarray,
        requested: str = BACKEND_AUTO,
        fused_available: bool = True,
    ) -> list[str]:
        """Vectorized :meth:`choose` over the columns of ``counts``.

        One call decides every pair of one plan depth.  ``counts`` is
        ``int[n_depths, n_pairs]``; the return value is the per-column
        backend name, identical to calling :meth:`choose` per column —
        subclasses that override the scalar decision are detected and
        deferred to so the batch path never diverges from them.
        """
        n_pairs = counts.shape[1]
        if (
            type(self).choose is not PlanCostModel.choose
            or type(self).predict is not PlanCostModel.predict
        ):
            return [
                self.choose(
                    find_first,
                    n_depths,
                    counts[:, i].tolist(),
                    requested,
                    fused_available,
                )
                for i in range(n_pairs)
            ]
        if requested in BACKEND_CODES:
            return [requested] * n_pairs
        if requested != BACKEND_AUTO:
            raise ValueError(
                f"join_backend must be one of {JOIN_BACKENDS}, got {requested!r}"
            )
        if n_depths < 2:
            return [BACKEND_DFS] * n_pairs
        mode = MODE_FIND_FIRST if find_first else MODE_FIND_ALL
        table = self.coefficients[mode]
        elements = self.estimate_elements_batch(n_depths, counts).astype(
            np.float64
        )
        c_dfs = table[BACKEND_DFS]
        c_tab = table[BACKEND_TABULAR]
        dfs_cost = c_dfs.pair_overhead + c_dfs.element_cost * elements
        tab_cost = c_tab.pair_overhead + c_tab.element_cost * elements
        if fused_available:
            c_fus = table[BACKEND_FUSED]
            fused_cost = c_fus.pair_overhead + c_fus.element_cost * elements
            vec_is_fused = fused_cost <= tab_cost
            vec_cost = np.where(vec_is_fused, fused_cost, tab_cost)
        else:
            vec_is_fused = np.zeros(n_pairs, dtype=bool)
            vec_cost = tab_cost
        codes = np.where(
            vec_cost < dfs_cost, np.where(vec_is_fused, 2, 1), 0
        )
        return [BACKEND_CODES[c] for c in codes.tolist()]

    def ordering(self, estimates: Sequence[int]) -> list[int]:
        """Packing order of fused pairs: descending estimated cost.

        Expensive pairs lead the table so early row blocks are dense;
        stable on the original index, so equal-cost pairs keep GMCR
        order.  Results are invariant to this order (asserted in
        ``tests/accel/test_fused.py``) — it shapes blocks, nothing else.
        """
        negated = -np.asarray(estimates, dtype=np.int64)
        return np.argsort(negated, kind="stable").tolist()

    # -- (de)serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready payload (see :func:`repro.accel.memo.save_cost_model`)."""
        return {
            "source": self.source,
            "coefficients": {
                mode: {
                    backend: {
                        "pair_overhead": cost.pair_overhead,
                        "element_cost": cost.element_cost,
                    }
                    for backend, cost in sorted(table.items())
                }
                for mode, table in sorted(self.coefficients.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PlanCostModel":
        """Rebuild a model from :meth:`to_payload` output."""
        coefficients = {
            mode: {
                backend: BackendCost(
                    pair_overhead=float(cost["pair_overhead"]),
                    element_cost=float(cost["element_cost"]),
                )
                for backend, cost in table.items()
            }
            for mode, table in payload["coefficients"].items()
        }
        for mode in (MODE_FIND_ALL, MODE_FIND_FIRST):
            if mode not in coefficients:
                raise ValueError(f"cost-model payload missing mode {mode!r}")
            for backend in (BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED):
                if backend not in coefficients[mode]:
                    raise ValueError(
                        f"cost-model payload missing backend {backend!r} "
                        f"for mode {mode!r}"
                    )
        return cls(
            coefficients=coefficients,
            source=str(payload.get("source", "calibrated")),
        )

    def with_source(self, source: str) -> "PlanCostModel":
        """Copy tagged with a different provenance string."""
        return replace(self, source=source)


_COST_MODEL = PlanCostModel()


def get_cost_model() -> PlanCostModel:
    """The process-wide dispatch cost model (default until calibrated)."""
    return _COST_MODEL


def set_cost_model(model: PlanCostModel | None) -> PlanCostModel:
    """Install ``model`` as the process-wide default (``None`` resets).

    Returns the model now active.  ``repro calibrate --install`` and
    tests use this; the engine reads the active model at each
    ``run_join`` unless the request carries an explicit override.
    """
    global _COST_MODEL
    _COST_MODEL = model if model is not None else PlanCostModel()
    return _COST_MODEL


def select_backend(
    find_first: bool,
    n_depths: int,
    cand_sizes: Sequence[int],
    requested: str = BACKEND_AUTO,
    model: PlanCostModel | None = None,
    fused_available: bool = True,
) -> str:
    """Back-compat dispatch entry point: delegate to the active cost model."""
    return (model or get_cost_model()).choose(
        find_first, n_depths, cand_sizes, requested, fused_available
    )
