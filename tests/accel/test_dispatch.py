"""Backend resolution: one backend per run, and the config override."""

import numpy as np
import pytest

from repro.accel import dispatch
from repro.accel.dispatch import (
    BACKEND_AUTO,
    BACKEND_DFS,
    BACKEND_FUSED,
    BACKEND_TABULAR,
    JOIN_BACKENDS,
    estimate_elements,
    packing_order,
    resolve_backend,
)
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_FIRST
from repro.graph.generators import path_graph, ring_graph
from repro.graph.labeled_graph import LabeledGraph

pytestmark = pytest.mark.perf_accel

#: The committed default coefficients of the fitted per-mode linear cost
#: model an earlier size rule replaced: backend -> (pair_overhead,
#: element_cost) in seconds.  ``auto`` must reproduce the model's
#: DFS-versus-fused choice.
REFERENCE_COEFFICIENTS = {
    "find-all": {
        BACKEND_DFS: (2.1e-6, 1.45e-7),
        BACKEND_TABULAR: (7.6e-6, 3.2e-8),
        BACKEND_FUSED: (1.5e-6, 3.54e-8),
    },
    "find-first": {
        BACKEND_DFS: (2.1e-6, 6.0e-8),
        BACKEND_TABULAR: (7.6e-6, 3.0e-8),
        BACKEND_FUSED: (1.5e-6, 3.34e-8),
    },
}

#: Oracle sweep: every estimated element count in ``[0, ORACLE_MAX]``.
ORACLE_MAX = 2_000_000
ORACLE_CHUNK = 250_000


def reference_fused(mode, elements):
    """Whether the fitted model picks fused over DFS, per element count.

    Fused wins if strictly cheaper than DFS.  Tabular does not compete:
    ``auto`` never picks it.
    """
    table = REFERENCE_COEFFICIENTS[mode]
    elements = elements.astype(np.float64)
    cost = {
        backend: overhead + slope * elements
        for backend, (overhead, slope) in table.items()
    }
    return cost[BACKEND_FUSED] < cost[BACKEND_DFS]


def counts_for(n_depths, elements, seed=0):
    """Per-depth candidate counts whose estimate is exactly ``elements``.

    ``c0 = 1, c1 = E - 1`` (``c0 = 0`` for ``E = 0``; ``c0 = E`` for
    single-depth plans); deeper depths get random sizes, which the
    estimate must ignore.
    """
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 10_000, size=(n_depths, elements.size))
    if n_depths < 2:
        counts[0] = elements
    else:
        counts[0] = np.minimum(elements, 1)
        counts[1] = np.maximum(elements - 1, 0)
    return counts


def _auto_split(queries, data, mode):
    """``backend_pairs`` of one ``auto`` run."""
    engine = SigmoEngine(queries, data, SigmoConfig(refinement_iterations=2))
    return engine.run(mode=mode).join_result.backend_pairs


class TestCostModel:
    """``auto``, checked against the fitted cost model it replaced."""

    def test_estimate_is_root_plus_first_expansion(self):
        assert estimate_elements(1, np.array([[7]])).tolist() == [7]
        # Deeper candidate lists never enter the estimate: pruning makes
        # them unknowable pre-join.
        counts = np.array([[4, 2], [5, 3], [10_000, 1]])
        assert estimate_elements(3, counts).tolist() == [4 + 4 * 5, 2 + 2 * 3]
        assert estimate_elements(3, counts).dtype == np.int64

    @pytest.mark.parametrize("mode", ["find-all", "find-first"])
    @pytest.mark.parametrize("n_depths", [1, 2, 3, 4, 5, 6])
    def test_rule_reproduces_fitted_model(self, mode, n_depths):
        # The model picks fused at every estimated size and plan depth,
        # which is what resolving ``auto`` once per run does.
        assert resolve_backend(BACKEND_AUTO) == BACKEND_FUSED
        for lo in range(0, ORACLE_MAX + 1, ORACLE_CHUNK):
            elements = np.arange(
                lo, min(lo + ORACLE_CHUNK, ORACLE_MAX + 1), dtype=np.int64
            )
            counts = counts_for(n_depths, elements, seed=lo)
            assert np.array_equal(
                estimate_elements(n_depths, counts), elements
            )
            assert reference_fused(mode, elements).all()

    def test_crossover_follows_coefficients(self):
        # Fused undercuts DFS on both the per-pair overhead and the
        # per-element slope in both modes, so the fitted lines never
        # cross at a non-negative size: the rule needs no threshold.
        assert not hasattr(dispatch, "FUSED_MAX_ELEMENTS")
        for table in REFERENCE_COEFFICIENTS.values():
            dfs, fused = table[BACKEND_DFS], table[BACKEND_FUSED]
            assert fused[0] < dfs[0] and fused[1] < dfs[1]
        assert resolve_backend(BACKEND_AUTO) == BACKEND_FUSED

    def test_find_first_is_a_cost_decision(self):
        # Find First resolves like Find All: every pair of an ``auto``
        # run, single-node queries included, rides the fused table.
        queries = [path_graph([1, 2]), LabeledGraph([1], [])]
        data = [ring_graph(6, [1, 1, 2, 1, 1, 2])]
        for mode in ("find-all", FIND_FIRST):
            assert _auto_split(queries, data, mode) == {
                BACKEND_DFS: 0,
                BACKEND_TABULAR: 0,
                BACKEND_FUSED: 2,
            }

    def test_fused_tabular_crossover(self):
        # Tabular is forced-only: ``auto`` never resolves to it.
        assert resolve_backend(BACKEND_AUTO) != BACKEND_TABULAR

    def test_single_node_query_rides_fused(self):
        # The table counts a single-node pair's work as the DFS does, so
        # it needs no DFS exception.
        data = [ring_graph(6, [1, 1, 2, 1, 1, 2])]
        split = _auto_split([LabeledGraph([2], [])], data, FIND_FIRST)
        assert split[BACKEND_FUSED] == 1 and split[BACKEND_DFS] == 0

    def test_ordering_descending_and_stable(self):
        assert packing_order(np.array([5, 9, 5, 12])).tolist() == [3, 1, 0, 2]
        assert packing_order(np.array([], dtype=np.int64)).tolist() == []


class TestOverride:
    def test_forced_backends_win_over_model(self):
        for backend in (BACKEND_DFS, BACKEND_TABULAR, BACKEND_FUSED):
            assert resolve_backend(backend) == backend

    def test_auto_is_default(self):
        assert resolve_backend() == resolve_backend(BACKEND_AUTO) == BACKEND_FUSED

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="join_backend"):
            resolve_backend("gpu")


class TestConfigKnob:
    def test_config_validates_backend(self):
        for backend in JOIN_BACKENDS:
            assert SigmoConfig(join_backend=backend).join_backend == backend
        with pytest.raises(ValueError, match="join_backend"):
            SigmoConfig(join_backend="vectorized")

    def test_with_backend_copies(self):
        base = SigmoConfig()
        forced = base.with_backend(BACKEND_TABULAR)
        assert base.join_backend == BACKEND_AUTO
        assert forced.join_backend == BACKEND_TABULAR
        assert forced.refinement_iterations == base.refinement_iterations
