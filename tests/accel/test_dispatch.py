"""Backend selection: the ``auto`` rule and the config override."""

import numpy as np
import pytest

from repro.accel import dispatch
from repro.accel.dispatch import (
    TABULAR_CODE,
    BACKEND_AUTO,
    BACKEND_CODES,
    BACKEND_DFS,
    BACKEND_FUSED,
    BACKEND_TABULAR,
    JOIN_BACKENDS,
    choose_backends,
    estimate_elements,
    packing_order,
)
from repro.core.config import SigmoConfig

pytestmark = pytest.mark.perf_accel

#: The committed default coefficients of the fitted per-mode linear cost
#: model an earlier size rule replaced: backend -> (pair_overhead,
#: element_cost) in seconds.  With the tabular arm forced-only, the rule
#: must reproduce the model's DFS-versus-fused choice.
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


def reference_codes(mode, n_depths, elements):
    """The fitted model's DFS-versus-fused cost comparison, per element count.

    Single-node queries stay on DFS; otherwise fused wins if strictly
    cheaper than DFS.  Tabular no longer competes: ``auto`` never picks it.
    """
    if n_depths < 2:
        return np.zeros(elements.size, dtype=np.int8)
    table = REFERENCE_COEFFICIENTS[mode]
    elements = elements.astype(np.float64)
    cost = {
        backend: overhead + slope * elements
        for backend, (overhead, slope) in table.items()
    }
    codes = np.where(
        cost[BACKEND_FUSED] < cost[BACKEND_DFS],
        BACKEND_CODES.index(BACKEND_FUSED),
        BACKEND_CODES.index(BACKEND_DFS),
    )
    return codes.astype(np.int8)


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


def _one(n_depths, counts, requested=BACKEND_AUTO):
    """The backend name chosen for one pair with per-depth ``counts``."""
    column = np.asarray(counts, dtype=np.int64).reshape(-1, 1)
    return BACKEND_CODES[int(choose_backends(n_depths, column, requested)[0])]


class TestCostModel:
    """The ``auto`` rule, checked against the fitted cost model it replaced."""

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
        for lo in range(0, ORACLE_MAX + 1, ORACLE_CHUNK):
            elements = np.arange(
                lo, min(lo + ORACLE_CHUNK, ORACLE_MAX + 1), dtype=np.int64
            )
            counts = counts_for(n_depths, elements, seed=lo)
            assert np.array_equal(
                estimate_elements(n_depths, counts), elements
            )
            got = choose_backends(n_depths, counts)
            assert got.dtype == np.int8
            assert np.array_equal(got, reference_codes(mode, n_depths, elements))

    def test_crossover_follows_coefficients(self):
        # Fused undercuts DFS on both the per-pair overhead and the
        # per-element slope in both modes, so the fitted lines never
        # cross at a non-negative size: the rule needs no threshold.
        assert not hasattr(dispatch, "FUSED_MAX_ELEMENTS")
        for table in REFERENCE_COEFFICIENTS.values():
            dfs, fused = table[BACKEND_DFS], table[BACKEND_FUSED]
            assert fused[0] < dfs[0] and fused[1] < dfs[1]
        assert _one(2, [0, 0]) == BACKEND_FUSED
        assert _one(2, [1, 10**9]) == BACKEND_FUSED

    def test_find_first_is_a_cost_decision(self):
        # Find First is decided like Find All: moderate and
        # enumeration-heavy pairs alike ride the fused table.
        assert _one(5, [10, 20, 1, 1, 1]) == BACKEND_FUSED
        assert _one(5, [1000, 1000, 1, 1, 1]) == BACKEND_FUSED

    def test_fused_tabular_crossover(self):
        # Tabular is forced-only: no estimate sends a pair there.
        for n_depths in range(2, 7):
            tail = [1] * (n_depths - 2)
            for head in ([1, 1793], [1, 1794], [2, 896], [5, 358], [900, 900]):
                assert _one(n_depths, head + tail) == BACKEND_FUSED
            counts = counts_for(n_depths, np.arange(0, 40_000, 3, dtype=np.int64))
            assert (choose_backends(n_depths, counts) != TABULAR_CODE).all()

    def test_single_node_query_stays_on_dfs(self):
        # Nothing to vectorize at depth 1, however big the candidate list.
        assert _one(1, [10_000_000]) == BACKEND_DFS
        assert _one(1, [1]) == BACKEND_DFS

    def test_ordering_descending_and_stable(self):
        assert packing_order(np.array([5, 9, 5, 12])).tolist() == [3, 1, 0, 2]
        assert packing_order(np.array([], dtype=np.int64)).tolist() == []


class TestOverride:
    def test_forced_backends_win_over_model(self):
        # Forcing beats every rule, including the depth-1 guard.
        assert _one(1, [1], BACKEND_TABULAR) == BACKEND_TABULAR
        assert _one(1, [1], BACKEND_FUSED) == BACKEND_FUSED
        assert _one(9, [9999] * 9, BACKEND_DFS) == BACKEND_DFS
        assert _one(2, [1, 1], BACKEND_TABULAR) == BACKEND_TABULAR
        assert _one(2, [9999, 9999], BACKEND_FUSED) == BACKEND_FUSED
        counts = counts_for(3, np.arange(0, 4000, 7, dtype=np.int64))
        for code, backend in enumerate(BACKEND_CODES):
            assert (choose_backends(3, counts, backend) == code).all()

    def test_auto_is_default(self):
        counts = counts_for(3, np.arange(0, 4000, 7, dtype=np.int64))
        assert np.array_equal(
            choose_backends(3, counts), choose_backends(3, counts, BACKEND_AUTO)
        )

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="join_backend"):
            choose_backends(2, np.array([[10], [10]]), "gpu")


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
