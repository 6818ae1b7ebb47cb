"""Qualitative paper-claim checks: the shapes the evaluation section reports.

These are the cheap, always-on versions of the benchmark harness: each test
asserts one directional claim from the paper on a small calibrated dataset.
The full quantitative reproductions live in benchmarks/.
"""

import numpy as np
import pytest

from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.device.counters import counters_from_result
from repro.device.spec import DEVICES
from repro.perf.model import PerformanceModel


#: The paper's signatures are node-only (its join checks bond orders), so
#: every claim here runs without the edge-aware refinement pass.
PAPER_CONFIG = SigmoConfig(edge_signatures=False)


@pytest.fixture(scope="module")
def sweep(small_dataset):
    engine = SigmoEngine(small_dataset.queries, small_dataset.data, PAPER_CONFIG)
    return engine, engine.run_iteration_sweep([1, 2, 4, 6])


class TestFig5Claims:
    def test_first_iteration_prunes_most(self, sweep):
        """'A significant reduction in candidate sets is observed after the
        first iteration.'"""
        _, results = sweep
        stats = results[6].filter_result.iterations
        drop_1_2 = stats[0].total_candidates - stats[1].total_candidates
        later_drops = stats[1].total_candidates - stats[-1].total_candidates
        assert drop_1_2 > 0
        assert drop_1_2 >= later_drops * 0.5

    def test_candidates_plateau(self, sweep):
        _, results = sweep
        stats = results[6].filter_result.iterations
        totals = [s.total_candidates for s in stats]
        # relative marginal pruning shrinks towards the end
        first_rel = (totals[0] - totals[1]) / totals[0]
        last_rel = (totals[-2] - totals[-1]) / totals[-2]
        assert last_rel < first_rel


class TestFig6Claims:
    def test_join_work_decreases_with_iterations(self, sweep):
        _, results = sweep
        visits = {
            s: r.join_result.stats.candidate_visits for s, r in results.items()
        }
        assert visits[1] > visits[2] >= visits[6]

    def test_filter_cost_grows_with_iterations(self, sweep):
        _, results = sweep
        # modeled filter time grows with iteration count on any device
        engine = sweep[0]
        model = PerformanceModel(DEVICES["nvidia-v100s"])
        f_times = {}
        for s, r in results.items():
            cnt = counters_from_result(r, engine.query, engine.data)
            f_times[s] = model.estimate(cnt).filter_seconds
        assert f_times[1] < f_times[2] < f_times[6]


class TestFig10Claims:
    def test_sigmo_faster_than_pairwise_vf3(self, small_dataset):
        """Batching beats one-pair-at-a-time state-space search."""
        import time

        from repro.baselines.vf2 import vf3_batch

        queries = small_dataset.queries[:8]
        data = small_dataset.data[:20]
        t0 = time.perf_counter()
        sigmo_matches = SigmoEngine(queries, data, PAPER_CONFIG).run().total_matches
        t_sigmo = time.perf_counter() - t0
        t0 = time.perf_counter()
        vf3_matches = vf3_batch(queries, data)
        t_vf3 = time.perf_counter() - t0
        assert sigmo_matches == vf3_matches
        # SIGMo must win on batches (the paper reports 33.6x on GPU; on the
        # CPU substrate we only assert the direction)
        assert t_sigmo < t_vf3

    def test_cuts_like_finds_more_raw_matches(self, small_dataset):
        """'cuTS does not support labels, leading to a higher number of
        matches.'"""
        from repro.baselines.cuts_like import CutsLikeMatcher
        from repro.baselines.vf2 import VF3Matcher

        total_labeled = 0
        total_blind = 0
        for q in small_dataset.queries[:5]:
            for d in small_dataset.data[:10]:
                total_labeled += VF3Matcher(q, d).count_all()
                total_blind += CutsLikeMatcher(q, d).count_all()
        assert total_blind > total_labeled


class TestFig11Claims:
    def test_device_ordering_at_fixed_iterations(self, sweep):
        """AMD fastest, Intel slowest at >= 2 iterations (section 5.3)."""
        engine, results = sweep
        cnt = counters_from_result(results[6], engine.query, engine.data)
        cnt = cnt.scaled(500)
        totals = {
            name: PerformanceModel(DEVICES[name]).estimate(cnt).total_seconds
            for name in ("nvidia-v100s", "amd-mi100", "intel-max1100")
        }
        assert totals["amd-mi100"] < totals["nvidia-v100s"] < totals["intel-max1100"]

    def test_intel_optimum_earlier(self, sweep):
        """Intel's weak compute makes extra refinement iterations more
        expensive, so its best iteration count is earlier (paper: 2 vs 5-6)."""
        engine, results = sweep
        best = {}
        for name in ("nvidia-v100s", "intel-max1100"):
            model = PerformanceModel(DEVICES[name])
            times = {}
            for s, r in results.items():
                cnt = counters_from_result(r, engine.query, engine.data).scaled(500)
                times[s] = model.estimate(cnt).total_seconds
            best[name] = min(times, key=times.get)
        assert best["intel-max1100"] <= best["nvidia-v100s"]


class TestFindFirstClaims:
    def test_find_first_cheaper_than_find_all(self, small_dataset):
        # The claim is about the paper's DFS search (abandon the pair at
        # the first embedding), so pin the reference backend: the
        # vectorized backends agree on results but pay block-granular
        # work, so their Find First visit counters can tie Find All on
        # tiny pairs (see repro.accel.fused).
        engine = SigmoEngine(
            small_dataset.queries,
            small_dataset.data,
            PAPER_CONFIG.with_backend("dfs"),
        )
        fa = engine.run()
        ff = engine.run(mode="find-first")
        assert (
            ff.join_result.stats.candidate_visits
            < fa.join_result.stats.candidate_visits
        )
        assert ff.total_matches <= fa.total_matches
