"""Unit tests for the occupancy timeline (Fig. 8 reconstruction)."""

import numpy as np
import pytest

from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.device.counters import counters_from_result
from repro.device.occupancy import OccupancyTimeline, build_timeline
from repro.device.spec import DEVICES
from repro.perf.model import PerformanceModel


@pytest.fixture(scope="module")
def timeline():
    ds = build_benchmark(scale=1.0, n_queries=12, n_data_graphs=30, seed=2)
    engine = SigmoEngine(
        # The paper's node-only filter: six iterations, six filter peaks.
        ds.queries, ds.data, SigmoConfig(refinement_iterations=6, edge_signatures=False)
    )
    result = engine.run()
    factor = 114901 / 30
    cnt = counters_from_result(result, engine.query, engine.data).scaled(factor)
    device = DEVICES["nvidia-v100s"]
    model = PerformanceModel(device)
    times = model.estimate(cnt).per_kernel
    return build_timeline(cnt, times, device)


class TestTimelineMechanics:
    def test_append_sequencing(self):
        t = OccupancyTimeline()
        t.append(1.0, 0.5, "a")
        t.append(2.0, 0.9, "b")
        assert t.total_seconds == pytest.approx(3.0)
        assert t.segments[1].t_start_s == pytest.approx(1.0)

    def test_sample_shapes(self):
        t = OccupancyTimeline()
        t.append(1.0, 0.5, "a")
        times, occ = t.sample(100)
        assert times.shape == occ.shape == (100,)
        assert occ.max() == pytest.approx(50.0)

    def test_mean_occupancy(self):
        t = OccupancyTimeline()
        t.append(1.0, 1.0, "x")
        t.append(1.0, 0.0, "x-sync")
        assert t.mean_occupancy("x") == pytest.approx(0.5)


class TestFig8Shape:
    def test_six_filter_peaks(self, timeline):
        # paper: "six distinct peaks corresponding to the filter phase"
        assert timeline.phase_peaks("filter") == 6

    def test_filter_reaches_high_occupancy(self, timeline):
        filter_segs = [
            s for s in timeline.segments
            if s.phase.startswith("filter") and not s.phase.endswith("sync")
        ]
        assert max(s.occupancy for s in filter_segs) >= 0.95

    def test_join_occupancy_mid_range(self, timeline):
        join = [s for s in timeline.segments if s.phase == "join"]
        assert len(join) == 1
        # paper: join plateaus around 48%
        assert 0.2 <= join[0].occupancy <= 0.8

    def test_sync_dips_between_filters(self, timeline):
        syncs = [s for s in timeline.segments if s.phase.endswith("sync")]
        assert len(syncs) == 6
        assert all(s.occupancy < 0.2 for s in syncs)

    def test_starts_with_init_gap(self, timeline):
        assert timeline.segments[0].phase == "init"
        assert timeline.segments[0].occupancy == 0.0
