"""Profiles and baseline comparison (``repro profile``)."""

import copy

import pytest

from repro.obs.export import validate_metrics
from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.profile import (
    PIPELINE_STAGES,
    ProfileBaseline,
    format_profile,
    format_regressions,
    smoke_profile,
)

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def profile():
    """One small smoke profile shared across this module's tests."""
    return smoke_profile(n_queries=8, n_data_graphs=40, seed=3, iterations=4)


class TestProfile:
    def test_payload_validates(self, profile):
        payload = profile.payload()
        assert validate_metrics(payload) == []
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["context"]["workload"] == "smoke"
        assert payload["counters"]["engine.matches"] >= 0

    def test_stage_split_covers_the_pipeline(self, profile):
        names = [s["stage"] for s in profile.stages]
        assert set(names) <= set(PIPELINE_STAGES)
        for required in ("filter", "mapping", "join"):
            assert required in names
        assert all(s["count"] >= 1 for s in profile.stages)
        # The filter stage counts the refinement iterations that ran.
        filter_row = next(s for s in profile.stages if s["stage"] == "filter")
        assert filter_row["count"] == profile.context["filter_depth"]
        assert 1 <= filter_row["count"] <= profile.context["filter_cap"] == 4

    def test_top_kernels_sorted_by_simulated_bytes(self, profile):
        assert profile.kernels
        top = profile.top_kernels(3)
        assert len(top) <= 3
        sizes = [row["bytes_total"] for row in top]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == max(r["bytes_total"] for r in profile.kernels)

    def test_kernel_rows_have_roofline_annotations(self, profile):
        bounds = {row["bound"] for row in profile.kernels}
        assert bounds - {"-"}  # at least one kernel placed on the roofline
        for row in profile.kernels:
            assert 0.0 <= row["roof_fraction"] <= 1.0 + 1e-9

    def test_format_profile_report(self, profile):
        text = format_profile(profile, top_k=3)
        assert "stage breakdown" in text
        assert "filter" in text and "join" in text
        assert "top 3 kernels by simulated bytes" in text
        for row in profile.top_kernels(3):
            assert row["kernel"] in text

    def test_fused_line_counts_pairs_not_tables(self, profile):
        counters = profile.metrics.counters
        tables = int(counters["join.fused.tables"])
        pairs = int(counters["join.backend_pairs.fused"])
        assert pairs > tables >= 1
        text = format_profile(profile)
        assert (
            f"fused join: {tables} table(s), {pairs} pairs "
            f"({pairs / tables:.1f} pairs/table)"
        ) in text


class TestProfileBaseline:
    def test_profile_matches_itself(self, profile):
        payload = profile.payload()
        baseline = ProfileBaseline(copy.deepcopy(payload))
        assert baseline.compare(payload) == []

    def test_work_counter_regression_flagged(self, profile):
        payload = profile.payload()
        baseline = ProfileBaseline(copy.deepcopy(payload))
        payload = copy.deepcopy(payload)
        payload["counters"]["join.edge_checks"] *= 2
        regs = baseline.compare(payload, tolerance=0.1)
        assert [r.metric for r in regs] == ["join.edge_checks"]
        assert regs[0].kind == "work"

    def test_small_counter_growth_within_tolerance(self, profile):
        payload = profile.payload()
        baseline = ProfileBaseline(copy.deepcopy(payload))
        payload = copy.deepcopy(payload)
        payload["counters"]["join.edge_checks"] *= 1.05
        assert baseline.compare(payload, tolerance=0.1) == []

    def test_match_count_must_agree_exactly_both_directions(self, profile):
        payload = profile.payload()
        baseline = ProfileBaseline(copy.deepcopy(payload))
        for delta in (+1, -1):
            current = copy.deepcopy(payload)
            current["counters"]["engine.matches"] += delta
            regs = baseline.compare(current)
            assert [r.kind for r in regs] == ["matches"]

    def test_missing_metric_flagged(self, profile):
        payload = profile.payload()
        baseline = ProfileBaseline(copy.deepcopy(payload))
        current = copy.deepcopy(payload)
        del current["counters"]["join.stack_pushes"]
        regs = baseline.compare(current)
        assert [(r.metric, r.kind) for r in regs] == [
            ("join.stack_pushes", "missing")
        ]

    def synthetic(self, gauges):
        return {
            "schema": METRICS_SCHEMA,
            "counters": {},
            "gauges": dict(gauges),
            "histograms": {},
        }

    def test_wall_clock_gauges_use_loose_tolerance(self):
        baseline = ProfileBaseline(
            self.synthetic({"engine.stage_seconds.join": 1.0})
        )
        noisy = self.synthetic({"engine.stage_seconds.join": 1.8})
        assert baseline.compare(noisy, tolerance=0.1, time_tolerance=1.0) == []
        slow = self.synthetic({"engine.stage_seconds.join": 2.5})
        regs = baseline.compare(slow, tolerance=0.1, time_tolerance=1.0)
        assert [r.kind for r in regs] == ["time"]

    def test_microsecond_stages_never_flag_on_jitter(self):
        # A 10x blowup of a 0.1 ms stage is scheduler noise, not a
        # regression: wall-clock gauges need absolute growth too.
        baseline = ProfileBaseline(
            self.synthetic({"engine.stage_seconds.initialize_candidates": 1e-4})
        )
        jitter = self.synthetic(
            {"engine.stage_seconds.initialize_candidates": 1e-3}
        )
        assert baseline.compare(jitter, time_tolerance=1.0) == []

    def test_model_seconds_use_tight_tolerance(self):
        baseline = ProfileBaseline(self.synthetic({"model.total_seconds": 1.0}))
        drift = self.synthetic({"model.total_seconds": 1.2})
        regs = baseline.compare(drift, tolerance=0.1, time_tolerance=1.0)
        assert [r.metric for r in regs] == ["model.total_seconds"]

    def test_non_time_gauges_are_informational(self):
        baseline = ProfileBaseline(self.synthetic({"roofline.roof_fraction.join": 0.1}))
        current = self.synthetic({"roofline.roof_fraction.join": 0.9})
        assert baseline.compare(current) == []

    def test_format_regressions(self, profile):
        payload = profile.payload()
        baseline = ProfileBaseline(copy.deepcopy(payload))
        current = copy.deepcopy(payload)
        current["counters"]["engine.matches"] += 5
        text = format_regressions(baseline.compare(current))
        assert "1 regression(s) against baseline:" in text
        assert "engine.matches" in text
        assert format_regressions([]) == ""
