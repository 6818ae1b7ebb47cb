"""Observability of the join backends: kernel spans and profile counters."""

import pytest

from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.obs.profile import build_profile, format_profile
from repro.obs.trace import tracing

pytestmark = [pytest.mark.perf_accel, pytest.mark.obs]

BACKENDS = ("dfs", "tabular", "fused")


def _engine(bench, backend):
    return SigmoEngine(
        bench.queries, bench.data, SigmoConfig(join_backend=backend)
    )


class TestKernelSpans:
    def test_forced_dfs_emits_only_dfs_spans(self, bench):
        with tracing() as t:
            _engine(bench, "dfs").run()
        assert len(t.find("kernel:join-dfs")) > 0
        assert t.find("kernel:accel:join-tabular") == []
        assert t.find("kernel:accel:join-fused") == []

    def test_forced_tabular_emits_only_tabular_spans(self, bench):
        with tracing() as t:
            _engine(bench, "tabular").run()
        assert len(t.find("kernel:accel:join-tabular")) > 0
        assert t.find("kernel:join-dfs") == []
        assert t.find("kernel:accel:join-fused") == []

    def test_forced_fused_emits_only_fused_spans(self, bench):
        with tracing() as t:
            result = _engine(bench, "fused").run()
        fused = t.find("kernel:accel:join-fused")
        assert len(fused) > 0
        assert t.find("kernel:join-dfs") == []
        assert t.find("kernel:accel:join-tabular") == []
        # Every fused-dispatched pair rides exactly one table.
        pairs = sum(sp.attrs["pairs"] for sp in fused)
        assert pairs == result.join_result.backend_pairs["fused"]
        # Each wave's table memory; the result keeps the largest.
        jr = result.join_result
        assert max(sp.attrs["peak_table_bytes"] for sp in fused) == jr.fused_peak_table_bytes > 0
        assert max(sp.attrs["level_table_bytes"] for sp in fused) == jr.fused_level_table_bytes > 0

    def test_auto_tags_each_pair_with_its_backend(self, bench):
        with tracing() as t:
            result = _engine(bench, "auto").run()
        split = result.join_result.backend_pairs
        assert len(t.find("kernel:join-dfs")) == split["dfs"]
        assert len(t.find("kernel:accel:join-tabular")) == split["tabular"]
        fused_pairs = sum(
            sp.attrs["pairs"] for sp in t.find("kernel:accel:join-fused")
        )
        assert fused_pairs == split["fused"]
        assert sum(split.values()) == result.join_result.stats.pairs_joined

    def test_stage_span_carries_backend_split(self, bench):
        with tracing() as t:
            result = _engine(bench, "auto").run()
        (stage,) = t.find("stage:join")
        split = result.join_result.backend_pairs
        assert stage.attrs["backend_pairs_dfs"] == split["dfs"]
        assert stage.attrs["backend_pairs_tabular"] == split["tabular"]
        assert stage.attrs["backend_pairs_fused"] == split["fused"]


class TestProfileCounters:
    def test_backend_counters_in_profile(self, bench):
        engine = _engine(bench, "auto")
        result = engine.run()
        profile = build_profile(result, engine.query, engine.data)
        counters = profile.metrics.counters
        split = result.join_result.backend_pairs
        visits = result.join_result.backend_visits
        for backend in BACKENDS:
            assert counters[f"join.backend_pairs.{backend}"] == split[backend]
            assert counters[f"join.backend_visits.{backend}"] == visits[backend]
        total = counters["join.candidate_visits"]
        assert (
            sum(counters[f"join.backend_visits.{b}"] for b in BACKENDS) == total
        )

    def test_fused_table_metrics_in_profile(self, bench):
        engine = _engine(bench, "fused")
        result = engine.run()
        profile = build_profile(result, engine.query, engine.data)
        jr = result.join_result
        assert profile.metrics.counters["join.fused.tables"] == jr.fused_tables
        hist = profile.metrics.histograms["join.fused.pairs_per_table"]
        assert hist.count == jr.fused_tables
        assert hist.sum == sum(jr.fused_pairs_per_table)

    def test_fused_early_exit_histogram(self):
        # A label-uniform ring makes the path query's frontier span
        # several blocks, so Find First retirement fires mid-table.
        from repro.accel.fused import FUSED_BLOCK_ELEMS
        from repro.graph.generators import path_graph, ring_graph

        n = FUSED_BLOCK_ELEMS // 2 + 400
        engine = SigmoEngine(
            [path_graph([1, 1, 1])],
            [ring_graph(n, [1] * n)],
            SigmoConfig(join_backend="fused"),
        )
        result = engine.run(mode="find-first")
        profile = build_profile(result, engine.query, engine.data)
        jr = result.join_result
        assert jr.fused_early_exit_depths
        hist = profile.metrics.histograms["join.fused.early_exit_depth"]
        assert hist.count == len(jr.fused_early_exit_depths)
        assert hist.sum == sum(jr.fused_early_exit_depths)

    def test_report_shows_backend_split(self, bench):
        engine = _engine(bench, "auto")
        result = engine.run()
        profile = build_profile(result, engine.query, engine.data)
        report = format_profile(profile)
        assert "join backend split:" in report
        assert "fused:" in report
        assert "fused join:" in report and "pairs/table" in report
