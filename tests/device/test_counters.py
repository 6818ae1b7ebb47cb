"""Unit tests for the counter extraction."""

import numpy as np
import pytest

from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.device.counters import KernelCounters, PipelineCounters, counters_from_result


@pytest.fixture(scope="module")
def run_and_counters():
    ds = build_benchmark(scale=1.0, n_queries=10, n_data_graphs=25, seed=9)
    engine = SigmoEngine(
        ds.queries,
        ds.data,
        # The paper's node-only filter runs every iteration it is given.
        SigmoConfig(refinement_iterations=4, edge_signatures=False),
    )
    result = engine.run()
    return result, counters_from_result(result, engine.query, engine.data)


class TestKernelCounters:
    def test_intensity(self):
        k = KernelCounters(name="x", instructions=100, bytes_hbm=50)
        assert k.instruction_intensity() == pytest.approx(2.0)

    def test_intensity_no_bytes(self):
        assert KernelCounters(name="x", instructions=1).instruction_intensity() == float("inf")

    def test_scaled(self):
        k = KernelCounters(name="x", instructions=10, bytes_hbm=20, work_items=5)
        s = k.scaled(3)
        assert s.instructions == 30 and s.bytes_hbm == 60 and s.work_items == 15


class TestExtraction:
    def test_one_filter_kernel_per_iteration(self, run_and_counters):
        result, cnt = run_and_counters
        assert len(cnt.filter_iterations) == 4
        assert cnt.filter_iterations[0].name == "filter-1"

    def test_mapping_and_join_present(self, run_and_counters):
        _, cnt = run_and_counters
        assert cnt.mapping is not None and cnt.join is not None
        assert cnt.join.instructions > 0

    def test_join_work_distribution_present(self, run_and_counters):
        result, cnt = run_and_counters
        assert cnt.join.work_per_item is not None
        assert cnt.join.work_per_item.size == result.gmcr.n_pairs

    def test_later_iterations_cheaper(self, run_and_counters):
        # survivor-driven refine cost shrinks as candidates shrink (the
        # small BFS-ring term can wiggle, so compare first vs last).
        _, cnt = run_and_counters
        instr = [k.instructions for k in cnt.filter_iterations[1:]]
        assert instr[-1] <= instr[0]

    def test_filter_total_merges(self, run_and_counters):
        _, cnt = run_and_counters
        total = cnt.filter_total
        assert total.instructions == pytest.approx(
            sum(k.instructions for k in cnt.filter_iterations)
        )

    def test_all_kernels_order(self, run_and_counters):
        _, cnt = run_and_counters
        names = [k.name for k in cnt.all_kernels()]
        assert names[-2:] == ["mapping", "join"]

    def test_pipeline_scaled(self, run_and_counters):
        _, cnt = run_and_counters
        s = cnt.scaled(10)
        assert s.join.instructions == pytest.approx(cnt.join.instructions * 10)
        assert len(s.filter_iterations) == len(cnt.filter_iterations)
