"""Unit tests for the engine orchestration."""

import pytest

from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine, count_matches, find_all, find_first
from repro.graph.generators import path_graph, ring_graph


class TestEngineBasics:
    def test_requires_nonempty_batches(self):
        with pytest.raises(ValueError):
            SigmoEngine([], [path_graph([0])])
        with pytest.raises(ValueError):
            SigmoEngine([path_graph([0])], [])

    def test_run_produces_timings(self):
        res = SigmoEngine([path_graph([1, 2])], [path_graph([1, 2])]).run()
        assert res.filter_seconds > 0
        assert "mapping" in res.timings
        assert res.total_seconds >= res.join_seconds

    def test_memory_report(self):
        res = SigmoEngine([path_graph([1, 2])], [path_graph([1, 2, 1])]).run()
        assert res.memory.candidate_bitmap > 0
        assert res.memory.total >= res.memory.candidate_bitmap
        fr = res.memory.fractions()
        assert abs(sum(fr.values()) - 1.0) < 1e-9

    def test_per_run_config_override(self):
        engine = SigmoEngine(
            [path_graph([1, 2])],
            [path_graph([1, 3, 2])],
            SigmoConfig(refinement_iterations=1),
        )
        res1 = engine.run()
        res2 = engine.run(config=SigmoConfig(refinement_iterations=3))
        assert len(res1.filter_result.iterations) == 1
        # The default filter treats the iteration count as a cap.
        assert res2.filter_result.cap == 3
        assert 1 <= res2.filter_result.depth <= 3
        res3 = engine.run(
            config=SigmoConfig(refinement_iterations=3, edge_signatures=False)
        )
        assert len(res3.filter_result.iterations) == 3

    def test_iteration_sweep(self):
        engine = SigmoEngine([path_graph([1, 2])], [ring_graph(6, [1, 1, 2, 1, 1, 2])])
        sweep = engine.run_iteration_sweep([1, 2, 3])
        assert sorted(sweep) == [1, 2, 3]
        # results identical across iterations (filter only prunes)
        assert len({r.total_matches for r in sweep.values()}) == 1


class TestConvenience:
    def test_find_all(self):
        res = find_all([path_graph([1, 2])], [ring_graph(6, [1, 1, 2, 1, 1, 2])])
        assert res.total_matches == 4 and res.mode == "find-all"

    def test_find_first(self):
        res = find_first([path_graph([1, 2])], [ring_graph(6, [1, 1, 2, 1, 1, 2])])
        assert res.total_matches == 1 and res.mode == "find-first"

    def test_count_matches(self):
        assert count_matches(path_graph([1, 2]), path_graph([2, 1, 2])) == 2

    def test_throughput_and_summary(self):
        res = find_all([path_graph([1, 2])], [path_graph([1, 2])])
        assert res.throughput() > 0
        assert "matches=1" in res.summary()

    def test_node_sets(self):
        res = find_all(
            [path_graph([1, 1])],
            [path_graph([1, 1])],
            SigmoConfig(record_embeddings=True),
        )
        # 2 embeddings but a single node subset
        assert res.total_matches == 2
        assert len(res.node_sets()) == 1
