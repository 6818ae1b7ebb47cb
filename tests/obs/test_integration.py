"""End-to-end observability acceptance tests.

Covers the PR's acceptance criteria: a traced ``find_all`` run produces a
four-level span hierarchy (run -> stage -> kernel -> work-group), tracing
never changes match results, the no-op tracer is cheap, per-stage counts
aggregate correctly through chunked/resumed/checkpointed execution, the
runtime report speaks the metrics schema, and ``repro profile`` round-trips
through its JSON/trace/baseline flags.
"""

import copy
import json
import time

import pytest

from repro.chem.datasets import build_benchmark
from repro.cli import main as cli_main
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import JoinBudget
from repro.obs.export import (
    load_metrics,
    stable_json,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import METRICS_SCHEMA, collecting
from repro.obs.trace import NULL_TRACER, get_tracer, tracing
from repro.pipeline import MatcherSession
from repro.runtime.resilient import run_resilient

pytestmark = pytest.mark.obs

N_QUERIES = 6
N_DATA = 30
SEED = 7
ITERATIONS = 3


@pytest.fixture(scope="module")
def dataset():
    """Small deterministic workload shared across this module."""
    return build_benchmark(
        scale=1.0, n_queries=N_QUERIES, n_data_graphs=N_DATA, seed=SEED
    )


def run_once(dataset, config=None):
    config = config or SigmoConfig(refinement_iterations=ITERATIONS)
    engine = SigmoEngine(dataset.queries, dataset.data, config)
    return engine.run(mode="find-all")


class TestTracedPipeline:
    def test_find_all_produces_four_nested_levels(self, dataset):
        with tracing() as t:
            result = run_once(dataset)
        assert result.total_matches > 0
        assert t.max_depth() >= 3  # depths 0..3 = four nested levels
        roots = t.roots()
        assert [r.name for r in roots if r.lane == "main"] == ["run"]
        # Walk one work-group span back up to the root: wg -> kernel ->
        # stage -> run, the hierarchy the profile report is built from.
        by_id = {s.span_id: s for s in t.spans}
        wg = next(s for s in t.spans if s.category == "workgroup")
        chain = [wg]
        while chain[-1].parent_id is not None:
            chain.append(by_id[chain[-1].parent_id])
        categories = [s.category for s in reversed(chain)]
        assert categories[0] == "engine"
        assert "stage" in categories and "kernel" in categories
        assert {"engine", "stage", "kernel", "workgroup"} <= {
            s.category for s in t.spans
        }

    def test_run_span_attrs_match_result(self, dataset):
        with tracing() as t:
            result = run_once(dataset)
        run = t.find("run")[0]
        assert run.attrs["mode"] == "find-all"
        assert run.attrs["n_queries"] == N_QUERIES
        assert run.attrs["n_data_graphs"] == N_DATA
        assert run.attrs["matches"] == result.total_matches

    def test_tracing_does_not_change_results(self, dataset):
        config = SigmoConfig(refinement_iterations=ITERATIONS, record_embeddings=True)
        assert get_tracer() is NULL_TRACER
        plain = run_once(dataset, config)
        with tracing():
            traced = run_once(dataset, config)
        assert traced.total_matches == plain.total_matches
        assert traced.matched_pairs() == plain.matched_pairs()
        assert traced.embeddings == plain.embeddings
        assert traced.stage_counts == plain.stage_counts
        assert traced.join_result.stats == plain.join_result.stats
        assert (
            traced.join_result.pair_visits.tolist()
            == plain.join_result.pair_visits.tolist()
        )
        budget = JoinBudget(max_visits=plain.join_result.stats.candidate_visits // 2)
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        runs = [engine.run(join_budget=budget)]
        with tracing():
            runs.append(engine.run(join_budget=budget))
        tokens = [
            (j.truncated, j.resume_pair, j.truncate_reason)
            for j in (r.join_result for r in runs)
        ]
        assert tokens[0][0] and tokens[0] == tokens[1]
        assert runs[0].embeddings == runs[1].embeddings

    def test_two_seeded_runs_export_byte_identical_traces(self, dataset):
        with tracing() as t1:
            run_once(dataset)
        with tracing() as t2:
            run_once(dataset)
        from repro.obs.export import chrome_trace

        assert stable_json(chrome_trace(t1)) == stable_json(chrome_trace(t2))

    def test_noop_tracer_overhead_is_negligible(self, dataset):
        # Measure per-call cost of a disabled span, then bound the total
        # no-op cost of all spans a traced run would open against the
        # workload's runtime.  This stays robust on noisy CI machines
        # where directly diffing two wall-clock runs flakes.
        start = time.perf_counter()
        run_once(dataset)
        workload_seconds = time.perf_counter() - start

        with tracing() as t:
            run_once(dataset)
        n_spans = len(t.spans)

        reps = 20_000
        start = time.perf_counter()
        for _ in range(reps):
            with NULL_TRACER.span("kernel:x", category="kernel", work_items=1):
                pass
        per_span = (time.perf_counter() - start) / reps
        assert per_span * n_spans < 0.05 * workload_seconds


class TestStageCounts:
    def test_engine_counts_filter_iterations(self, dataset):
        result = run_once(dataset)
        assert result.stage_counts["filter"] == len(result.filter_result.iterations)
        assert result.stage_counts["join"] == 1
        detail = result.stage_timings()
        assert detail["filter"]["count"] == result.stage_counts["filter"]

    def test_edge_aware_pass_counts_under_filter(self, dataset):
        config = SigmoConfig(refinement_iterations=ITERATIONS, edge_signatures=True)
        with tracing() as t:
            result = run_once(dataset, config)
        assert list(result.stage_counts) == [
            "initialize_candidates", "filter", "mapping", "join",
        ]
        # The pass runs inside refine iteration 1: no extra count.  The
        # filter counts the iterations that ran, at most the cap.
        depth = result.filter_result.depth
        assert 1 <= depth <= ITERATIONS
        assert result.stage_counts["filter"] == depth
        assert result.stage_counts["initialize_candidates"] == 1
        by_id = {s.span_id: s for s in t.spans}
        (edge_aware,) = t.find("kernel:refine_edge_aware")
        stage = by_id[edge_aware.parent_id]
        assert stage.name == "stage:filter"
        assert stage.attrs["cap"] == ITERATIONS
        assert stage.attrs["depth"] == depth
        assert stage.attrs["stop"] == result.filter_result.stop_reason

    def test_warm_session_match_clocks_only_the_join(self, dataset):
        session = MatcherSession(
            dataset.queries, SigmoConfig(refinement_iterations=ITERATIONS)
        )
        cold = session.match(dataset.data)
        warm = session.match(dataset.data)
        assert set(cold.stage_counts) == {
            "initialize_candidates", "filter", "mapping", "join",
        }
        assert set(warm.timings) == {"join"}
        assert warm.stage_counts == {"join": 1}
        assert warm.total_matches == cold.total_matches

    def test_resumed_engine_run_clocks_only_the_join(self, dataset):
        config = SigmoConfig(refinement_iterations=ITERATIONS)
        engine = SigmoEngine(dataset.queries, dataset.data, config)
        first = engine.run(join_budget=JoinBudget(max_matches=20))
        assert first.truncated
        resumed = engine.run(join_start_pair=first.resume_pair)
        assert set(resumed.timings) == {"join"}
        assert resumed.stage_counts == {"join": 1}

    def test_chunked_run_sums_counts_across_chunks(self, dataset):
        whole = run_once(dataset)
        config = SigmoConfig(refinement_iterations=ITERATIONS)
        chunked = run_resilient(
            dataset.queries, dataset.data, chunk_size=10, config=config
        )
        assert chunked.n_chunks == 3
        assert chunked.total_matches == whole.total_matches
        assert chunked.stage_counts["join"] == chunked.n_chunks
        per_chunk = [
            SigmoEngine(dataset.queries, dataset.data[lo : lo + 10], config).run()
            for lo in range(0, N_DATA, 10)
        ]
        for stage, n in chunked.stage_counts.items():
            assert n == sum(r.stage_counts.get(stage, 0) for r in per_chunk)

    def test_checkpoint_roundtrip_preserves_counts(self, dataset, tmp_path):
        config = SigmoConfig(refinement_iterations=ITERATIONS)
        first = run_resilient(
            dataset.queries,
            dataset.data,
            chunk_size=10,
            config=config,
            checkpoint=tmp_path / "ckpt",
        )
        # Second run resumes every chunk from the checkpoint store.
        second = run_resilient(
            dataset.queries,
            dataset.data,
            chunk_size=10,
            config=config,
            checkpoint=tmp_path / "ckpt",
        )
        assert second.total_matches == first.total_matches
        assert second.stage_counts == first.stage_counts


class TestRuntimeReport:
    def test_report_speaks_the_metrics_schema(self, dataset):
        result = run_resilient(dataset.queries, dataset.data, chunk_size=10)
        payload = result.report.to_dict()
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["counters"]["runtime.attempts"] == result.report.n_attempts
        assert len(payload["attempts"]) == result.report.n_attempts
        assert "runtime.attempt_seconds" in payload["histograms"]
        assert "attempt(s)" in result.report.summary()

    def test_record_feeds_the_installed_registry(self, dataset):
        with collecting() as m:
            result = run_resilient(dataset.queries, dataset.data, chunk_size=10)
        assert m.counters["runtime.attempts"] == result.report.n_attempts
        assert m.counters["runtime.outcomes.ok"] >= 1


class TestProfileCli:
    ARGS = [
        "profile",
        "--n-queries", str(N_QUERIES),
        "--n-molecules", str(N_DATA),
        "--iterations", str(ITERATIONS),
        "--seed", str(SEED),
    ]

    def test_json_and_trace_outputs(self, tmp_path, capsys):
        metrics_path = tmp_path / "profile.json"
        trace_path = tmp_path / "trace.json"
        rc = cli_main(
            self.ARGS + ["--json", str(metrics_path), "--trace", str(trace_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out and "kernels by simulated bytes" in out
        payload = load_metrics(metrics_path)  # raises if schema-invalid
        assert payload["context"]["workload"] == "smoke"
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])

    def test_against_self_passes_and_regression_fails(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        rc = cli_main(self.ARGS + ["--json", str(baseline)])
        assert rc == 0
        rc = cli_main(self.ARGS + ["--against", str(baseline)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

        # Inject a regression: the baseline now expects fewer matches.
        payload = load_metrics(baseline)
        doctored = copy.deepcopy(payload)
        doctored["counters"]["engine.matches"] -= 1
        baseline.write_text(stable_json(doctored))
        rc = cli_main(self.ARGS + ["--against", str(baseline)])
        assert rc == 1
        assert "engine.matches" in capsys.readouterr().err


def test_write_chrome_trace_from_find_all(dataset, tmp_path):
    """The headline artifact: a Perfetto-loadable trace of one run."""
    with tracing() as t:
        run_once(dataset)
    path = write_chrome_trace(t, tmp_path / "run.json")
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []
    depths = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
    assert "run" in depths
