"""Integration tests for the resilient chunked driver.

The invariant under every fault scenario: total matches and sorted
matched pairs are bitwise-equal to a fault-free serial run.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.accel.memo import clear_accel_caches
from repro.core import signatures
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.join import JoinBudget
from repro.device.memory import DeviceMemoryPool
from repro.io.serialization import graphs_fingerprint, sha256_bytes
from repro.obs.trace import tracing
from repro.pipeline import derive_n_labels
from repro.runtime import (
    COMPLETE,
    PARTIAL,
    FaultPlan,
    ResumeToken,
    RetryPolicy,
    combine_results,
    run_resilient,
    workload_fingerprint,
)
from repro.runtime import telemetry
from repro.runtime.resilient import predict_chunk_footprint

pytestmark = pytest.mark.robustness


@pytest.fixture(scope="module")
def workload(small_dataset):
    return small_dataset.queries[:6], small_dataset.data[:30]


def whole_batch(queries, data):
    """One fault-free whole-batch engine run: the oracle for every scenario."""
    run = SigmoEngine(queries, data).run()
    return SimpleNamespace(
        total_matches=run.total_matches, matched_pairs=run.matched_pairs()
    )


@pytest.fixture(scope="module")
def serial(workload):
    return whole_batch(*workload)


@pytest.fixture(scope="module")
def rich_workload(small_dataset):
    # the full query set: enough matches/GMCR pairs per chunk that a join
    # budget actually truncates
    return small_dataset.queries, small_dataset.data[:30]


@pytest.fixture(scope="module")
def rich_serial(rich_workload):
    return whole_batch(*rich_workload)


def assert_equals_serial(result, serial):
    assert result.total_matches == serial.total_matches
    assert sorted(result.matched_pairs) == sorted(serial.matched_pairs)


class TestPlainExecution:
    def test_matches_serial(self, workload, serial):
        queries, data = workload
        result = run_resilient(queries, data, chunk_size=8)
        assert result.status == COMPLETE
        assert_equals_serial(result, serial)
        assert result.n_chunks == 4
        assert result.report.n_retries == 0

    def test_pairs_in_serial_order(self, workload, serial):
        queries, data = workload
        result = run_resilient(queries, data, chunk_size=8)
        assert result.matched_pairs == serial.matched_pairs

    def test_validation(self, workload):
        queries, data = workload
        with pytest.raises(ValueError):
            run_resilient(queries, [], chunk_size=4)
        with pytest.raises(ValueError):
            run_resilient(queries, data, chunk_size=0)
        with pytest.raises(ValueError):
            run_resilient(queries, data, on_truncate="explode")
        with pytest.raises(ValueError):
            run_resilient(queries, data, retry=RetryPolicy(max_attempts=0))
        with pytest.raises(ValueError):
            run_resilient(queries, data, n_workers=0)


class TestOOMDegradation:
    def test_injected_ooms_recovered(self, workload, serial):
        queries, data = workload
        plan = FaultPlan(seed=3, oom_rate=0.7, fault_attempts=2)
        result = run_resilient(
            queries, data, chunk_size=8, fault_plan=plan, retry=RetryPolicy(max_attempts=6)
        )
        assert result.status == COMPLETE
        assert result.report.n_retries > 0
        assert_equals_serial(result, serial)

    def test_memory_budget_splits_chunks(self, workload, serial):
        queries, data = workload
        full = sum(predict_chunk_footprint(queries, data).values())
        pool = DeviceMemoryPool(capacity_bytes=full // 3, reserve_fraction=0.0)
        result = run_resilient(
            queries, data, chunk_size=len(data), memory=pool, retry=RetryPolicy(max_attempts=8)
        )
        assert result.status == COMPLETE
        assert result.n_chunks > 1  # the single chunk had to split
        assert_equals_serial(result, serial)
        # leases were all returned; peak shows the budget was exercised
        assert pool.used == 0
        assert 0 < pool.peak <= pool.capacity

    def test_auto_chunk_size_from_budget(self, workload, serial):
        queries, data = workload
        full = sum(predict_chunk_footprint(queries, data).values())
        result = run_resilient(
            queries, data, chunk_size=None, memory_budget_bytes=full // 2
        )
        assert result.status == COMPLETE
        assert result.n_chunks > 1
        assert_equals_serial(result, serial)

    def test_auto_chunk_size_degrades_when_infeasible(self, workload):
        # A budget below one graph's bitmap share: sizing logs the
        # infeasibility and falls back to single-graph chunks, each of
        # which the per-chunk lease then rejects.
        queries, data = workload
        result = run_resilient(
            queries, data[:3], chunk_size=None, memory_budget_bytes=64
        )
        sizing = result.report.attempts[0]
        assert (sizing.unit, sizing.outcome, sizing.chunk_size) == (
            "auto-chunk-size", telemetry.INFEASIBLE, 1,
        )
        assert "bitmap_share=0.8" in sizing.detail
        assert result.status == PARTIAL
        assert [(r.start, r.stop) for r in result.chunk_records] == [
            (0, 1), (1, 2), (2, 3),
        ]

    def test_signature_cap_splits_chunks(self, workload, serial, monkeypatch):
        # A chunk whose signature BFS is over SIGNATURE_WORD_CAP is split
        # and retried like an out-of-memory chunk; its halves fit.
        queries, data = workload
        query = CSRGO.from_graphs(queries)
        half = len(data) // 2
        chunks = [CSRGO.from_graphs(part) for part in (data[:half], data[half:])]
        whole = CSRGO.from_graphs(data)

        def words_needed(chunk):
            """Largest signature-BFS array of either side of one chunk."""
            n_labels = derive_n_labels(query, chunk, None)
            return max(
                (int(np.diff(side.graph_offsets).max()) + 63) // 64
                * max(side.n_nodes * n_labels, side.column_indices.size)
                for side in (query, chunk)
            )

        cap = max(words_needed(chunk) for chunk in chunks)
        assert cap < words_needed(whole)
        monkeypatch.setattr(signatures, "SIGNATURE_WORD_CAP", cap)
        clear_accel_caches()  # memoized signatures would skip the BFS
        # The node-only filter runs the signature BFS at every depth.
        config = SigmoConfig(edge_signatures=False)
        result = run_resilient(queries, data, chunk_size=len(data), config=config)
        assert result.status == COMPLETE
        assert result.n_chunks == 2
        assert result.report.count(telemetry.OOM) == 1
        assert result.matched_pairs == serial.matched_pairs
        assert result.total_matches == serial.total_matches

    def test_exhausted_attempts_go_partial(self, workload):
        queries, data = workload
        plan = FaultPlan(seed=1, oom_rate=1.0, fault_attempts=10**6)
        result = run_resilient(
            queries, data, chunk_size=8, fault_plan=plan, retry=RetryPolicy(max_attempts=2)
        )
        assert result.status == PARTIAL
        assert result.total_matches == 0
        assert any(rec.status == "failed" for rec in result.chunk_records)

    def test_infeasible_graph_skipped(self, workload):
        queries, data = workload
        # a pool so small no single graph fits: every range degrades to
        # span 1 and is then declared infeasible instead of looping
        pool = DeviceMemoryPool(capacity_bytes=16, reserve_fraction=0.0)
        result = run_resilient(
            queries, data[:4], chunk_size=4, memory=pool, retry=RetryPolicy(max_attempts=8)
        )
        assert result.status == PARTIAL
        assert all(
            rec.status in ("infeasible", "failed") for rec in result.chunk_records
        )


class TestCrashRecovery:
    def test_serial_run_retries_injected_crash(self, workload):
        # Crash faults are keyed by (chunk start, attempt) in serial runs
        # too: the crashed chunk is retried and the run equals a clean one.
        queries, data = workload
        config = SigmoConfig(record_embeddings=True)
        clean = run_resilient(queries, data, chunk_size=8, config=config)
        result = run_resilient(
            queries, data, chunk_size=8, config=config,
            fault_plan=FaultPlan(crash_at=((0, 0),)),
        )
        crashes = [
            (a.unit, a.attempt)
            for a in result.report.attempts
            if a.outcome == telemetry.CRASH
        ]
        assert crashes == [("chunk[0:8]", 0)]
        assert result.report.n_retries == 1
        assert result.chunk_records[0].attempts == 2
        assert result.status == clean.status == COMPLETE
        assert result.matched_pairs == clean.matched_pairs
        assert result.embeddings == clean.embeddings
        assert result.join_stats == clean.join_stats
        assert result.n_chunks == clean.n_chunks


class TestJoinWatchdog:
    def test_token_chain_recombines_to_serial(self, rich_workload, rich_serial):
        queries, data = rich_workload
        serial = rich_serial
        budget = JoinBudget(max_matches=20)
        parts = [
            run_resilient(
                queries, data, chunk_size=8, join_budget=budget, on_truncate="token"
            )
        ]
        while parts[-1].resume_token is not None:
            assert parts[-1].status == PARTIAL
            parts.append(
                run_resilient(
                    queries,
                    data,
                    chunk_size=8,
                    join_budget=budget,
                    on_truncate="token",
                    resume_token=parts[-1].resume_token,
                )
            )
            assert len(parts) < 50  # must converge
        combined = combine_results(*parts)
        assert combined.status == COMPLETE
        assert_equals_serial(combined, serial)
        assert combined.matched_pairs == sorted(serial.matched_pairs)

    def test_truncated_partial_is_verified_prefix(self, rich_workload, rich_serial):
        queries, data = rich_workload
        serial = rich_serial
        result = run_resilient(
            queries,
            data,
            chunk_size=8,
            join_budget=JoinBudget(max_matches=20),
            on_truncate="token",
        )
        assert result.status == PARTIAL
        assert result.resume_token is not None
        assert any(rec.status == "truncated" for rec in result.chunk_records)
        # everything returned so far is a subset of the serial result
        assert set(result.matched_pairs) <= set(serial.matched_pairs)

    def test_auto_resume_matches_serial(self, rich_workload, rich_serial):
        queries, data = rich_workload
        serial = rich_serial
        result = run_resilient(
            queries,
            data,
            chunk_size=30,
            join_budget=JoinBudget(max_matches=20),
            on_truncate="resume",
        )
        assert result.status == COMPLETE
        assert_equals_serial(result, serial)
        assert result.chunk_records[0].segments > 1

    def test_token_roundtrips_via_dict(self, workload):
        token = ResumeToken(start=8, stop=16, next_pair=3)
        assert ResumeToken.from_dict(token.to_dict()) == token
        queries, data = workload
        with pytest.raises(ValueError):
            run_resilient(
                queries, data, resume_token=ResumeToken(0, len(data) + 5, 0)
            )


class TestCheckpointResume:
    def test_kill_and_resume_identical(self, workload, serial, tmp_path):
        queries, data = workload
        ckpt = tmp_path / "ckpt"
        first = run_resilient(queries, data, chunk_size=8, checkpoint=ckpt)
        assert first.status == COMPLETE
        # simulate a crash that lost two chunks: delete one, corrupt one
        (ckpt / "chunk-0000000-0000008.npz").unlink()
        (ckpt / "chunk-0000008-0000016.npz").write_bytes(b"torn write")
        resumed = run_resilient(queries, data, chunk_size=8, checkpoint=ckpt)
        assert resumed.status == COMPLETE
        assert resumed.chunks_from_checkpoint == 2
        assert_equals_serial(resumed, serial)
        assert resumed.matched_pairs == serial.matched_pairs

    def test_fresh_checkpoint_runs_everything(self, workload, tmp_path):
        queries, data = workload
        result = run_resilient(
            queries, data, chunk_size=8, checkpoint=tmp_path / "new"
        )
        assert result.chunks_from_checkpoint == 0
        assert result.status == COMPLETE

    def test_truncated_chunk_resumes_from_pair(self, rich_workload, rich_serial, tmp_path):
        queries, data = rich_workload
        serial = rich_serial
        ckpt = tmp_path / "trunc"
        partial = run_resilient(
            queries,
            data,
            chunk_size=8,
            join_budget=JoinBudget(max_matches=20),
            on_truncate="token",
            checkpoint=ckpt,
        )
        assert partial.status == PARTIAL
        # restart without the budget: cached OK chunks skip, the
        # truncated chunk continues from its persisted pair token
        resumed = run_resilient(queries, data, chunk_size=8, checkpoint=ckpt)
        assert resumed.status == COMPLETE
        assert_equals_serial(resumed, serial)

    def test_fingerprint_binds_workload(self, workload):
        queries, data = workload
        a = workload_fingerprint(queries, data, "find-all", None)
        b = workload_fingerprint(queries, data[:-1], "find-all", None)
        c = workload_fingerprint(queries, data, "find-first", None)
        d = workload_fingerprint(
            queries, data, "find-all", SigmoConfig(refinement_iterations=2)
        )
        assert len({a, b, c, d}) == 4

    def test_graph_list_fingerprint_is_unchanged(self, workload):
        # Existing checkpoints were bound with this exact formula.
        queries, data = workload
        text = "|".join(
            (
                graphs_fingerprint(queries),
                graphs_fingerprint(data),
                "find-all",
                repr(SigmoConfig()),
            )
        )
        assert workload_fingerprint(queries, data, "find-all", None) == sha256_bytes(
            text.encode("utf-8")
        )

    def test_csrgo_inputs_checkpoint_and_resume(self, workload, serial, tmp_path):
        queries, data = workload
        query, batch = CSRGO.from_graphs(queries), CSRGO.from_graphs(data)
        ckpt = tmp_path / "csrgo"
        first = run_resilient(query, batch, chunk_size=8, checkpoint=ckpt)
        assert_equals_serial(first, serial)
        resumed = run_resilient(query, batch, chunk_size=8, checkpoint=ckpt)
        assert resumed.chunks_from_checkpoint == first.n_chunks == 4
        assert resumed.matched_pairs == serial.matched_pairs

    def test_faulted_checkpointed_run_still_exact(self, workload, serial, tmp_path):
        queries, data = workload
        plan = FaultPlan(seed=5, oom_rate=0.6, fault_attempts=1)
        faulted = run_resilient(
            queries,
            data,
            chunk_size=8,
            checkpoint=tmp_path / "f",
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=6),
        )
        assert faulted.status == COMPLETE
        assert_equals_serial(faulted, serial)
        resumed = run_resilient(
            queries, data, chunk_size=8, checkpoint=tmp_path / "f"
        )
        assert resumed.report.n_attempts == resumed.chunks_from_checkpoint
        assert_equals_serial(resumed, serial)


class TestTelemetry:
    def test_attempts_recorded(self, workload):
        queries, data = workload
        plan = FaultPlan(seed=3, oom_rate=0.7, fault_attempts=2)
        result = run_resilient(
            queries, data, chunk_size=8, fault_plan=plan, retry=RetryPolicy(max_attempts=6)
        )
        assert result.report.n_faults > 0
        assert result.report.outcomes()["ok"] >= result.n_chunks
        summary = result.report.summary()
        assert "retrie" in summary and "oom" in summary
        payload = result.report.to_dict()
        assert len(payload["attempts"]) == result.report.n_attempts

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_every_attempt_has_a_runtime_span(self, workload, n_workers):
        # One chunk span per recorded attempt, in the calling process,
        # faulted ones included; in process the engine's spans nest in it.
        queries, data = workload
        plan = FaultPlan(oom_at=((0, 0),), crash_at=((8, 0),))
        with tracing() as tracer:
            result = run_resilient(
                queries, data, chunk_size=8, fault_plan=plan, n_workers=n_workers
            )
        spans = [s for s in tracer.spans if s.category == "runtime"]
        assert [(s.name, s.attrs["attempt"], s.attrs["outcome"]) for s in spans] == [
            (a.unit, a.attempt, a.outcome) for a in result.report.attempts
        ]
        assert {"oom", "crash", "ok"} <= {s.attrs["outcome"] for s in spans}
        nested = {bool(tracer.children(s)) for s in spans if s.attrs["outcome"] == "ok"}
        assert nested == {n_workers == 1}
