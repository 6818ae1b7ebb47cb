"""Integration tests for the chunk loop over a worker pool
(``run_resilient(..., n_workers=k)``)."""

import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.accel.memo import clear_accel_caches
from repro.core import signatures
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.join import JoinStats
from repro.pipeline import derive_n_labels
from repro.runtime import COMPLETE, PARTIAL, FaultPlan, RetryPolicy, run_resilient
from repro.runtime import workers

pytestmark = pytest.mark.robustness

_REAL_WORKER = workers._worker_attempt


def _recording_worker(job):
    """The real pool worker, also writing the chunk's engine seconds to disk.

    Module-level so the pool can pickle it by reference; the directory
    comes through the environment, which forked workers inherit.
    """
    attempted = _REAL_WORKER(job)
    path = os.path.join(os.environ["SIGMO_SLICE_SECONDS_DIR"], f"chunk-{job.start}")
    with open(path, "w") as fh:
        fh.write(repr(sum(attempted.payload.timings.values())))
    return attempted


@pytest.fixture(scope="module")
def workload(small_dataset):
    return small_dataset.queries[:6], small_dataset.data[:24]


@pytest.fixture(scope="module")
def serial(workload):
    queries, data = workload
    return SigmoEngine(queries, data).run()


def _stats_over_cuts(queries, data, config, result):
    """``JoinStats`` of fault-free runs over the chunk cuts ``result`` ran.

    A chunk's work counters depend on where its range was cut (the
    ``fewest-candidates`` order reads the chunk's candidate counts), and
    an OOM retry splits its chunk, so the counters are compared per cut;
    matches and embeddings are exact.
    """
    total = JoinStats()
    for attempt in result.report.attempts:
        if attempt.outcome != "ok":
            continue
        lo, hi = map(int, re.search(r"\[(\d+):(\d+)\]", attempt.unit).groups())
        stats = run_resilient(
            queries, data[lo:hi], attempt.chunk_size, config=config
        ).join_stats
        for name in vars(total):
            setattr(total, name, getattr(total, name) + getattr(stats, name))
    return total


def _signature_words(query, chunk):
    """Largest signature-BFS array of either side of one chunk."""
    n_labels = derive_n_labels(query, chunk, None)
    return max(
        (int(np.diff(side.graph_offsets).max()) + 63) // 64
        * max(side.n_nodes * n_labels, side.column_indices.size)
        for side in (query, chunk)
    )


def _attempts(result):
    return [replace(a, seconds=0.0) for a in result.report.attempts]


def assert_equals_serial(result, serial):
    assert result.total_matches == serial.total_matches
    assert result.matched_pairs == sorted(serial.matched_pairs())


class TestFaultFree:
    def test_matches_serial(self, workload, serial):
        queries, data = workload
        result = run_resilient(queries, data, 5, n_workers=3)
        assert result.status == COMPLETE
        assert result.report.n_retries == 0
        assert_equals_serial(result, serial)

    def test_timings_and_chunks_aggregate(self, workload):
        queries, data = workload
        result = run_resilient(queries, data, 5, n_workers=3)
        assert result.n_chunks == 5  # 24 graphs chunked by 5
        assert "join" in result.timings and result.total_seconds > 0

    def test_attempt_seconds_cover_the_slice_run(
        self, workload, tmp_path, monkeypatch
    ):
        # Each attempt is timed around the whole chunk run in its worker,
        # so it spans at least the engine time spent on the chunk.
        monkeypatch.setenv("SIGMO_SLICE_SECONDS_DIR", str(tmp_path))
        monkeypatch.setattr(workers, "_worker_attempt", _recording_worker)
        queries, data = workload
        result = run_resilient(queries, data, 5, n_workers=3)
        ok = [a for a in result.report.attempts if a.outcome == "ok"]
        assert len(ok) == 5
        for attempt in ok:
            start = attempt.unit[len("chunk["):].split(":")[0]
            assert attempt.seconds >= float((tmp_path / f"chunk-{start}").read_text())

    def test_validation(self, workload):
        queries, data = workload
        with pytest.raises(ValueError):
            run_resilient(queries, [], n_workers=2)
        with pytest.raises(ValueError):
            run_resilient(queries, data, chunk_size=0, n_workers=2)
        with pytest.raises(ValueError):
            run_resilient(queries, data, n_workers=0)
        with pytest.raises(ValueError):
            run_resilient(queries, data, retry=RetryPolicy(max_attempts=0), n_workers=2)
        with pytest.raises(ValueError):
            run_resilient(queries, data, retry=RetryPolicy(backoff_factor=0.5), n_workers=2)


class TestRecovery:
    def test_soft_crashes_and_ooms_recovered(self, workload, serial):
        queries, data = workload
        plan = FaultPlan(seed=1, crash_rate=0.6, oom_rate=0.3, fault_attempts=2)
        result = run_resilient(
            queries, data, 5, fault_plan=plan, retry=RetryPolicy(max_attempts=6),
            n_workers=3,
        )
        assert result.status == COMPLETE
        assert result.report.n_retries > 0
        assert_equals_serial(result, serial)

    def test_soft_crash_and_oom_over_shared_memory(self, workload):
        queries, data = workload
        config = SigmoConfig(record_embeddings=True)
        reference = run_resilient(queries, data, chunk_size=5, config=config)
        plan = FaultPlan(crash_at=((0, 0),), oom_at=((5, 0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback to pickle
            result = run_resilient(
                queries, data, 5, config=config, fault_plan=plan,
                retry=RetryPolicy(max_attempts=3), n_workers=3,
            )
        assert result.status == COMPLETE
        outcomes = [(a.unit, a.outcome) for a in result.report.attempts]
        assert ("chunk[0:5]", "crash") in outcomes
        assert ("chunk[5:10]", "oom") in outcomes
        assert result.total_matches == reference.total_matches
        assert result.matched_pairs == sorted(reference.matched_pairs)
        assert result.embeddings == reference.embeddings
        assert result.join_stats == _stats_over_cuts(queries, data, config, result)

    def test_oom_halves_chunk_size(self, workload, serial):
        queries, data = workload
        plan = FaultPlan(oom_at=((0, 0), (0, 1)))
        result = run_resilient(
            queries, data, 8, fault_plan=plan, retry=RetryPolicy(max_attempts=6),
            n_workers=3,
        )
        assert result.status == COMPLETE
        sizes = [
            a.chunk_size for a in result.report.attempts if a.unit.startswith("chunk[0:")
        ]
        assert sizes == [8, 4, 2]  # the chunk at 0 is split on each OOM
        assert_equals_serial(result, serial)

    def test_failure_inside_a_worker_discards_later_attempts(
        self, workload, monkeypatch
    ):
        # One chunk is over the signature cap, which only its worker
        # finds; the chunk after it is already running by then.  That
        # outcome is discarded and the chunk rerun after the halves, so
        # the attempt log is the serial run's.
        queries, data = workload
        query = CSRGO.from_graphs(queries)
        starts = range(0, len(data), 6)
        words = {
            lo: _signature_words(query, CSRGO.from_graphs(data[lo : lo + 6]))
            for lo in starts
        }
        target = max(words, key=words.get)
        halves = [data[target : target + 3], data[target + 3 : target + 6]]
        cap = max(
            [w for lo, w in words.items() if lo != target]
            + [_signature_words(query, CSRGO.from_graphs(h)) for h in halves]
        )
        assert cap < words[target] and target + 6 < len(data)
        monkeypatch.setattr(signatures, "SIGNATURE_WORD_CAP", cap)
        clear_accel_caches()  # memoized signatures would skip the BFS
        # The node-only filter runs the signature BFS at every depth.
        config = SigmoConfig(edge_signatures=False)
        serial_run = run_resilient(queries, data, 6, config=config)
        pooled = run_resilient(queries, data, 6, n_workers=3, config=config)
        assert [a.outcome for a in serial_run.report.attempts].count("oom") == 1
        assert _attempts(pooled) == _attempts(serial_run)
        assert pooled.chunk_records == serial_run.chunk_records
        assert pooled.join_stats == serial_run.join_stats
        assert pooled.matched_pairs == serial_run.matched_pairs

    def test_hard_crash_breaks_and_rebuilds_pool(self, workload, serial):
        queries, data = workload
        config = SigmoConfig(record_embeddings=True)
        clean = run_resilient(queries, data, 5, config=config)
        plan = FaultPlan(crash_at=((5, 0),), crash_hard=True)
        result = run_resilient(
            queries, data, 5, config=config, fault_plan=plan,
            retry=RetryPolicy(max_attempts=6), n_workers=3,
        )
        assert result.status == COMPLETE
        assert result.report.n_retries >= 1
        # the worker died, the pool was rebuilt and the crashed chunk
        # charged
        broken = [a for a in result.report.attempts if a.outcome == "crash"]
        assert ("chunk[5:10]", 0) in [(a.unit, a.attempt) for a in broken]
        assert_equals_serial(result, serial)
        assert result.embeddings == clean.embeddings
        assert result.join_stats == clean.join_stats
        assert result.n_chunks == clean.n_chunks
        # the crash ran alone, so it took no other attempt down: the log
        # is the serial run's but for the crash's detail
        in_process = run_resilient(
            queries, data, 5, config=config, fault_plan=plan,
            retry=RetryPolicy(max_attempts=6),
        )
        assert [(a.unit, a.attempt, a.outcome) for a in result.report.attempts] == [
            (a.unit, a.attempt, a.outcome) for a in in_process.report.attempts
        ]

    def test_inline_single_slice_recovers(self, workload, serial):
        queries, data = workload
        plan = FaultPlan(crash_at=((0, 0),), crash_hard=True)
        # one worker runs in process; a hard crash downgrades to a raise
        result = run_resilient(
            queries, data, 50, fault_plan=plan, retry=RetryPolicy(max_attempts=3),
            n_workers=1,
        )
        assert result.status == COMPLETE
        assert [a.outcome for a in result.report.attempts] == ["crash", "ok"]
        assert_equals_serial(result, serial)

    def test_exhausted_slice_goes_partial(self, workload):
        queries, data = workload
        plan = FaultPlan(crash_at=tuple((0, a) for a in range(10)))
        result = run_resilient(
            queries, data, 5, fault_plan=plan, retry=RetryPolicy(max_attempts=3),
            n_workers=3,
        )
        assert result.status == PARTIAL
        failed = [(r.start, r.stop) for r in result.chunk_records if r.status == "failed"]
        assert failed == [(0, 5)]
        # the surviving chunks still contributed their exact results
        assert result.total_matches > 0
        assert all(d >= 5 for d, _ in result.matched_pairs)

    def test_backoff_schedule_recorded(self, workload):
        queries, data = workload
        plan = FaultPlan(crash_at=((0, 0), (0, 1)))
        result = run_resilient(
            queries,
            data,
            5,
            fault_plan=plan,
            # exact schedule without jitter
            retry=RetryPolicy(max_attempts=4, backoff_base=0.001, backoff_factor=2.0),
            n_workers=3,
        )
        delays = [
            a.backoff_seconds
            for a in result.report.attempts
            if a.unit == "chunk[0:5]" and a.outcome == "crash"
        ]
        assert delays == [0.0, 0.002]


class TestBackoffJitter:
    """Seeded jitter: spread retries without losing replayability."""

    def test_jittered_delay_stays_in_band_and_replays(self, workload):
        queries, data = workload
        plan = FaultPlan(crash_at=((0, 0), (0, 1)))

        def run_once():
            result = run_resilient(
                queries,
                data,
                5,
                fault_plan=plan,
                retry=RetryPolicy(
                    max_attempts=4,
                    backoff_base=0.001,
                    backoff_factor=2.0,
                    jitter=0.25,
                    seed=17,
                ),
                n_workers=3,
            )
            return [
                a.backoff_seconds
                for a in result.report.attempts
                if a.unit == "chunk[0:5]" and a.outcome == "crash"
            ]

        first = run_once()
        assert first[0] == 0.0
        # attempt 1: base delay 0.002, jitter adds up to 25%
        assert 0.002 <= first[1] <= 0.002 * 1.25
        assert first[1] != 0.002  # jitter actually drew
        assert run_once() == first  # pure function of (seed, unit, attempt)

    def test_jitter_decorrelates_units(self):
        policy = RetryPolicy(
            max_attempts=4,
            backoff_base=0.001,
            backoff_factor=2.0,
            jitter=0.5,
            seed=3,
        )
        delays = {policy.delay(1, unit=u) for u in range(8)}
        assert len(delays) == 8  # no two units retry in lockstep

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
