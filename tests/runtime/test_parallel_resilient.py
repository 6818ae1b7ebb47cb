"""Integration tests for the fault-tolerant pool driver."""

import os
import re

import pytest

from repro.cluster import parallel
from repro.cluster.parallel import run_parallel
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import JoinStats
from repro.runtime import COMPLETE, PARTIAL, FaultPlan, run_resilient

pytestmark = pytest.mark.robustness

_REAL_WORKER = parallel._slice_worker


def _recording_worker(job):
    """The real slice worker, also writing its summed engine seconds to disk.

    Module-level so the pool can pickle it by reference; the directory
    comes through the environment, which forked workers inherit.
    """
    result = _REAL_WORKER(job)
    path = os.path.join(os.environ["SIGMO_SLICE_SECONDS_DIR"], f"slice-{job.index}")
    with open(path, "w") as fh:
        fh.write(repr(result.total_seconds))
    return result


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
    an OOM retry re-cuts its slice with a smaller chunk size, so the
    counters are compared per cut; matches and embeddings are exact.
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


def assert_equals_serial(result, serial):
    assert result.total_matches == serial.total_matches
    assert result.matched_pairs == sorted(serial.matched_pairs())


class TestFaultFree:
    def test_matches_serial(self, workload, serial):
        queries, data = workload
        result = run_parallel(queries, data, n_workers=3, chunk_size=5)
        assert result.status == COMPLETE
        assert result.report.n_retries == 0
        assert_equals_serial(result, serial)

    def test_timings_and_chunks_aggregate(self, workload):
        queries, data = workload
        result = run_parallel(queries, data, n_workers=3, chunk_size=5)
        assert result.n_chunks == 6  # 3 slices of 8 graphs, chunked by 5
        assert "join" in result.timings and result.total_seconds > 0

    def test_attempt_seconds_cover_the_slice_run(
        self, workload, tmp_path, monkeypatch
    ):
        # Each attempt is timed once its own result has arrived, so it
        # spans at least the engine time the worker spent on the slice.
        monkeypatch.setenv("SIGMO_SLICE_SECONDS_DIR", str(tmp_path))
        monkeypatch.setattr(parallel, "_slice_worker", _recording_worker)
        queries, data = workload
        result = run_parallel(queries, data, n_workers=3, chunk_size=5)
        ok = [a for a in result.report.attempts if a.outcome == "ok"]
        assert len(ok) == 3
        for attempt in ok:
            name = attempt.unit.split("[")[0]
            assert attempt.seconds >= float((tmp_path / name).read_text())

    def test_validation(self, workload):
        queries, data = workload
        with pytest.raises(ValueError):
            run_parallel(queries, [])
        with pytest.raises(ValueError):
            run_parallel(queries, data, chunk_size=0)
        with pytest.raises(ValueError):
            run_parallel(queries, data, max_attempts=0)
        with pytest.raises(ValueError):
            run_parallel(queries, data, backoff_factor=0.5)


class TestRecovery:
    def test_soft_crashes_and_ooms_recovered(self, workload, serial):
        queries, data = workload
        plan = FaultPlan(seed=1, crash_rate=0.6, oom_rate=0.3, fault_attempts=2)
        result = run_parallel(
            queries, data, n_workers=3, chunk_size=5, fault_plan=plan, max_attempts=6
        )
        assert result.status == COMPLETE
        assert result.report.n_retries > 0
        assert_equals_serial(result, serial)

    def test_soft_crash_and_oom_over_shared_memory(self, workload):
        queries, data = workload
        config = SigmoConfig(record_embeddings=True)
        reference = run_resilient(queries, data, chunk_size=5, config=config)
        plan = FaultPlan(crash_at=((0, 0),), oom_at=((1, 0),))
        result = run_parallel(
            queries, data, n_workers=3, chunk_size=5, config=config,
            fault_plan=plan, max_attempts=3,
        )
        assert result.transport == "shared-memory"
        assert result.status == COMPLETE
        outcomes = [(a.unit.split("[")[0], a.outcome) for a in result.report.attempts]
        assert ("slice-0", "crash") in outcomes and ("slice-1", "oom") in outcomes
        assert result.total_matches == reference.total_matches
        assert result.matched_pairs == sorted(reference.matched_pairs)
        assert result.embeddings == reference.embeddings
        assert result.join_stats == _stats_over_cuts(queries, data, config, result)

    def test_oom_halves_chunk_size(self, workload, serial):
        queries, data = workload
        plan = FaultPlan(oom_at=((0, 0), (0, 1)))
        result = run_parallel(
            queries, data, n_workers=3, chunk_size=8, fault_plan=plan, max_attempts=6
        )
        assert result.status == COMPLETE
        sizes = [
            a.chunk_size for a in result.report.attempts if a.unit.startswith("slice-0")
        ]
        assert sizes == [8, 4, 2]  # halved on each OOM
        assert_equals_serial(result, serial)

    def test_hard_crash_breaks_and_rebuilds_pool(self, workload, serial):
        queries, data = workload
        plan = FaultPlan(crash_at=((1, 0),), crash_hard=True)
        result = run_parallel(
            queries, data, n_workers=3, chunk_size=5, fault_plan=plan, max_attempts=6
        )
        assert result.status == COMPLETE
        assert result.report.n_retries >= 1
        assert_equals_serial(result, serial)

    def test_inline_single_slice_recovers(self, workload, serial):
        queries, data = workload
        plan = FaultPlan(crash_at=((0, 0),), crash_hard=True)
        # single slice runs inline; a hard crash downgrades to a raise
        result = run_parallel(
            queries, data, n_workers=1, chunk_size=50, fault_plan=plan, max_attempts=3
        )
        assert result.status == COMPLETE
        assert result.n_workers == 1
        assert_equals_serial(result, serial)

    def test_exhausted_slice_goes_partial(self, workload):
        queries, data = workload
        plan = FaultPlan(crash_at=tuple((0, a) for a in range(10)))
        result = run_parallel(
            queries, data, n_workers=3, chunk_size=5, fault_plan=plan, max_attempts=3
        )
        assert result.status == PARTIAL
        assert (0, 8) in result.failed_slices
        # the surviving slices still contributed their exact results
        assert result.total_matches > 0

    def test_backoff_schedule_recorded(self, workload):
        queries, data = workload
        plan = FaultPlan(crash_at=((0, 0), (0, 1)))
        result = run_parallel(
            queries,
            data,
            n_workers=3,
            chunk_size=5,
            fault_plan=plan,
            max_attempts=4,
            backoff_base=0.001,
            backoff_factor=2.0,
            backoff_jitter=0.0,  # exact schedule without jitter
        )
        delays = [
            a.backoff_seconds
            for a in result.report.attempts
            if a.unit.startswith("slice-0") and a.outcome == "crash"
        ]
        assert delays == [0.0, 0.002]


class TestBackoffJitter:
    """Seeded jitter: spread retries without losing replayability."""

    def test_jittered_delay_stays_in_band_and_replays(self, workload):
        queries, data = workload
        plan = FaultPlan(crash_at=((0, 0), (0, 1)))

        def run_once():
            result = run_parallel(
                queries,
                data,
                n_workers=3,
                chunk_size=5,
                fault_plan=plan,
                max_attempts=4,
                backoff_base=0.001,
                backoff_factor=2.0,
                backoff_jitter=0.25,
                backoff_seed=17,
            )
            return [
                a.backoff_seconds
                for a in result.report.attempts
                if a.unit.startswith("slice-0") and a.outcome == "crash"
            ]

        first = run_once()
        assert first[0] == 0.0
        # attempt 1: base delay 0.002, jitter adds up to 25%
        assert 0.002 <= first[1] <= 0.002 * 1.25
        assert first[1] != 0.002  # jitter actually drew
        assert run_once() == first  # pure function of (seed, unit, attempt)

    def test_jitter_decorrelates_units(self):
        from repro.pipeline.policies import RetryPolicy

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
        from repro.pipeline.policies import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
