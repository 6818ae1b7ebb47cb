"""Seeded differential test: every chunk driver against one whole-batch run.

The seeded batches of :mod:`tests.integration.test_join_differential`
run once through a whole-batch ``join_backend="dfs"``
:class:`~repro.core.engine.SigmoEngine` (the reference) and then through
each way the drivers cut and fold the same work:

* :func:`~repro.runtime.resilient.run_resilient` with chunk sizes 1, 3
  and the whole batch;
* a fault-free checkpoint restart of a run that ended ``partial``
  because every attempt of one chunk crashed;
* ``run_resilient`` over a 2-process worker pool (``n_workers=2``).

In Find All every driver must equal the reference in total matches,
global matched pairs and embeddings, with the edge-aware filter pass on
(the default) and off; in Find First in matched pairs.  Every embedding
a driver records must pass :func:`repro.core.verify.verify_result`.
The ``fewest-candidates`` matching order is built from the candidate
counts of the batch being joined, so a chunk's work counters depend on
where the range was cut (its matches do not): each driver's summed
``JoinStats`` must equal the reference's summed over the same cuts, which
is the single whole-batch run when one chunk covers the batch.

A pooled run is the serial run: :func:`test_pooled_equals_serial` runs
each configuration above, plus a fault plan, injected hard crashes and a
memory budget that splits chunks, with ``n_workers`` 1 and 2 or 3, and requires equal
status, matches, pairs, embeddings, ``JoinStats``, stage counts, chunk
counts and records, attempt logs (without their seconds) and checkpoint
manifests (without their timing values).
"""

import json
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_ALL, FIND_FIRST, JoinStats
from repro.core.verify import verify_result
from repro.runtime import COMPLETE, PARTIAL, FaultPlan, RetryPolicy, run_resilient
from repro.runtime.checkpoint import MANIFEST_NAME
from repro.runtime.resilient import predict_chunk_footprint
from tests.integration.test_join_differential import _workload, seed_flags

pytestmark = pytest.mark.robustness

#: Fixed seeds in tier-1 and CI; ``make fuzz`` widens the range through
#: ``REPRO_FUZZ_SEEDS``.
SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "8")))
#: Seeds that also run worker pools (each pooled run starts a pool).
POOL_SEEDS = (0, 5)


def _embeddings(records):
    return [(d, q, tuple(np.asarray(m).tolist())) for d, q, m in records]


def _reference(queries, data, config, mode):
    return SigmoEngine(queries, data, replace(config, join_backend="dfs")).run(mode=mode)


def _cuts(start, stop, size):
    return [(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def _reference_stats(queries, data, config, cuts):
    """Whole-chunk reference ``JoinStats`` summed over ``cuts``."""
    total = JoinStats()
    for lo, hi in cuts:
        stats = _reference(queries, data[lo:hi], config, FIND_ALL).join_result.stats
        for name in vars(total):
            setattr(total, name, getattr(total, name) + getattr(stats, name))
    return total


def _restart(queries, data, config, mode, directory, n_workers=1):
    """A checkpointed run in which every attempt of chunk [3:6] crashes,
    so it ends partial, then a fault-free restart from its checkpoint.

    Returns the stopped run, the manifest it left and the restarted run.
    """
    run = partial(
        run_resilient, queries, data, 3, mode=mode, config=config,
        checkpoint=directory, n_workers=n_workers,
    )
    doomed = FaultPlan(crash_at=((3, 0), (3, 1)))
    stopped = run(fault_plan=doomed, retry=RetryPolicy(max_attempts=2))
    assert stopped.status == PARTIAL
    assert [r.status for r in stopped.chunk_records] == ["ok", "failed", "ok", "ok"]
    manifest = _manifest(directory)
    return stopped, manifest, run()


def _drivers(queries, data, config, mode, tmp_path, seed):
    """(name, result, chunk cuts) of every driver configuration."""
    n = len(data)
    for size in (1, 3, n + 1):
        yield f"resilient[{size}]", run_resilient(
            queries, data, size, mode=mode, config=config
        ), _cuts(0, n, size)
    _, _, restarted = _restart(queries, data, config, mode, tmp_path / f"ckpt-{seed}")
    yield "restart", restarted, _cuts(0, n, 3)
    if seed in POOL_SEEDS:
        yield "pooled[2]", run_resilient(
            queries, data, 3, mode=mode, config=config, n_workers=2
        ), _cuts(0, n, 3)


@pytest.mark.parametrize(("seed", "edge_signatures"), seed_flags(SEEDS))
def test_find_all_drivers_equal_whole_batch(seed, edge_signatures, tmp_path):
    queries, data, fields = _workload(seed)
    config = SigmoConfig(
        record_embeddings=True, edge_signatures=edge_signatures, **fields
    )
    ref = _reference(queries, data, config, FIND_ALL)
    assert ref.join_result.stats.pairs_joined > 0
    pairs = sorted(ref.matched_pairs())
    embeddings = sorted(_embeddings(ref.join_result.embeddings))
    for name, got, cuts in _drivers(queries, data, config, FIND_ALL, tmp_path, seed):
        assert got.status == COMPLETE, name
        assert got.total_matches == ref.total_matches, name
        assert sorted(got.matched_pairs) == pairs, name
        assert sorted(
            _embeddings((r.data_graph, r.query_graph, r.mapping) for r in got.embeddings)
        ) == embeddings, name
        assert verify_result(got, queries, data, config) == [], name
        assert got.join_stats == _reference_stats(queries, data, config, cuts), name


@pytest.mark.parametrize("seed", SEEDS)
def test_find_first_drivers_equal_whole_batch(seed, tmp_path):
    queries, data, fields = _workload(seed)
    config = SigmoConfig(record_embeddings=True, **fields)
    ref = _reference(queries, data, config, FIND_FIRST)
    assert ref.join_result.stats.pairs_joined > 0
    pairs = sorted(ref.matched_pairs())
    for name, got, _ in _drivers(queries, data, config, FIND_FIRST, tmp_path, seed):
        assert got.status == COMPLETE, name
        assert sorted(got.matched_pairs) == pairs, name
        assert len(got.embeddings) == got.total_matches, name
        assert verify_result(got, queries, data, config) == [], name


def _snapshot(result):
    """Everything a run reports except its clocks."""
    return {
        "status": result.status,
        "total_matches": result.total_matches,
        "matched_pairs": result.matched_pairs,
        "embeddings": _embeddings(
            (r.data_graph, r.query_graph, r.mapping) for r in result.embeddings
        ),
        "join_stats": result.join_stats,
        "stage_counts": result.stage_counts,
        "timing_keys": sorted(result.timings),
        "n_chunks": result.n_chunks,
        "peak_memory_bytes": result.peak_memory_bytes,
        "chunk_records": result.chunk_records,
        "attempts": [replace(a, seconds=0.0) for a in result.report.attempts],
    }


def _manifest(directory):
    """A checkpoint manifest with its timing values removed."""
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    for entry in manifest["chunks"]:
        entry["timings"] = sorted(entry["timings"])
    return manifest


def _configurations(queries, data, config, seed, n_workers, tmp_path):
    """(name, everything reported) of every configuration at ``n_workers``."""
    n = len(data)
    run = partial(run_resilient, queries, data, config=config, n_workers=n_workers)
    yield "plain", _snapshot(run())
    for size in (1, 3, n + 1):
        yield f"chunk[{size}]", _snapshot(run(size))
    directory = tmp_path / f"ckpt-{n_workers}"
    stopped, stopped_manifest, restarted = _restart(
        queries, data, config, FIND_ALL, directory, n_workers
    )
    yield "restart", [
        _snapshot(stopped), stopped_manifest, _snapshot(restarted), _manifest(directory)
    ]
    plan = FaultPlan(
        seed=seed, oom_rate=0.3, crash_rate=0.3, fault_attempts=2,
        oom_at=((3, 0),), crash_at=((0, 0), (6, 1)),
    )
    yield "faults", _snapshot(run(3, fault_plan=plan, retry=RetryPolicy(max_attempts=6)))
    hard = FaultPlan(crash_at=((3, 0), (6, 0), (6, 1)), crash_hard=True)
    crashed = _snapshot(run(3, fault_plan=hard, retry=RetryPolicy(max_attempts=4)))
    # A pool worker dies where an in-process attempt raises: only the
    # crash's detail (a broken pool, not the raised fault) differs.
    crashed["attempts"] = [
        replace(a, detail="") if a.outcome == "crash" else a for a in crashed["attempts"]
    ]
    yield "hard-crash", crashed
    full = sum(predict_chunk_footprint(queries, data).values())
    yield "memory", _snapshot(
        run(n, memory_budget_bytes=full // 3, retry=RetryPolicy(max_attempts=8))
    )


@pytest.mark.parametrize(
    ("seed", "n_workers"), [(seed, k) for seed in POOL_SEEDS for k in (2, 3)]
)
def test_pooled_equals_serial(seed, n_workers, tmp_path):
    queries, data, fields = _workload(seed)
    config = SigmoConfig(record_embeddings=True, **fields)
    serial = dict(_configurations(queries, data, config, seed, 1, tmp_path))
    outcomes = {a.outcome for a in serial["faults"]["attempts"]}
    assert {"crash", "oom"} <= outcomes  # the plan fired both faults
    assert serial["memory"]["n_chunks"] > 1  # the budget split the batch
    assert serial["memory"]["attempts"][0].outcome == "oom"
    assert [a.outcome for a in serial["hard-crash"]["attempts"]].count("crash") == 3
    pooled = _configurations(queries, data, config, seed, n_workers, tmp_path)
    for name, got in pooled:
        assert got == serial[name], name
