"""Fault-tolerant execution layer (the production-runtime story).

The paper's headline deployment — 256 GPUs sweeping all of ZINC with MPI
(Figs. 13-14) — lives in a regime where memory exhaustion, embedding
explosions, worker crashes, and rank failures are routine.  The engine
under :mod:`repro.core` is exact but *brittle*: one fault loses the whole
run.  This package wraps it in a resilient runtime:

* :mod:`~repro.runtime.resilient` — the one chunk loop, serial or over
  a worker pool, with graceful memory degradation (OOM → smaller
  chunks), crash retry with backoff, and checkpoint/resume (each chunk
  attempt runs whole: join truncation and resume belong to the engine
  and the serving layer);
* :mod:`~repro.runtime.workers` — where an attempt runs: in process, or
  in a pool worker that maps the batches from shared memory once and
  keeps one session;
* :mod:`~repro.runtime.checkpoint` — atomic, checksummed chunk
  persistence;
* :mod:`~repro.runtime.faults` — seeded deterministic fault injection
  (OOMs, worker crashes, rank failures, stragglers, poison queries);
* :mod:`~repro.runtime.telemetry` — per-attempt observability.

A pooled run (``run_resilient(..., n_workers=k)``) is the serial run:
the parent keeps up to ``k`` attempts in flight, commits outcomes in
queue order, and rebuilds a broken pool.  Rank-failure re-execution for
the simulated MPI cluster lives with the cluster itself (:meth:`repro.cluster.mpi_sim.SimulatedCluster.run`
accepts a :class:`~repro.runtime.faults.FaultPlan`).
"""

from repro.device.memory import DeviceMemoryPool, DeviceOutOfMemory
from repro.pipeline.aggregate import COMPLETE, PARTIAL
from repro.pipeline.policies import RetryPolicy
from repro.runtime.checkpoint import CheckpointMismatch, CheckpointStore, ChunkPayload
from repro.runtime.faults import (
    NO_FAULTS,
    FaultPlan,
    PoisonQuery,
    RankFailure,
    WorkerCrash,
)
from repro.runtime.resilient import (
    ChunkRecord,
    ResilientResult,
    run_resilient,
    workload_fingerprint,
)
from repro.runtime.telemetry import Attempt, RunReport

__all__ = [
    "Attempt",
    "CheckpointMismatch",
    "CheckpointStore",
    "ChunkPayload",
    "ChunkRecord",
    "COMPLETE",
    "DeviceMemoryPool",
    "DeviceOutOfMemory",
    "FaultPlan",
    "NO_FAULTS",
    "PARTIAL",
    "PoisonQuery",
    "RankFailure",
    "ResilientResult",
    "RetryPolicy",
    "RunReport",
    "WorkerCrash",
    "run_resilient",
    "workload_fingerprint",
]
