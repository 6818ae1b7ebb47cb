"""Fault tolerance: recovery overhead and cluster degradation under faults.

The paper's production regime (256 GPUs sweeping all of ZINC) makes OOMs,
worker crashes, rank failures, and stragglers routine.  This experiment
measures what the resilient runtime (:mod:`repro.runtime`) pays to absorb
them:

* the serial chunk driver (:func:`repro.runtime.run_resilient`) under
  injected OOMs — matches identical to one whole-batch engine run,
  bounded retries, measured recompute overhead;
* the simulated cluster under rank failures and stragglers — matches are
  conserved (failed blocks re-execute on survivors) while makespan and
  per-rank runtime CV degrade measurably (the Fig. 13/14 metrics under
  fault pressure).
"""

from __future__ import annotations

import os

from benchmarks.experiments.shared import (
    ExperimentReport,
    SEED,
    fmt_table,
    reference_dataset,
)
from repro.cluster.mpi_sim import SimulatedCluster
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.runtime import FaultPlan, RetryPolicy, run_resilient

N_GPUS = int(os.environ.get("SIGMO_BENCH_FAULT_GPUS", "16"))
SHARD_MOLECULES = int(os.environ.get("SIGMO_BENCH_SHARD", "10"))
N_DATA_GRAPHS = int(os.environ.get("SIGMO_BENCH_FAULT_DATA_GRAPHS", "60"))
N_QUERIES = 24
CHUNK_SIZE = 10
OOM_RATE = 0.6


def _resilient_rows():
    """Serial chunk driver, clean vs OOM-faulted: equality and overhead."""
    ds = reference_dataset()
    queries = ds.queries[:N_QUERIES]
    data = ds.data[:N_DATA_GRAPHS]
    expected = sorted(SigmoEngine(queries, data).run().matched_pairs())
    clean = run_resilient(queries, data, chunk_size=CHUNK_SIZE)
    faulted = run_resilient(
        queries,
        data,
        chunk_size=CHUNK_SIZE,
        fault_plan=FaultPlan(seed=SEED, oom_rate=OOM_RATE, fault_attempts=2),
        retry=RetryPolicy(max_attempts=8),
    )
    overhead = (
        faulted.total_seconds / clean.total_seconds if clean.total_seconds else 0.0
    )
    rows = [
        ["clean", clean.status, clean.total_matches, clean.report.n_retries, "1.00x"],
        [
            f"oom={OOM_RATE}",
            faulted.status,
            faulted.total_matches,
            faulted.report.n_retries,
            f"{overhead:.2f}x",
        ],
    ]
    data_out = {
        "matches_equal": (
            sorted(faulted.matched_pairs) == expected
            and sorted(clean.matched_pairs) == expected
        ),
        "retries": faulted.report.n_retries,
        "compute_overhead": overhead,
    }
    return rows, data_out


def _cluster_rows():
    """Simulated cluster, clean vs rank failures vs stragglers."""
    ds = reference_dataset()
    queries = ds.queries[:N_QUERIES]
    cluster = SimulatedCluster(
        n_ranks=N_GPUS,
        device="nvidia-a100",
        config=SigmoConfig(refinement_iterations=6),
        molecules_per_rank=500_000,
        shard_molecules=SHARD_MOLECULES,
    )
    scenarios = {
        "clean": None,
        "2 ranks fail": FaultPlan(seed=SEED, failed_ranks=(3, 11)),
        "stragglers": FaultPlan(
            seed=SEED, straggler_rate=0.2, straggler_slowdown=1.6
        ),
    }
    rows = []
    stats = {}
    for name, plan in scenarios.items():
        results = cluster.run(queries, seed=SEED, fault_plan=plan)
        makespan = SimulatedCluster.makespan(results)
        cv = SimulatedCluster.runtime_cv(results)
        matches = SimulatedCluster.total_matches(results)
        rows.append(
            [name, len(results), matches, round(makespan, 3), f"{cv:.1%}"]
        )
        stats[name] = {
            "ranks": len(results),
            "matches": matches,
            "makespan": makespan,
            "cv": cv,
        }
    return rows, stats


def run() -> ExperimentReport:
    """Recovery-overhead and degradation tables under seeded faults."""
    res_rows, res_data = _resilient_rows()
    clu_rows, clu_data = _cluster_rows()
    text = fmt_table(
        ["driver", "status", "matches", "retries", "compute"], res_rows
    )
    text += "\n\n" + fmt_table(
        ["cluster scenario", "ranks", "matches", "makespan(s)", "cv"], clu_rows
    )
    text += "\n(matches are conserved under every fault scenario)"
    return ExperimentReport(
        experiment="faults",
        title="Fault-tolerance overhead and cluster degradation",
        text=text,
        data={"resilient": res_data, "cluster": clu_data},
        paper_reference=(
            "production regime of Figs. 13-14: static partitioning, failures "
            "absorbed by re-execution; exactness must survive every fault"
        ),
    )
