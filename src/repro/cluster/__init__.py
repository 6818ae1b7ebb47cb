"""Simulated multi-GPU cluster (paper section 5.4).

The paper scales SIGMo to 256 NVIDIA A100s with MPI, statically assigning
500,000 ZINC molecules per GPU.  No cluster exists here, so this package
simulates the same execution structure:

* :mod:`~repro.cluster.mpi_sim` — per-rank execution: each rank runs the
  *real* engine on its shard (at a configurable per-rank scale) and
  converts its measured counters to A100 time with the performance model;
* :mod:`~repro.cluster.scaling` — the weak-scaling harness behind
  Figs. 13 and 14 (makespan = slowest rank, throughput = total matches /
  makespan, per-rank runtime variability).

The practical counterpart on one host is the chunk loop with a worker
pool, :func:`repro.runtime.resilient.run_resilient` with ``n_workers=k``;
its workers map the batches through :mod:`~repro.cluster.shm`.

The mpi4py-style interface (``rank``, ``size``, gather semantics) is kept
so the harness reads like the MPI driver it replaces.
"""

from repro.cluster.mpi_sim import RankResult, SimulatedCluster
from repro.cluster.scaling import WeakScalingPoint, weak_scaling_sweep

__all__ = [
    "RankResult",
    "SimulatedCluster",
    "WeakScalingPoint",
    "weak_scaling_sweep",
]
