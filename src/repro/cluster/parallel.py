"""Host-parallel, fault-tolerant execution across CPU workers.

The simulated cluster (:mod:`repro.cluster.mpi_sim`) models the paper's
multi-GPU runs; this module is the *practical* counterpart: run SIGMo's
independent data slices on multiple host processes, mpi4py-style SPMD
without MPI.  Each worker gets one contiguous slice (static partitioning,
like the paper's per-GPU blocks, section 5.4, cut by the same
:func:`~repro.pipeline.policies.chunk_ranges` planner the chunk loop
uses) and runs the serial chunk loop
:func:`repro.runtime.resilient.run_resilient` on it; the worker results
fold through :meth:`~repro.pipeline.aggregate.AggregateResult.add`, so
results are bitwise identical to a serial run (asserted in tests).

Transport: both batches are converted to CSR-GO once in the parent and
exported via :mod:`repro.cluster.shm`; each worker maps the arrays a
single time (cached for its lifetime) and carves its slice out with
``slice_graphs`` — payloads shrink to a name + layout tuple regardless of
batch size.  When the platform cannot allocate shared memory the driver
falls back to pickling each slice's CSR-GO into its payload.

Fault tolerance:

* **retry with exponential backoff** — a slice whose worker crashed or
  OOMed is re-dispatched deterministically (same slice, incremented
  attempt counter) after the :class:`~repro.pipeline.policies.RetryPolicy`
  delay, with seeded jitter;
* **memory degradation** — an OOMed slice retries with half its
  within-worker chunk size (chunking never changes results);
* **hard-crash recovery** — a worker process that dies outright
  (``FaultPlan(crash_hard=True)``, or a real segfault) breaks the whole
  ``ProcessPoolExecutor``; the driver rebuilds the pool and re-dispatches
  every unfinished slice;
* **bounded failure** — a slice still failing after ``max_attempts`` is
  dropped from the aggregate and the run returns ``status="partial"``
  with its range in ``failed_slices`` instead of raising.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.cluster.shm import SharedCSRGO, ShmHandle, attached_csrgo, detach_all
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL
from repro.core.results import MatchRecord
from repro.device.memory import DeviceOutOfMemory
from repro.graph.labeled_graph import LabeledGraph
from repro.pipeline.aggregate import COMPLETE, PARTIAL, AggregateResult
from repro.pipeline.policies import RetryPolicy, chunk_ranges
from repro.runtime import telemetry
from repro.runtime.faults import FaultPlan, WorkerCrash
from repro.runtime.resilient import ResilientResult, run_resilient
from repro.runtime.telemetry import Attempt, RunReport


@dataclass(frozen=True)
class _Job:
    """One slice attempt as shipped to a worker.

    ``query``/``data`` are shared-memory handles, or — on the pickle
    fallback — the query batch and the slice's own CSR-GO.
    """

    query: ShmHandle | CSRGO
    data: ShmHandle | CSRGO
    start: int
    stop: int
    chunk_size: int
    mode: str
    config: SigmoConfig | None
    fault_plan: FaultPlan | None
    index: int
    attempt: int
    inline: bool


def _slice_worker(job: _Job) -> ResilientResult:
    """Pool entry: inject scheduled faults, map the batches, run one slice.

    The attach is cached per process (:func:`repro.cluster.shm.attached_csrgo`),
    so a worker that receives several slices maps each block exactly once.
    """
    plan = job.fault_plan
    if plan is not None:
        if plan.injects_crash(job.index, job.attempt):
            if plan.crash_hard and not job.inline:
                os._exit(13)  # simulate the process dying outright
            raise WorkerCrash(job.index, job.attempt)
        plan.check_oom(job.index, job.attempt)
    if isinstance(job.data, CSRGO):
        query, data = job.query, job.data
    else:
        query = attached_csrgo(job.query)
        data = attached_csrgo(job.data).slice_graphs(job.start, job.stop)
    result = run_resilient(
        query, data, job.chunk_size, mode=job.mode, config=job.config
    )
    # globalize indices relative to the slice start
    result.matched_pairs = [(d + job.start, q) for d, q in result.matched_pairs]
    result.embeddings = [
        MatchRecord(rec.data_graph + job.start, rec.query_graph, rec.mapping)
        for rec in result.embeddings
    ]
    return result


@dataclass
class _Slice:
    """Dispatch state of one contiguous data slice."""

    index: int
    start: int
    stop: int
    chunk_size: int
    attempt: int = 0
    result: ResilientResult | None = None
    failed: bool = False

    @property
    def unit(self) -> str:
        return f"slice-{self.index}[{self.start}:{self.stop}]"


@dataclass
class ParallelResult(AggregateResult):
    """Aggregated outcome of a parallel run.

    ``n_chunks`` and ``timings`` are summed across workers, so
    ``timings`` is total engine compute (CPU seconds), not wall time.
    ``transport`` records how batches reached the workers
    (``"shared-memory"`` or ``"pickle"``); ``failed_slices`` lists the
    ``[start, stop)`` ranges dropped after exhausting their attempts
    (``status="partial"``); ``report`` logs every slice attempt.
    """

    n_workers: int = 0
    transport: str = "shared-memory"
    failed_slices: list[tuple[int, int]] = field(default_factory=list)
    report: RunReport = field(default_factory=RunReport)


def run_parallel(
    queries: list[LabeledGraph],
    data: list[LabeledGraph],
    n_workers: int | None = None,
    chunk_size: int = 256,
    mode: str = FIND_ALL,
    config: SigmoConfig | None = None,
    fault_plan: FaultPlan | None = None,
    max_attempts: int = 4,
    backoff_base: float = 0.0,
    backoff_factor: float = 2.0,
    backoff_jitter: float = 0.25,
    backoff_seed: int = 0,
) -> ParallelResult:
    """Run the pipeline over ``data`` with a pool of worker processes.

    A fault-free (or fully recovered) run aggregates to exactly the
    serial :func:`~repro.runtime.resilient.run_resilient` result.

    Parameters
    ----------
    n_workers:
        Process count; defaults to ``os.cpu_count()`` (at most 8) capped
        at the number of data graphs.  One slice runs in-process.
    chunk_size:
        Within-worker chunk size (memory bound per process).
    fault_plan:
        Deterministic fault injection keyed by ``(slice index, attempt)``.
    max_attempts:
        Per-slice attempt bound; an exhausted slice is dropped and the
        run returns ``status="partial"`` with its range listed in
        ``failed_slices``.
    backoff_base / backoff_factor:
        Retry delay ``backoff_base * backoff_factor ** attempt`` seconds
        (0 disables sleeping; the schedule is still recorded in the
        telemetry).
    backoff_jitter / backoff_seed:
        Seeded per-slice jitter fraction spread over the delay so slices
        that failed together don't retry in lockstep; a pure function of
        ``(backoff_seed, slice index, attempt)``, so the schedule stays
        reproducible.
    """
    if not data:
        raise ValueError("at least one data graph is required")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    retry = RetryPolicy(
        max_attempts=max_attempts,
        backoff_base=backoff_base,
        backoff_factor=backoff_factor,
        jitter=backoff_jitter,
        seed=backoff_seed,
    )
    n_workers = n_workers or min(os.cpu_count() or 1, 8)
    n_workers = max(1, min(n_workers, len(data)))
    # Static ceil(n / workers)-wide blocks: the cut points, and so the
    # aggregation order, depend only on the inputs.
    block = -(-len(data) // n_workers)
    slices = [
        _Slice(index=i, start=start, stop=stop, chunk_size=chunk_size)
        for i, (start, stop) in enumerate(chunk_ranges(0, len(data), block))
    ]
    inline = len(slices) == 1
    query = CSRGO.from_graphs(queries)
    batch = CSRGO.from_graphs(data)
    out = ParallelResult(n_workers=len(slices))

    def settle(sl: _Slice, outcome_of, started: float) -> bool:
        """Record one attempt once its outcome is in; True if the pool broke."""
        broken = False
        try:
            sl.result = outcome_of()
            outcome, detail = telemetry.OK, ""
        except WorkerCrash as exc:
            outcome, detail = telemetry.CRASH, str(exc)
        except DeviceOutOfMemory as exc:
            outcome, detail = telemetry.OOM, str(exc)
        except BrokenProcessPool:
            # One worker died hard; every in-flight slice is collateral
            # (the crashed slice is indistinguishable from its victims).
            outcome, detail, broken = telemetry.CRASH, "process pool broken", True
        out.report.record(
            Attempt(
                unit=sl.unit,
                attempt=sl.attempt,
                outcome=outcome,
                chunk_size=sl.chunk_size,
                seconds=time.perf_counter() - started,
                backoff_seconds=(
                    0.0 if outcome == telemetry.OK
                    else retry.delay(sl.attempt, unit=sl.index)
                ),
                detail=detail,
            )
        )
        if outcome != telemetry.OK:
            if outcome == telemetry.OOM:
                sl.chunk_size = max(1, sl.chunk_size // 2)
            sl.attempt += 1
            sl.failed = retry.exhausted(sl.attempt)
        return broken

    with ExitStack() as shared:
        try:
            handles = (
                shared.enter_context(SharedCSRGO(query)).handle,
                shared.enter_context(SharedCSRGO(batch)).handle,
            )
        except OSError as exc:  # platform without shared memory
            warnings.warn(
                f"shared-memory transport unavailable ({exc}); "
                "falling back to pickle",
                RuntimeWarning,
                stacklevel=2,
            )
            handles = None
            out.transport = "pickle"

        def job(sl: _Slice) -> _Job:
            refs = handles or (query, batch.slice_graphs(sl.start, sl.stop))
            return _Job(
                *refs, sl.start, sl.stop, sl.chunk_size, mode, config,
                fault_plan, sl.index, sl.attempt, inline,
            )

        pending = list(slices)
        executor: ProcessPoolExecutor | None = None
        try:
            while pending:
                max_delay = max(
                    retry.delay(sl.attempt, unit=sl.index) for sl in pending
                )
                if max_delay > 0:
                    time.sleep(max_delay)
                if inline:
                    sl = pending[0]
                    settle(sl, lambda: _slice_worker(job(sl)), time.perf_counter())
                else:
                    if executor is None:
                        executor = ProcessPoolExecutor(max_workers=n_workers)
                    started = time.perf_counter()
                    futures = [
                        (sl, executor.submit(_slice_worker, job(sl))) for sl in pending
                    ]
                    broken = [settle(sl, f.result, started) for sl, f in futures]
                    if any(broken):
                        executor.shutdown(wait=False)
                        executor = None
                pending = [sl for sl in slices if sl.result is None and not sl.failed]
        finally:
            if executor is not None:
                executor.shutdown()
            if inline:
                # In-process run: release the parent-cached mapping before
                # the shared block is unlinked.
                detach_all()

    for sl in slices:
        if sl.result is None:
            out.failed_slices.append((sl.start, sl.stop))
        else:
            out.add(sl.result)
    out.matched_pairs.sort()
    out.status = PARTIAL if out.failed_slices else COMPLETE
    return out
