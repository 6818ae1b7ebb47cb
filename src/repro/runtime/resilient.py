"""Chunked execution that finishes with partial results, never crashes.

:func:`run_resilient` is the one chunk loop: the out-of-core batches of
paper Fig. 12 and, with ``n_workers=k``, the static per-GPU blocks of
section 5.4 on host processes — both are independent data-graph ranges
folded in range order.  Queries and data arrive as graph lists or CSR-GO
batches; both are converted once, and every chunk is cut from the one
data batch with :meth:`~repro.core.csrgo.CSRGO.slice_graphs`.  Chunk
ranges come from :func:`~repro.pipeline.policies.chunk_ranges`; each
attempt is one pipeline run over the whole chunk, and checkpointed and
fresh chunks fold through
:meth:`~repro.pipeline.aggregate.ResultFields.add`.

The parent process does all planning and bookkeeping; only the attempt
itself runs where :mod:`repro.runtime.workers` puts it (in process, or
in a pool worker).  The parent keeps up to ``n_workers`` attempts in
flight and commits their outcomes in queue order; after the first
commit that is retried or split, every later attempt in flight is
discarded and its task requeued, so a pooled run is the serial run.
Three recovery mechanisms compose:

1. **Graceful memory degradation** — every chunk's predicted footprint
   (:func:`repro.device.memory.sigmo_footprint_bytes`) is leased from a
   :class:`~repro.device.memory.DeviceMemoryPool` as if the chunk ran
   alone (each worker models its own device); a
   :class:`~repro.device.memory.DeviceOutOfMemory` (predicted or
   injected), or a :class:`~repro.core.signatures.SignatureCapacityError`
   from a chunk whose signature BFS is over the word cap, splits the
   chunk in half and retries.  A crashed attempt retries the same range
   after the :class:`~repro.pipeline.policies.RetryPolicy` backoff.
   Attempts per range are bounded by ``retry.max_attempts``.  Chunking
   never changes results (data graphs are independent), so a degraded
   run is bitwise-identical to a clean one.
2. **Checkpoint/resume** — completed chunks are persisted through a
   :class:`~repro.runtime.checkpoint.CheckpointStore`; a restarted run
   re-executes only uncovered ranges.
3. **Fault injection** — a seeded
   :class:`~repro.runtime.faults.FaultPlan` keyed by ``(chunk start,
   attempt)`` exercises all of the above deterministically.

Join truncation and resume belong to the engine
(:meth:`~repro.core.engine.SigmoEngine.run`,
:meth:`~repro.pipeline.session.MatcherSession.match`) and the serving
layer, not to the chunk loop: a chunk attempt always runs whole.

Every attempt is logged in a :class:`~repro.runtime.telemetry.RunReport`.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL
from repro.core.signatures import SignatureCapacityError
from repro.device.memory import DeviceMemoryPool, DeviceOutOfMemory, sigmo_footprint_bytes
from repro.graph.labeled_graph import LabeledGraph
from repro.io.serialization import graphs_fingerprint, sha256_bytes
from repro.obs.trace import get_tracer
from repro.pipeline.aggregate import COMPLETE, PARTIAL, ResultFields
from repro.pipeline.policies import (
    BudgetInfeasible,
    RetryPolicy,
    chunk_ranges,
    chunk_size_for_budget,
)
from repro.pipeline.stages import as_csrgo
from repro.runtime import telemetry
from repro.runtime.checkpoint import STATUS_OK, CheckpointStore, ChunkPayload
from repro.runtime.faults import FaultPlan, WorkerCrash
from repro.runtime.telemetry import Attempt, RunReport
from repro.runtime.workers import Job, Outcome, attempt_runner

#: Graph lists or an already-converted batch: either side of a run.
Graphs = list[LabeledGraph] | CSRGO

#: Chunk-record statuses (a superset of the checkpoint's ``ok``).
CHUNK_OK = STATUS_OK
CHUNK_FAILED = "failed"
CHUNK_INFEASIBLE = "infeasible"


@dataclass
class ChunkRecord:
    """Per-chunk outcome telemetry (one per executed or cached range)."""

    start: int
    stop: int
    status: str
    attempts: int = 1
    total_matches: int = 0
    from_checkpoint: bool = False
    detail: str = ""


@dataclass(kw_only=True)
class ResilientResult(ResultFields):
    """Aggregated outcome of a resilient run: the summed fields plus
    status, chunk count, chunk records and the attempt log.

    ``matched_pairs`` / ``embeddings`` use global data-graph indices and
    are ordered by data graph exactly like an uninterrupted chunk-by-chunk
    run — degradation, recovery and worker count never reorder results.
    A range that ran out of attempts is a ``failed`` chunk record and the
    status is ``partial``.
    """

    status: str = COMPLETE
    n_chunks: int = 0
    chunks_from_checkpoint: int = 0
    chunk_records: list[ChunkRecord] = field(default_factory=list)
    report: RunReport = field(default_factory=RunReport)

    def add(self, part: ResultFields) -> ResilientResult:
        """Fold ``part`` in (returns ``self``): a folded run adds its
        ``n_chunks``, a single chunk's payload adds one."""
        super().add(part)
        self.n_chunks += part.n_chunks if isinstance(part, ResilientResult) else 1
        return self

    @property
    def total_seconds(self) -> float:
        """Summed per-stage engine seconds across every executed chunk."""
        return sum(self.timings.values())


def _content_fingerprint(side: Graphs) -> str:
    if isinstance(side, CSRGO):
        return side.content_hash()
    return graphs_fingerprint(side)


def workload_fingerprint(
    queries: Graphs, data: Graphs, mode: str, config: SigmoConfig | None
) -> str:
    """Fingerprint binding a checkpoint to its exact workload.

    Graph lists hash with :func:`~repro.io.serialization.graphs_fingerprint`
    (stable across releases, so existing checkpoints stay loadable);
    CSR-GO batches with their :meth:`~repro.core.csrgo.CSRGO.content_hash`.
    """
    config = config or SigmoConfig()
    text = "|".join(
        (
            _content_fingerprint(queries),
            _content_fingerprint(data),
            mode,
            repr(config),
        )
    )
    return sha256_bytes(text.encode("utf-8"))


def _sizes(side: Graphs) -> tuple[int, int]:
    """(nodes, adjacency slots) of a graph list or CSR-GO batch."""
    if isinstance(side, CSRGO):
        return side.n_nodes, side.n_adjacency
    return sum(g.n_nodes for g in side), 2 * sum(g.n_edges for g in side)


def predict_chunk_footprint(
    queries: Graphs, chunk: Graphs, word_bits: int = 64
) -> dict[str, int]:
    """Predicted device allocations of one chunk's engine run."""
    n_query_nodes, n_query_adj = _sizes(queries)
    n_data_nodes, n_data_adj = _sizes(chunk)
    return sigmo_footprint_bytes(
        n_query_nodes, n_data_nodes, n_data_adj, n_query_adj, word_bits
    )


@dataclass
class _Task:
    """One pending range: data graphs ``[start, stop)``."""

    start: int
    stop: int
    attempt: int = 0

    @property
    def unit(self) -> str:
        return f"chunk[{self.start}:{self.stop}]"


def run_resilient(
    queries: Graphs,
    data: Graphs,
    chunk_size: int | None = 256,
    mode: str = FIND_ALL,
    config: SigmoConfig | None = None,
    memory: DeviceMemoryPool | None = None,
    memory_budget_bytes: int | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: CheckpointStore | str | Path | None = None,
    fault_plan: FaultPlan | None = None,
    n_workers: int = 1,
) -> ResilientResult:
    """Run the pipeline over ``data`` with fault-tolerant chunking.

    Results are exactly those of one whole-batch run; only peak memory
    differs.  Each chunk attempt is one unbudgeted pipeline run over the
    whole chunk.  Data-graph indices in ``matched_pairs`` and ``embeddings``
    are global (indices into ``data``).  Everything but the attempt
    timings (and a crash's detail text) is independent of
    ``n_workers``, unless a pool worker really dies: that takes down
    every attempt in flight, and each is charged a crash.

    Parameters
    ----------
    queries / data:
        Graph lists or :class:`~repro.core.csrgo.CSRGO` batches.  Both
        sides are converted once; each chunk is a ``slice_graphs`` copy.
    chunk_size:
        Data graphs per chunk; ``None`` derives it from the memory budget
        (falling back to single-graph chunks when even that is infeasible
        — the :class:`~repro.pipeline.policies.BudgetInfeasible`
        degradation path).
    memory / memory_budget_bytes:
        Device memory pool (or a plain byte budget) every chunk must fit
        on its own; omitted means unbounded.
    retry:
        Per-range attempt bound and backoff schedule (default
        :class:`~repro.pipeline.policies.RetryPolicy`); a range still
        failing after ``retry.max_attempts`` is recorded
        (``failed``/``infeasible``) and the run continues, returning
        ``status="partial"``.
    checkpoint:
        Checkpoint directory or store; completed chunks are persisted and
        a restarted run skips them (workload fingerprint enforced), so a
        ``partial`` run restarted with the same checkpoint runs only the
        ranges it did not finish.
    fault_plan:
        Deterministic fault injection keyed by ``(chunk start,
        attempt)`` (tests/benchmarks).
    n_workers:
        Attempts run at once: 1 runs them in this process, more in a
        pool of that many worker processes (at most one per data graph).
        The pool runs separate chunks only, so ``chunk_size`` must be at
        most ``ceil(len(data) / n_workers)`` to keep every worker busy.
    """
    n_data = data.n_graphs if isinstance(data, CSRGO) else len(data)
    if not n_data:
        raise ValueError("at least one data graph is required")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1 (or None to auto-size)")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    retry = retry or RetryPolicy()
    config = config or SigmoConfig()

    pool = memory
    if pool is None and memory_budget_bytes is not None:
        pool = DeviceMemoryPool(
            capacity_bytes=memory_budget_bytes, reserve_fraction=0.0
        )

    store = checkpoint
    if store is not None and not isinstance(store, CheckpointStore):
        store = CheckpointStore(
            store, workload_fingerprint(queries, data, mode, config)
        )
    cached = store.load() if store is not None else {}

    query = as_csrgo(queries, "query")
    if not isinstance(data, CSRGO):
        data = CSRGO.from_graphs(data)

    result = ResilientResult()
    if chunk_size is None:
        chunk_size = _auto_chunk_size(query, data, pool, result.report)
    tasks = _plan_tasks(n_data, chunk_size, cached)
    payloads: dict[tuple[int, int], ChunkPayload] = dict(cached)

    # Cached chunks contribute directly.
    for start, stop in sorted(cached):
        payload = cached[(start, stop)]
        result.chunk_records.append(
            ChunkRecord(
                start=start,
                stop=stop,
                status=CHUNK_OK,
                attempts=0,
                total_matches=payload.total_matches,
                from_checkpoint=True,
            )
        )
        result.chunks_from_checkpoint += 1
        result.report.record(
            Attempt(
                unit=f"chunk[{start}:{stop}]",
                attempt=0,
                outcome=telemetry.CACHED,
                chunk_size=stop - start,
            )
        )

    width = min(n_workers, n_data)
    loop = _Loop(
        query, data, config, pool, retry, fault_plan, store, result, payloads, width
    )
    with attempt_runner(query, data, width, config=config, mode=mode) as submit:
        loop.run(tasks, submit)

    # Assemble in range order — identical to an uninterrupted serial
    # chunked run.
    for key in sorted(payloads):
        result.add(payloads[key])
    if pool is not None:
        result.peak_memory_bytes = max(result.peak_memory_bytes, pool.peak)
    bad = [
        rec
        for rec in result.chunk_records
        if rec.status in (CHUNK_FAILED, CHUNK_INFEASIBLE)
    ]
    if bad:
        result.status = PARTIAL
    result.chunk_records.sort(key=lambda r: (r.start, r.stop))
    return result


def _auto_chunk_size(
    query: CSRGO,
    data: CSRGO,
    pool: DeviceMemoryPool | None,
    report: RunReport,
) -> int:
    """Derive the chunk size from the pool budget (degrading to 1)."""
    if pool is None:
        return data.n_graphs
    try:
        return chunk_size_for_budget(
            max(query.n_nodes, 1),
            max(data.n_nodes / data.n_graphs, 1e-9),
            pool.capacity,
        )
    except BudgetInfeasible as exc:
        # Even one average graph exceeds the bitmap share of the budget;
        # degrade to single-graph chunks and let the per-chunk lease
        # decide which graphs truly cannot run.
        report.record(
            Attempt(
                unit="auto-chunk-size",
                attempt=0,
                outcome=telemetry.INFEASIBLE,
                chunk_size=1,
                detail=str(exc),
            )
        )
        return 1


def _plan_tasks(
    n_data: int, chunk_size: int, cached: dict[tuple[int, int], ChunkPayload]
) -> list[_Task]:
    """Pending ranges: the full span minus checkpointed ranges."""
    tasks: list[_Task] = []
    position = 0
    for start, stop in sorted(cached) + [(n_data, n_data)]:
        # Chunk the gap before this completed range (empty when covered).
        tasks.extend(
            _Task(lo, hi) for lo, hi in chunk_ranges(position, start, chunk_size)
        )
        position = max(position, stop)
    return tasks


@dataclass(frozen=True)
class _Prepared:
    """An attempt as dispatched: its lease, the fault it met before any
    work, and how to wait for its outcome (``None`` when it did not run)."""

    footprint: dict[str, int] | None
    fault: Exception | None = None
    wait: Callable[[], Outcome] | None = None
    die: bool = False

    @property
    def blocks(self) -> bool:
        """Nothing is dispatched behind this attempt until it commits."""
        return self.wait is None or self.die


@dataclass
class _Loop:
    """The parent's side of the chunk loop: prepare, commit, requeue."""

    query: CSRGO
    data: CSRGO
    config: SigmoConfig
    pool: DeviceMemoryPool | None
    retry: RetryPolicy
    fault_plan: FaultPlan | None
    store: CheckpointStore | None
    result: ResilientResult
    payloads: dict[tuple[int, int], ChunkPayload]
    width: int = 1

    def run(self, tasks: list[_Task], submit: Callable[[Job], Callable[[], Outcome]]) -> None:
        """Run ``tasks`` with up to ``width`` attempts in flight, committing
        them in queue order; a worker is refilled as soon as the oldest
        attempt commits.

        After the first commit that retries or splits, every later
        attempt in flight is discarded and its task requeued unchanged —
        except attempts a broken pool took down, which are charged.  Nothing is dispatched behind an attempt that met a fault
        before any work, and an injected hard crash runs alone, so no
        attempt runs only to be discarded or taken down for it.
        """
        queue = deque(tasks)
        window: deque[tuple[_Task, _Prepared]] = deque()
        while queue or window:
            while queue and len(window) < self.width:
                if window and (window[-1][1].blocks or self._dies(queue[0])):
                    break
                task = queue.popleft()
                delay = self.retry.delay(task.attempt, unit=task.start)
                if delay > 0:
                    time.sleep(delay)
                window.append((task, self._prepare(task, submit)))
            task, prepared = window.popleft()
            follow = self._commit(task, prepared, prepared.wait)
            if follow:
                queue.extendleft(reversed(follow + self._discard(window)))

    def _discard(self, window: deque[tuple[_Task, _Prepared]]) -> list[_Task]:
        """Wait out every attempt in flight; returns their tasks, charged
        when a broken pool took them down."""
        requeue: list[_Task] = []
        while window:
            task, prepared = window.popleft()
            outcome = prepared.wait() if prepared.wait is not None else None
            if isinstance(outcome, BrokenExecutor):
                requeue.extend(self._commit(task, prepared, lambda: outcome))
            else:
                requeue.append(task)
        return requeue

    def _dies(self, task: _Task) -> bool:
        """Whether the attempt is an injected hard crash of a pool worker."""
        plan = self.fault_plan
        return (
            self.width > 1
            and plan is not None
            and plan.crash_hard
            and plan.injects_crash(task.start, task.attempt)
        )

    def _prepare(self, task: _Task, submit) -> _Prepared:
        """Check the attempt's faults and lease in serial order, then
        dispatch it."""
        job = Job(task.start, task.stop, task.attempt)
        footprint = None
        if self.pool is not None:
            chunk = self.data.slice_graphs(task.start, task.stop)
            footprint = predict_chunk_footprint(self.query, chunk, self.config.word_bits)
            if self._infeasible(task, footprint):
                return _Prepared(footprint)
        if self._dies(task):
            return _Prepared(footprint, wait=submit(replace(job, die=True)), die=True)
        try:
            if self.fault_plan is not None:
                self.fault_plan.check_crash(task.start, task.attempt)
                self.fault_plan.check_oom(task.start, task.attempt)
            if footprint is not None:
                # Every chunk is leased as if it ran alone: each worker
                # models its own device.
                with self.pool.lease(footprint, tag=task.unit):
                    pass
        except (WorkerCrash, DeviceOutOfMemory) as exc:
            return _Prepared(footprint, fault=exc)
        return _Prepared(footprint, wait=submit(job))

    def _infeasible(self, task: _Task, footprint: dict[str, int] | None) -> bool:
        """A single graph that can never fit: recorded, not retried."""
        return (
            footprint is not None
            and task.stop - task.start == 1
            and sum(footprint.values()) > self.pool.capacity
        )

    def _commit(
        self, task: _Task, prepared: _Prepared, wait: Callable[[], Outcome] | None
    ) -> list[_Task]:
        """Wait for and record one attempt inside its runtime span (an
        in-process attempt's engine spans nest in it); returns the
        attempt's retry or split tasks."""
        with get_tracer().span(
            task.unit,
            category="runtime",
            attempt=task.attempt,
            chunk_size=task.stop - task.start,
        ) as span:
            follow = self._record(task, prepared, wait() if wait is not None else None)
            outcome = self.result.report.attempts[-1].outcome
            span.set(outcome=outcome)
            if outcome == telemetry.OK:
                span.set(matches=self.result.chunk_records[-1].total_matches)
        return follow

    def _record(
        self, task: _Task, prepared: _Prepared, outcome: Outcome | None
    ) -> list[_Task]:
        """Record one attempt; returns its retry or split tasks."""
        span = task.stop - task.start
        report = self.result.report
        backoff = self.retry.delay(task.attempt, unit=task.start)
        footprint = prepared.footprint
        if self._infeasible(task, footprint):
            report.record(
                Attempt(
                    unit=task.unit,
                    attempt=task.attempt,
                    outcome=telemetry.INFEASIBLE,
                    chunk_size=span,
                    detail=f"footprint {sum(footprint.values())} > capacity {self.pool.capacity}",
                )
            )
            self.result.chunk_records.append(
                ChunkRecord(
                    start=task.start,
                    stop=task.stop,
                    status=CHUNK_INFEASIBLE,
                    attempts=task.attempt + 1,
                    detail="graph footprint exceeds device capacity",
                )
            )
            return []
        failure = prepared.fault if prepared.fault is not None else outcome
        if isinstance(failure, (DeviceOutOfMemory, SignatureCapacityError)):
            return self._retry(task, telemetry.OOM, str(failure), backoff)
        if isinstance(failure, (WorkerCrash, BrokenExecutor)):
            return self._retry(task, telemetry.CRASH, str(failure), backoff)
        if isinstance(failure, Exception):
            raise failure

        payload = outcome.payload
        report.record(
            Attempt(
                unit=task.unit,
                attempt=task.attempt,
                outcome=telemetry.OK,
                chunk_size=span,
                seconds=outcome.seconds,
                backoff_seconds=backoff,
            )
        )
        self.result.chunk_records.append(
            ChunkRecord(
                start=task.start,
                stop=task.stop,
                status=CHUNK_OK,
                attempts=task.attempt + 1,
                total_matches=payload.total_matches,
            )
        )
        self.payloads[(task.start, task.stop)] = payload
        if self.store is not None:
            self.store.save_chunk(payload)
        return []

    def _retry(self, task: _Task, outcome: str, detail: str, backoff: float) -> list[_Task]:
        """Log a failed attempt; split or retry the range while attempts last."""
        span = task.stop - task.start
        self.result.report.record(
            Attempt(
                unit=task.unit,
                attempt=task.attempt,
                outcome=outcome,
                chunk_size=span,
                backoff_seconds=backoff,
                detail=detail,
            )
        )
        next_attempt = task.attempt + 1
        if self.retry.exhausted(next_attempt):
            what = "out of memory" if outcome == telemetry.OOM else "crashed"
            self.result.chunk_records.append(
                ChunkRecord(
                    start=task.start,
                    stop=task.stop,
                    status=CHUNK_FAILED,
                    attempts=next_attempt,
                    detail=f"{what} after {next_attempt} attempt(s)",
                )
            )
            return []
        if outcome == telemetry.OOM and span > 1:
            # Exponential degradation: split the range in half.
            half = span // 2
            return [
                _Task(task.start, task.start + half, attempt=next_attempt),
                _Task(task.start + half, task.stop, attempt=next_attempt),
            ]
        return [replace(task, attempt=next_attempt)]
