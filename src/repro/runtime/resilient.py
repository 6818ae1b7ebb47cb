"""Chunked execution that finishes with partial results, never crashes.

:func:`run_resilient` is the one chunk loop: the out-of-core batches of
paper Fig. 12 and, with ``n_workers=k``, the static per-GPU blocks of
section 5.4 on host processes — both are independent data-graph ranges
folded in range order.  Queries and data arrive as graph lists or CSR-GO
batches; both are converted once, and every chunk is cut from the one
data batch with :meth:`~repro.core.csrgo.CSRGO.slice_graphs`.  Chunk
ranges come from :func:`~repro.pipeline.policies.chunk_ranges`, and
engine segments, checkpointed progress and chunks all fold through
:meth:`~repro.pipeline.aggregate.ResultFields.add`.

The parent process does all planning and bookkeeping; only the attempt
itself runs where :mod:`repro.runtime.workers` puts it (in process, or
in a pool worker).  The parent keeps up to ``n_workers`` attempts in
flight and commits their outcomes in queue order; after the first
commit that is retried, split or stops the run, every later attempt in
flight is discarded and its task requeued, so a pooled run is the
serial run.  Four recovery mechanisms compose:

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
2. **Join watchdog** — an optional
   :class:`~repro.core.join.JoinBudget` stops an exploding Find All at a
   pair boundary; the chunk is tagged ``truncated`` and carries a
   :class:`ResumeToken`.  ``on_truncate="resume"`` continues in place
   (segmented execution); ``on_truncate="token"`` returns the verified
   partial results and the token.
3. **Checkpoint/resume** — completed chunks are persisted through a
   :class:`~repro.runtime.checkpoint.CheckpointStore`; a restarted run
   re-executes only uncovered ranges.
4. **Fault injection** — a seeded
   :class:`~repro.runtime.faults.FaultPlan` keyed by ``(chunk start,
   attempt)`` exercises all of the above deterministically.

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
from repro.core.join import FIND_ALL, JoinBudget
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
from repro.runtime.checkpoint import (
    STATUS_OK,
    STATUS_TRUNCATED,
    CheckpointStore,
    ChunkPayload,
)
from repro.runtime.faults import FaultPlan, WorkerCrash
from repro.runtime.telemetry import Attempt, RunReport
from repro.runtime.workers import Job, Outcome, attempt_runner

#: Graph lists or an already-converted batch: either side of a run.
Graphs = list[LabeledGraph] | CSRGO

#: Chunk-record statuses (superset of the checkpoint statuses).
CHUNK_OK = STATUS_OK
CHUNK_TRUNCATED = STATUS_TRUNCATED
CHUNK_FAILED = "failed"
CHUNK_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ResumeToken:
    """Continuation point of a truncated run.

    ``start``/``stop`` are the data-graph range of the truncated chunk and
    ``next_pair`` the first unprocessed GMCR pair inside it.  The token is
    *usable*: pass it back to :func:`run_resilient` (same workload, same
    arguments) and merge the returned remainder with the earlier partial
    result via :func:`combine_results` — or run with a checkpoint
    directory, where the merge happens automatically.
    """

    start: int
    stop: int
    next_pair: int

    def to_dict(self) -> dict:
        """JSON-ready form (the CLI prints this)."""
        return {"start": self.start, "stop": self.stop, "next_pair": self.next_pair}

    @classmethod
    def from_dict(cls, payload: dict) -> "ResumeToken":
        """Inverse of :meth:`to_dict`."""
        return cls(
            start=int(payload["start"]),
            stop=int(payload["stop"]),
            next_pair=int(payload["next_pair"]),
        )


@dataclass
class ChunkRecord:
    """Per-chunk outcome telemetry (one per executed or cached range)."""

    start: int
    stop: int
    status: str
    attempts: int = 1
    segments: int = 1
    total_matches: int = 0
    from_checkpoint: bool = False
    resume_pair: int | None = None
    detail: str = ""


@dataclass(kw_only=True)
class ResilientResult(ResultFields):
    """Aggregated outcome of a resilient run: the summed fields plus
    status, chunk count, chunk records, the attempt log and a resume token.

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
    resume_token: ResumeToken | None = None

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


def combine_results(*results: ResilientResult) -> ResilientResult:
    """Merge a partial run with its token-resumed remainder(s).

    Matched pairs are re-sorted globally, so the combination equals a
    single uninterrupted run regardless of how many times the work was
    split.  The combined status is ``complete`` once every resume token
    has been discharged by a later result completing its range and no
    chunk is left failed/infeasible.
    """
    out = ResilientResult()
    completed_ranges: set[tuple[int, int]] = set()
    for result in results:
        out.chunk_records.extend(result.chunk_records)
        out.report.attempts.extend(result.report.attempts)
        out.chunks_from_checkpoint += result.chunks_from_checkpoint
        out.add(result)
        completed_ranges.update(
            (rec.start, rec.stop)
            for rec in result.chunk_records
            if rec.status == CHUNK_OK
        )
    out.chunk_records.sort(key=lambda r: (r.start, r.stop, r.resume_pair or 0))
    out.matched_pairs.sort()
    out.embeddings.sort(key=lambda rec: (rec.data_graph, rec.query_graph))
    for result in results:
        token = result.resume_token
        if token is not None and (token.start, token.stop) not in completed_ranges:
            out.status = PARTIAL
            out.resume_token = token
    if any(
        rec.status in (CHUNK_FAILED, CHUNK_INFEASIBLE) for rec in out.chunk_records
    ):
        out.status = PARTIAL
    return out


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
    """One pending range: ``[start, stop)`` from GMCR pair ``next_pair``."""

    start: int
    stop: int
    next_pair: int = 0
    attempt: int = 0
    # Accumulated partial payload from a previously truncated execution
    # of the same range (checkpoint resume); merged into the final chunk.
    prior: ChunkPayload | None = None

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
    join_budget: JoinBudget | None = None,
    on_truncate: str = "resume",
    checkpoint: CheckpointStore | str | Path | None = None,
    fault_plan: FaultPlan | None = None,
    resume_token: ResumeToken | dict | None = None,
    n_workers: int = 1,
) -> ResilientResult:
    """Run the pipeline over ``data`` with fault-tolerant chunking.

    Results are exactly those of one whole-batch run; only peak memory
    differs.  Data-graph indices in ``matched_pairs`` and ``embeddings``
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
    join_budget / on_truncate:
        Join watchdog policy: ``"resume"`` transparently continues a
        truncated chunk in budgeted segments; ``"token"`` stops the run
        at the truncation and returns partial results plus a
        :class:`ResumeToken`.
    checkpoint:
        Checkpoint directory or store; completed chunks are persisted and
        a restarted run skips them (workload fingerprint enforced).
    fault_plan:
        Deterministic fault injection keyed by ``(chunk start,
        attempt)`` (tests/benchmarks).
    resume_token:
        Continue a token-truncated run: executes the token's remainder
        plus everything after it and returns only that new work — merge
        with the earlier partial via :func:`combine_results`.  When the
        earlier run used a checkpoint, prefer restarting with just
        ``checkpoint=`` (no token): completed chunks are loaded and the
        truncated chunk resumes from its persisted pair token, so the
        returned result is the complete run.
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
    if on_truncate not in ("resume", "token"):
        raise ValueError("on_truncate must be 'resume' or 'token'")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    retry = retry or RetryPolicy()
    config = config or SigmoConfig()
    if isinstance(resume_token, dict):
        resume_token = ResumeToken.from_dict(resume_token)

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
    tasks = _plan_tasks(n_data, chunk_size, cached, resume_token)
    payloads: dict[tuple[int, int, int], ChunkPayload] = {}

    # Cached complete chunks contribute directly.
    for (start, stop), payload in sorted(cached.items()):
        if payload.status != STATUS_OK:
            continue
        if resume_token is not None and stop <= resume_token.start:
            continue  # the earlier partial result already holds this range
        payloads[(start, stop, 0)] = payload
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
    with attempt_runner(
        query, data, width,
        config=config, mode=mode, join_budget=join_budget, on_truncate=on_truncate,
    ) as submit:
        loop.run(tasks, submit)

    # Assemble in range order (ties broken by pair progress) — identical
    # to an uninterrupted serial chunked run.
    for key in sorted(payloads):
        result.add(payloads[key])
    if pool is not None:
        result.peak_memory_bytes = max(result.peak_memory_bytes, pool.peak)
    bad = [
        rec
        for rec in result.chunk_records
        if rec.status in (CHUNK_FAILED, CHUNK_INFEASIBLE)
    ]
    if loop.stopped or bad:
        result.status = PARTIAL
    result.chunk_records.sort(key=lambda r: (r.start, r.stop, r.resume_pair or 0))
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
    n_data: int,
    chunk_size: int,
    cached: dict[tuple[int, int], ChunkPayload],
    resume_token: ResumeToken | None,
) -> list[_Task]:
    """Pending ranges: the full span minus completed checkpointed ranges."""
    span_start = 0
    tasks: list[_Task] = []
    if resume_token is not None:
        if not 0 <= resume_token.start < resume_token.stop <= n_data:
            raise ValueError(
                f"resume token range [{resume_token.start}, {resume_token.stop}) "
                f"is outside the workload of {n_data} graphs"
            )
        key = (resume_token.start, resume_token.stop)
        covered = key in cached and cached[key].status == STATUS_OK
        if not covered:
            prior = cached.get(key)
            tasks.append(
                _Task(
                    start=resume_token.start,
                    stop=resume_token.stop,
                    next_pair=resume_token.next_pair,
                    prior=prior if prior and prior.status == STATUS_TRUNCATED else None,
                )
            )
        span_start = resume_token.stop
    done = sorted(
        key for key, payload in cached.items() if payload.status == STATUS_OK
    )
    truncated = {
        key: payload
        for key, payload in cached.items()
        if payload.status == STATUS_TRUNCATED
    }
    position = span_start
    boundaries = [key for key in done if key[1] > span_start] + [(n_data, n_data)]
    for start, stop in boundaries:
        # Chunk the gap before this completed range (empty when covered).
        for lo, hi in chunk_ranges(position, max(start, span_start), chunk_size):
            prior = truncated.get((lo, hi))
            tasks.append(
                _Task(
                    start=lo,
                    stop=hi,
                    next_pair=prior.next_pair if prior else 0,
                    prior=prior,
                )
            )
        position = max(position, stop)
    tasks.sort(key=lambda t: t.start)
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
    payloads: dict[tuple[int, int, int], ChunkPayload]
    width: int = 1
    stopped: bool = False

    def run(self, tasks: list[_Task], submit: Callable[[Job], Callable[[], Outcome]]) -> None:
        """Run ``tasks`` with up to ``width`` attempts in flight, committing
        them in queue order; a worker is refilled as soon as the oldest
        attempt commits.

        After the first commit that retries, splits or stops the run,
        every later attempt in flight is discarded and its task requeued
        unchanged — except attempts a broken pool took down, which are
        charged.  Nothing is dispatched behind an attempt that met a fault
        before any work, and an injected hard crash runs alone, so no
        attempt runs only to be discarded or taken down for it.
        """
        queue = deque(tasks)
        window: deque[tuple[_Task, _Prepared]] = deque()
        while (queue or window) and not self.stopped:
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
            if follow or self.stopped:
                queue.extendleft(reversed(follow + self._discard(window)))

    def _discard(self, window: deque[tuple[_Task, _Prepared]]) -> list[_Task]:
        """Wait out every attempt in flight; returns their tasks, charged
        when a broken pool took them down (unless the run has stopped)."""
        requeue: list[_Task] = []
        while window:
            task, prepared = window.popleft()
            outcome = prepared.wait() if prepared.wait is not None else None
            if isinstance(outcome, BrokenExecutor) and not self.stopped:
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
        job = Job(task.start, task.stop, task.next_pair, task.attempt)
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
            start_pair=task.next_pair,
        ) as span:
            follow = self._record(task, prepared, wait() if wait is not None else None)
            outcome = self.result.report.attempts[-1].outcome
            span.set(outcome=outcome)
            if outcome in (telemetry.OK, telemetry.TRUNCATED):
                record = self.result.chunk_records[-1]
                span.set(matches=record.total_matches, segments=record.segments)
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
        if task.prior is not None:
            # Checkpointed progress first, then its resumed remainder.
            merged = ChunkPayload(task.start, task.stop, payload.status, payload.next_pair)
            payload = merged.add(task.prior).add(payload)
        truncated = payload.status == STATUS_TRUNCATED
        report.record(
            Attempt(
                unit=task.unit,
                attempt=task.attempt,
                outcome=telemetry.TRUNCATED if truncated else telemetry.OK,
                chunk_size=span,
                seconds=outcome.seconds,
                backoff_seconds=backoff,
                detail=f"resume at pair {payload.next_pair}" if truncated else "",
            )
        )
        self.result.chunk_records.append(
            ChunkRecord(
                start=task.start,
                stop=task.stop,
                status=CHUNK_TRUNCATED if truncated else CHUNK_OK,
                attempts=task.attempt + 1,
                segments=outcome.n_segments,
                total_matches=payload.total_matches,
                resume_pair=payload.next_pair if truncated else None,
                detail="join budget exhausted" if truncated else "",
            )
        )
        key_pair = task.next_pair if truncated or task.prior is None else 0
        self.payloads[(task.start, task.stop, key_pair)] = payload
        if self.store is not None:
            self.store.save_chunk(payload)
        if truncated:
            self.result.resume_token = ResumeToken(
                start=task.start, stop=task.stop, next_pair=payload.next_pair
            )
            self.stopped = True
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
        if outcome == telemetry.OOM and span > 1 and task.next_pair == 0 and task.prior is None:
            # Exponential degradation: split the range in half.  Pair
            # tokens are range-relative, so ranges with partial progress
            # retry at the same size instead.
            half = span // 2
            return [
                _Task(task.start, task.start + half, attempt=next_attempt),
                _Task(task.start + half, task.stop, attempt=next_attempt),
            ]
        return [replace(task, attempt=next_attempt)]
