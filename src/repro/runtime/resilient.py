"""Chunked execution that finishes with partial results, never crashes.

:func:`run_resilient` is the one serial chunk loop (the out-of-core
decomposition of paper Fig. 12; the pool driver
:func:`repro.cluster.parallel.run_parallel` runs it per worker slice).
Queries and data arrive as graph lists or CSR-GO batches; the query side
is compiled once into a :class:`~repro.pipeline.session.MatcherSession`
and every chunk is cut from one converted data batch with
:meth:`~repro.core.csrgo.CSRGO.slice_graphs`.  Chunk ranges come from
:class:`~repro.pipeline.policies.ChunkingPolicy`.  Four recovery
mechanisms compose:

1. **Graceful memory degradation** — every chunk's predicted footprint
   (:func:`repro.device.memory.sigmo_footprint_bytes`) is leased from a
   :class:`~repro.device.memory.DeviceMemoryPool` before any work runs;
   a :class:`~repro.device.memory.DeviceOutOfMemory` (predicted or
   injected), or a :class:`~repro.core.signatures.SignatureCapacityError`
   from a chunk whose signature BFS is over the word cap, splits the
   chunk in half and retries, bounded by ``max_attempts``.  Chunking
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
   :class:`~repro.runtime.faults.FaultPlan` exercises all of the above
   deterministically.

Every attempt is logged in a :class:`~repro.runtime.telemetry.RunReport`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL, JoinBudget
from repro.core.results import MatchRecord
from repro.core.signatures import SignatureCapacityError
from repro.device.memory import DeviceMemoryPool, DeviceOutOfMemory, sigmo_footprint_bytes
from repro.graph.labeled_graph import LabeledGraph
from repro.io.serialization import graphs_fingerprint, sha256_bytes
from repro.obs.trace import get_tracer
from repro.pipeline.aggregate import (
    PARTIAL,
    AggregateResult,
    ResultAccumulator,
    join_stats_dict,
    sum_into,
)
from repro.pipeline.policies import ChunkingPolicy, MemoryBudgetPolicy
from repro.pipeline.session import MatcherSession
from repro.runtime import telemetry
from repro.runtime.checkpoint import (
    STATUS_OK,
    STATUS_TRUNCATED,
    CheckpointStore,
    ChunkPayload,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.telemetry import Attempt, RunReport

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


@dataclass
class ResilientResult(AggregateResult):
    """Aggregated outcome of a resilient run.

    ``matched_pairs`` / ``embeddings`` use global data-graph indices and
    are ordered by data graph exactly like an uninterrupted chunk-by-chunk
    run — degradation and recovery never reorder results.
    """

    chunks_from_checkpoint: int = 0
    chunk_records: list[ChunkRecord] = field(default_factory=list)
    report: RunReport = field(default_factory=RunReport)
    resume_token: ResumeToken | None = None


def combine_results(*results: ResilientResult) -> ResilientResult:
    """Merge a partial run with its token-resumed remainder(s).

    Matched pairs are re-sorted globally, so the combination equals a
    single uninterrupted run regardless of how many times the work was
    split.  The combined status is ``complete`` once every resume token
    has been discharged by a later result completing its range and no
    chunk is left failed/infeasible.
    """
    out = ResilientResult()
    acc = ResultAccumulator()
    completed_ranges: set[tuple[int, int]] = set()
    for result in results:
        out.chunk_records.extend(result.chunk_records)
        out.report.attempts.extend(result.report.attempts)
        out.chunks_from_checkpoint += result.chunks_from_checkpoint
        acc.add_aggregate(result)
        completed_ranges.update(
            (rec.start, rec.stop)
            for rec in result.chunk_records
            if rec.status == CHUNK_OK
        )
    acc.fill(out)
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


def run_resilient(
    queries: Graphs,
    data: Graphs,
    chunk_size: int | None = 256,
    mode: str = FIND_ALL,
    config: SigmoConfig | None = None,
    memory: DeviceMemoryPool | None = None,
    memory_budget_bytes: int | None = None,
    max_attempts: int = 5,
    join_budget: JoinBudget | None = None,
    on_truncate: str = "resume",
    checkpoint: CheckpointStore | str | Path | None = None,
    fault_plan: FaultPlan | None = None,
    resume_token: ResumeToken | dict | None = None,
) -> ResilientResult:
    """Run the pipeline over ``data`` with fault-tolerant chunking.

    Results are exactly those of one whole-batch run; only peak memory
    differs.  Data-graph indices in ``matched_pairs`` and ``embeddings``
    are global (indices into ``data``).

    Parameters
    ----------
    queries / data:
        Graph lists or :class:`~repro.core.csrgo.CSRGO` batches.  The
        query side is compiled once for the whole run; the data side is
        converted once and each chunk is a ``slice_graphs`` copy.
    chunk_size:
        Data graphs per chunk; ``None`` derives it from the memory budget
        (falling back to single-graph chunks when even that is infeasible
        — the :class:`~repro.pipeline.policies.BudgetInfeasible`
        degradation path).
    memory / memory_budget_bytes:
        Device memory pool (or a plain byte budget) every chunk must fit;
        omitted means unbounded.
    max_attempts:
        Per-range attempt bound; a range still failing afterwards is
        recorded (``failed``/``infeasible``) and the run continues,
        returning ``status="partial"``.
    join_budget / on_truncate:
        Join watchdog policy: ``"resume"`` transparently continues a
        truncated chunk in budgeted segments; ``"token"`` stops the run
        at the truncation and returns partial results plus a
        :class:`ResumeToken`.
    checkpoint:
        Checkpoint directory or store; completed chunks are persisted and
        a restarted run skips them (workload fingerprint enforced).
    fault_plan:
        Deterministic fault injection (tests/benchmarks).
    resume_token:
        Continue a token-truncated run: executes the token's remainder
        plus everything after it and returns only that new work — merge
        with the earlier partial via :func:`combine_results`.  When the
        earlier run used a checkpoint, prefer restarting with just
        ``checkpoint=`` (no token): completed chunks are loaded and the
        truncated chunk resumes from its persisted pair token, so the
        returned result is the complete run.
    """
    n_data = data.n_graphs if isinstance(data, CSRGO) else len(data)
    if not n_data:
        raise ValueError("at least one data graph is required")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1 (or None to auto-size)")
    if on_truncate not in ("resume", "token"):
        raise ValueError("on_truncate must be 'resume' or 'token'")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
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

    # Two artifacts (refine + map) are exactly one chunk's worth: a resumed
    # segment recalls its own chunk's, and nothing older stays alive.
    session = MatcherSession(queries, config=config, max_cached_artifacts=2)
    if not isinstance(data, CSRGO):
        data = CSRGO.from_graphs(data)

    result = ResilientResult()
    if chunk_size is None:
        chunk_size = _auto_chunk_size(session.query, data, pool, config, result.report)
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

    queue = deque(tasks)
    stopped_on_token = False
    while queue:
        task = queue.popleft()
        outcome = _run_task(
            task,
            session,
            data,
            mode,
            config,
            pool,
            fault_plan,
            join_budget,
            on_truncate,
            max_attempts,
            store,
            result,
            payloads,
            queue,
        )
        if outcome == "token-stop":
            stopped_on_token = True
            break

    # Assemble in range order (ties broken by pair progress) — identical
    # to an uninterrupted serial chunked run.
    acc = ResultAccumulator()
    for key in sorted(payloads):
        acc.add_payload(payloads[key])
    acc.fill(result)
    if pool is not None:
        result.peak_memory_bytes = max(result.peak_memory_bytes, pool.peak)
    bad = [
        rec
        for rec in result.chunk_records
        if rec.status in (CHUNK_FAILED, CHUNK_INFEASIBLE)
    ]
    if stopped_on_token or bad:
        result.status = PARTIAL
    result.chunk_records.sort(key=lambda r: (r.start, r.stop, r.resume_pair or 0))
    return result


def _auto_chunk_size(
    query: CSRGO,
    data: CSRGO,
    pool: DeviceMemoryPool | None,
    config: SigmoConfig,
    report: RunReport,
) -> int:
    """Derive the chunk size from the pool budget (degrading to 1)."""
    if pool is None:
        return data.n_graphs
    policy = MemoryBudgetPolicy(capacity_bytes=pool.capacity)
    size, degradation = policy.auto_chunk_size(
        query.n_nodes,
        data.n_nodes / data.n_graphs,
        data.n_graphs,
        word_bits=config.word_bits,
    )
    if degradation is not None:
        # Even one average graph exceeds the bitmap share of the budget;
        # degrade to single-graph chunks and let the per-chunk lease
        # decide which graphs truly cannot run.
        report.record(
            Attempt(
                unit="auto-chunk-size",
                attempt=0,
                outcome=telemetry.INFEASIBLE,
                chunk_size=size,
                detail=degradation,
            )
        )
    return size


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
    policy = ChunkingPolicy(chunk_size)
    position = span_start
    boundaries = [key for key in done if key[1] > span_start] + [(n_data, n_data)]
    for start, stop in boundaries:
        # Chunk the gap before this completed range (empty when covered).
        for unit in policy.units(position, max(start, span_start)):
            prior = truncated.get((unit.start, unit.stop))
            tasks.append(
                _Task(
                    start=unit.start,
                    stop=unit.stop,
                    next_pair=prior.next_pair if prior else 0,
                    prior=prior,
                )
            )
        position = max(position, stop)
    tasks.sort(key=lambda t: t.start)
    return tasks


def _run_task(
    task: _Task,
    session: MatcherSession,
    data: CSRGO,
    mode: str,
    config: SigmoConfig,
    pool: DeviceMemoryPool | None,
    fault_plan: FaultPlan | None,
    join_budget: JoinBudget | None,
    on_truncate: str,
    max_attempts: int,
    store: CheckpointStore | None,
    result: ResilientResult,
    payloads: dict[tuple[int, int, int], ChunkPayload],
    queue: deque,
) -> str:
    """Execute one range with retries; returns ``"done"`` or ``"token-stop"``."""
    unit = f"chunk[{task.start}:{task.stop}]"
    chunk = data.slice_graphs(task.start, task.stop)
    span = task.stop - task.start
    footprint = predict_chunk_footprint(session.query, chunk, config.word_bits)

    # A single graph that cannot ever fit is infeasible, not retryable.
    if pool is not None and span == 1 and sum(footprint.values()) > pool.capacity:
        result.report.record(
            Attempt(
                unit=unit,
                attempt=task.attempt,
                outcome=telemetry.INFEASIBLE,
                chunk_size=span,
                detail=f"footprint {sum(footprint.values())} > capacity {pool.capacity}",
            )
        )
        result.chunk_records.append(
            ChunkRecord(
                start=task.start,
                stop=task.stop,
                status=CHUNK_INFEASIBLE,
                attempts=task.attempt + 1,
                detail="graph footprint exceeds device capacity",
            )
        )
        return "done"

    started = time.perf_counter()
    # One runtime span per attempt; the engine's own spans nest inside it.
    chunk_sp = get_tracer().span(
        unit,
        category="runtime",
        attempt=task.attempt,
        chunk_size=span,
        start_pair=task.next_pair,
    )
    try:
        with chunk_sp:
            if fault_plan is not None:
                fault_plan.check_oom(task.start, task.attempt)
            if pool is not None:
                with pool.lease(footprint, tag=unit):
                    payload, n_segments = _run_segments(
                        task, session, chunk, mode, join_budget, on_truncate
                    )
            else:
                payload, n_segments = _run_segments(
                    task, session, chunk, mode, join_budget, on_truncate
                )
    except (DeviceOutOfMemory, SignatureCapacityError) as exc:
        chunk_sp.set(outcome=telemetry.OOM)
        elapsed = time.perf_counter() - started
        result.report.record(
            Attempt(
                unit=unit,
                attempt=task.attempt,
                outcome=telemetry.OOM,
                chunk_size=span,
                seconds=elapsed,
                detail=str(exc),
            )
        )
        next_attempt = task.attempt + 1
        if next_attempt >= max_attempts:
            result.chunk_records.append(
                ChunkRecord(
                    start=task.start,
                    stop=task.stop,
                    status=CHUNK_FAILED,
                    attempts=next_attempt,
                    detail=f"out of memory after {next_attempt} attempt(s)",
                )
            )
            return "done"
        if span > 1 and task.next_pair == 0 and task.prior is None:
            # Exponential degradation: split the range in half.  Pair
            # tokens are range-relative, so ranges with partial progress
            # retry at the same size instead.
            half = max(1, span // 2)
            queue.appendleft(
                _Task(task.start + half, task.stop, attempt=next_attempt)
            )
            queue.appendleft(
                _Task(task.start, task.start + half, attempt=next_attempt)
            )
        else:
            queue.appendleft(
                _Task(
                    task.start,
                    task.stop,
                    next_pair=task.next_pair,
                    attempt=next_attempt,
                    prior=task.prior,
                )
            )
        return "done"

    elapsed = time.perf_counter() - started
    if task.prior is not None:
        payload = _merge_payloads(task.prior, payload)
    chunk_sp.set(
        outcome=(
            telemetry.TRUNCATED
            if payload.status == STATUS_TRUNCATED
            else telemetry.OK
        ),
        matches=payload.total_matches,
        segments=n_segments,
    )
    if payload.status == STATUS_TRUNCATED:
        result.report.record(
            Attempt(
                unit=unit,
                attempt=task.attempt,
                outcome=telemetry.TRUNCATED,
                chunk_size=span,
                seconds=elapsed,
                detail=f"resume at pair {payload.next_pair}",
            )
        )
        result.chunk_records.append(
            ChunkRecord(
                start=task.start,
                stop=task.stop,
                status=CHUNK_TRUNCATED,
                attempts=task.attempt + 1,
                total_matches=payload.total_matches,
                resume_pair=payload.next_pair,
                detail="join budget exhausted",
            )
        )
        payloads[(task.start, task.stop, task.next_pair)] = payload
        if store is not None:
            store.save_chunk(payload)
        result.resume_token = ResumeToken(
            start=task.start, stop=task.stop, next_pair=payload.next_pair
        )
        return "token-stop"

    result.report.record(
        Attempt(
            unit=unit,
            attempt=task.attempt,
            outcome=telemetry.OK,
            chunk_size=span,
            seconds=elapsed,
        )
    )
    result.chunk_records.append(
        ChunkRecord(
            start=task.start,
            stop=task.stop,
            status=CHUNK_OK,
            attempts=task.attempt + 1,
            segments=n_segments,
            total_matches=payload.total_matches,
        )
    )
    payloads[(task.start, task.stop, task.next_pair if task.prior is None else 0)] = (
        payload
    )
    if store is not None:
        store.save_chunk(payload)
    return "done"


def _run_segments(
    task: _Task,
    session: MatcherSession,
    chunk: CSRGO,
    mode: str,
    join_budget: JoinBudget | None,
    on_truncate: str,
) -> tuple[ChunkPayload, int]:
    """Run one range, re-entering after truncations under ``"resume"``.

    Returns the accumulated payload for the pairs processed in *this*
    call (the caller merges any prior checkpointed progress) plus the
    number of budgeted segments it took.  Only resumed segments recall
    the chunk's filter/GMCR artifacts (``SigmoEngine.run``'s rule), so
    stage counts match a fresh engine per chunk.
    """
    payload = ChunkPayload(start=task.start, stop=task.stop)
    next_pair = task.next_pair
    n_segments = 0
    while True:
        n_segments += 1
        run = session.match(
            chunk,
            mode=mode,
            join_budget=join_budget,
            join_start_pair=next_pair,
            reuse=next_pair > 0,
        )
        payload.total_matches += run.total_matches
        payload.matched_pairs.extend(
            (d + task.start, q) for d, q in run.matched_pairs()
        )
        payload.embeddings.extend(
            MatchRecord(rec.data_graph + task.start, rec.query_graph, rec.mapping)
            for rec in run.embeddings
        )
        sum_into(payload.timings, run.timings)
        sum_into(payload.stage_counts, run.stage_counts)
        sum_into(payload.join_stats, join_stats_dict(run.join_result.stats))
        payload.peak_memory_bytes = max(
            payload.peak_memory_bytes, run.memory.total
        )
        if not run.truncated:
            payload.status = STATUS_OK
            payload.next_pair = 0
            return payload, n_segments
        next_pair = run.resume_pair
        if on_truncate == "token":
            payload.status = STATUS_TRUNCATED
            payload.next_pair = next_pair
            return payload, n_segments


def _merge_payloads(prior: ChunkPayload, fresh: ChunkPayload) -> ChunkPayload:
    """Merge checkpointed partial progress with its resumed remainder."""
    return ChunkPayload(
        start=prior.start,
        stop=prior.stop,
        status=fresh.status,
        next_pair=fresh.next_pair,
        total_matches=prior.total_matches + fresh.total_matches,
        matched_pairs=list(prior.matched_pairs) + list(fresh.matched_pairs),
        embeddings=list(prior.embeddings) + list(fresh.embeddings),
        timings=sum_into(dict(prior.timings), fresh.timings),
        stage_counts=sum_into(dict(prior.stage_counts), fresh.stage_counts),
        join_stats=sum_into(dict(prior.join_stats), fresh.join_stats),
        peak_memory_bytes=max(prior.peak_memory_bytes, fresh.peak_memory_bytes),
    )
