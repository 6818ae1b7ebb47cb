"""The asyncio matching front-end: coalesce, route, degrade gracefully.

:class:`MatchService` is the serving story the ROADMAP asks for on top
of the warm-session layer: clients ``register`` a query set once (the
fingerprint key is stable across restarts), then ``submit`` match
requests concurrently.  Dispatcher tasks pull admitted requests off a
bounded queue, coalesce same-key requests into cost-model-sized batches,
and route each batch to an available :class:`~repro.serve.pool.
SessionPool` lane.

Robustness is the headline — every ``submit`` resolves to the typed
trichotomy of :mod:`repro.serve.request` (complete / correct partial
with resume token / typed rejection), never a wrong answer and never a
hung future:

* **deadlines** propagate into :class:`~repro.core.join.JoinBudget` via
  the :class:`~repro.serve.deadline.CostModel`, so a request that cannot
  finish in time truncates at a GMCR pair boundary and returns a correct
  prefix plus a :class:`~repro.serve.request.ServeResumeToken`;
* **admission control** sheds load with ``overloaded`` rejections before
  queueing when the queue is full or the queue-delay estimate already
  exceeds the deadline;
* **per-lane circuit breakers** trip on repeated failures; traffic
  routes around a tripped lane while the pool rebuilds its session, and
  ``unavailable`` rejections fire only when *every* lane is broken;
* **bounded retries** re-dispatch crashed/OOMed batches with exponential
  backoff and seeded jitter (idempotent: artifact fingerprints make a
  re-run of the same batch bitwise-identical); poison requests are
  isolated out of their batch and rejected so innocents retry at once.

Faults are injected through the same :class:`~repro.runtime.faults.
FaultPlan` machinery the resilient runtime uses, and all time flows
through a :class:`~repro.serve.deadline.Clock`, so the chaos harness
(:mod:`repro.serve.chaos`) drives every degraded path deterministically
on a virtual clock.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.results import MatchResult
from repro.device.memory import DeviceOutOfMemory
from repro.graph.batch import GraphBatch
from repro.io.serialization import graphs_fingerprint
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.pipeline.policies import RetryPolicy
from repro.runtime.faults import FaultPlan, PoisonQuery, WorkerCrash
from repro.serve.admission import AdmissionController
from repro.serve.deadline import Clock, CostModel, Deadline
from repro.serve.monitor import TRIGGER_CRASH, ServeMonitor, ServiceHealth
from repro.serve.pool import SessionLane, SessionPool
from repro.serve.request import (
    REJECT_DEADLINE,
    REJECT_FAILED,
    REJECT_UNAVAILABLE,
    STATUS_COMPLETE,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    MatchPairs,
    MatchRequest,
    MatchResponse,
    Rejection,
    ServeResumeToken,
)


@dataclass(frozen=True)
class ServeConfig:
    """Service-level tuning (engine tuning stays in ``SigmoConfig``).

    Attributes
    ----------
    replicas:
        Session lanes per registered query set.
    dispatchers:
        Concurrent dispatcher tasks (batches in flight at once).
    max_queued / requests_per_batch:
        Admission-control bounds (see :class:`~repro.serve.admission.
        AdmissionController`).
    max_batch_requests / target_batch_seconds:
        Coalescing bounds: a batch takes at most ``max_batch_requests``
        requests and at most the cost model's node capacity for
        ``target_batch_seconds`` of predicted service time.
    breaker_threshold / breaker_cooldown_s:
        Per-lane circuit-breaker tuning.
    backoff_base_s / backoff_factor / backoff_jitter / backoff_seed:
        Retry schedule for crashed/OOMed batches (seeded jitter, same
        discipline as :class:`~repro.pipeline.policies.RetryPolicy`).
    default_deadline_s:
        Deadline applied to requests that do not carry one (``None`` =
        unbounded).
    max_query_sets:
        LRU bound on warm registrations.
    """

    replicas: int = 2
    dispatchers: int = 2
    max_queued: int = 256
    requests_per_batch: float = 4.0
    max_batch_requests: int = 8
    target_batch_seconds: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    backoff_base_s: float = 0.005
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    backoff_seed: int = 0
    default_deadline_s: float | None = None
    max_query_sets: int = 32

    def __post_init__(self) -> None:
        if self.dispatchers < 1:
            raise ValueError("dispatchers must be >= 1")
        if self.max_batch_requests < 1:
            raise ValueError("max_batch_requests must be >= 1")
        if self.target_batch_seconds <= 0:
            raise ValueError("target_batch_seconds must be positive")


@dataclass
class _Ticket:
    """Queue state of one admitted request.

    ``request_id`` / ``chain`` are the causal-trace identities (a resume
    hop keeps its own id but inherits the originator's chain from the
    token).  ``followers`` are fingerprint-equal requests deduplicated
    onto this ticket by :meth:`MatchService._coalesce`: the join runs
    once and the result fans out to every follower.
    """

    seq: int
    request: MatchRequest
    deadline: Deadline
    future: asyncio.Future
    submitted_at: float
    n_graphs: int
    n_nodes: int
    request_id: str = ""
    chain: str = ""
    start_pair: int = 0
    attempt: int = 0
    dispatched_at: float | None = None
    followers: "list[_Ticket]" = field(default_factory=list)
    _fingerprint: str | None = None

    def fingerprint(self) -> str:
        """Content hash of the request's data batch (computed once)."""
        if self._fingerprint is None:
            self._fingerprint = graphs_fingerprint(list(self.request.data))
        return self._fingerprint


class MatchService:
    """Batched, deadline-aware, overload-hardened matching service.

    Parameters
    ----------
    config:
        Engine configuration for new sessions.
    serve:
        Service tuning (:class:`ServeConfig`).
    clock:
        Time source; tests and the chaos harness pass a
        :class:`~repro.serve.deadline.ManualClock`.
    fault_plan:
        Deterministic fault injection (chaos only; ``None`` in
        production).  Crash/OOM decisions are keyed by ``(request seq,
        attempt)``, poison by request seq, stragglers by lane index.
    cost_model:
        Shared calibration state (a fresh one when ``None``).
    monitor:
        Serving-layer observability (:class:`~repro.serve.monitor.
        ServeMonitor`): always-on flight recorder + windowed SLO engine
        on the service clock.  Defaults to a stock monitor; pass
        ``ServeMonitor.disabled()`` to strip every hook.
    """

    def __init__(
        self,
        config: SigmoConfig | None = None,
        serve: ServeConfig | None = None,
        clock: Clock | None = None,
        fault_plan: FaultPlan | None = None,
        cost_model: CostModel | None = None,
        monitor: ServeMonitor | None = None,
    ) -> None:
        self.serve_config = serve or ServeConfig()
        cfg = self.serve_config
        self._clock = clock or Clock()
        self._fault_plan = fault_plan
        self.cost_model = cost_model or CostModel()
        self.monitor = monitor or ServeMonitor(
            deadline_s=cfg.default_deadline_s or 0.05
        )
        if self.monitor.enabled:
            # Clockless recorder sites (record_now) stamp service time.
            self.monitor.recorder.clock = self._clock.now
        self.pool = SessionPool(
            self._clock,
            config=config,
            replicas=cfg.replicas,
            max_query_sets=cfg.max_query_sets,
            breaker_threshold=cfg.breaker_threshold,
            breaker_cooldown_s=cfg.breaker_cooldown_s,
            on_breaker_transition=self.monitor.on_breaker_transition,
        )
        self.admission = AdmissionController(
            self._clock,
            self.cost_model,
            max_queued=cfg.max_queued,
            requests_per_batch=cfg.requests_per_batch,
        )
        # Only the backoff schedule (delay()) is used; exhaustion is
        # governed by each request's own max_retries budget.
        self._retry = RetryPolicy(
            backoff_base=cfg.backoff_base_s,
            backoff_factor=cfg.backoff_factor,
            jitter=cfg.backoff_jitter,
            seed=cfg.backoff_seed,
        )
        self._queue: list[_Ticket] = []
        self._tasks: list[asyncio.Task] = []
        self._running = False
        self._seq = 0
        self._batches = 0
        self._outstanding = 0
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the dispatcher tasks (idempotent)."""
        if self._running:
            return
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._running = True
        self._tasks = [
            asyncio.create_task(self._dispatch_loop())
            for _ in range(self.serve_config.dispatchers)
        ]

    async def stop(self, drain: bool = True) -> None:
        """Stop dispatching; with ``drain`` resolve all in-flight work first.

        Requests still queued after a no-drain stop resolve with typed
        ``unavailable`` rejections — stopping never hangs a future.
        """
        if not self._running:
            return
        if drain:
            await self.drain()
        self._running = False
        self._wake.set()
        await asyncio.gather(*self._tasks)
        self._tasks = []
        for ticket in list(self._queue):
            self._queue.remove(ticket)
            self._finish(
                ticket,
                self._rejection_response(
                    ticket.seq,
                    Rejection(REJECT_UNAVAILABLE, "service stopped"),
                    attempts=ticket.attempt + 1,
                ),
            )

    async def drain(self) -> None:
        """Wait until every admitted request has resolved."""
        if self._idle is not None:
            await self._idle.wait()

    async def __aenter__(self) -> "MatchService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=exc == (None, None, None))

    # -- registration ------------------------------------------------------------

    def register(
        self,
        queries: Iterable | GraphBatch | CSRGO,
        config: SigmoConfig | None = None,
    ) -> str:
        """Compile (or recall) a query set; returns its fingerprint key."""
        return self.pool.register(queries, config=config)

    # -- submission --------------------------------------------------------------

    async def submit(self, request: MatchRequest) -> MatchResponse:
        """Submit one request; resolves to exactly one typed response."""
        if not self._running:
            raise RuntimeError("service is not started")
        metrics = get_metrics()
        seq = self._seq
        self._seq += 1
        request_id = request.request_id or f"req-{seq:06d}"
        chain = (
            request.resume.chain
            if request.resume is not None and request.resume.chain
            else request_id
        )
        metrics.count("serve.requests")
        if self.pool.entry(request.query_key) is None:
            return self._submit_rejection(
                seq, request_id, chain,
                Rejection(
                    REJECT_FAILED, f"unknown query_key {request.query_key!r}"
                ),
                where="registration",
            )
        start_pair = 0
        if request.resume is not None:
            problem = self._validate_resume(request)
            if problem is not None:
                return self._submit_rejection(
                    seq, request_id, chain,
                    Rejection(REJECT_FAILED, problem),
                    where="resume-validation",
                )
            start_pair = request.resume.next_pair
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.serve_config.default_deadline_s
        )
        deadline = Deadline.after(self._clock, deadline_s)
        decision = self.admission.decide(len(self._queue), deadline)
        if not decision.admitted:
            metrics.count("serve.shed")
            return self._submit_rejection(
                seq, request_id, chain, decision.rejection, where="admission"
            )
        ticket = _Ticket(
            seq=seq,
            request=request,
            deadline=deadline,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=self._clock.now(),
            n_graphs=len(request.data),
            n_nodes=int(sum(g.n_nodes for g in request.data)),
            request_id=request_id,
            chain=chain,
            start_pair=start_pair,
        )
        self._queue.append(ticket)
        self._outstanding += 1
        self._idle.clear()
        metrics.gauge("serve.queue_depth", len(self._queue))
        self.monitor.on_admitted(
            self._clock.now(), request_id, chain, seq, len(self._queue)
        )
        self._wake.set()
        return await ticket.future

    def _submit_rejection(
        self,
        seq: int,
        request_id: str,
        chain: str,
        rejection: Rejection,
        where: str,
    ) -> MatchResponse:
        """A pre-queue rejection, recorded on the monitor."""
        self.monitor.on_rejected(
            self._clock.now(), request_id, chain, seq, rejection.kind, where
        )
        self.monitor.tick(self._clock.now())
        return self._rejection_response(
            seq, rejection, request_id=request_id, chain=chain
        )

    def _validate_resume(self, request: MatchRequest) -> str | None:
        """Reason the resume token cannot be honored, or ``None``."""
        token = request.resume
        if token.query_key != request.query_key:
            return (
                f"resume token is bound to query_key {token.query_key!r}, "
                f"not {request.query_key!r}"
            )
        data_hash = graphs_fingerprint(list(request.data))
        if token.data_hash != data_hash:
            return "resume token is bound to a different data batch"
        if token.next_pair < 0:
            return "resume token next_pair must be >= 0"
        return None

    # -- dispatching -------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """One dispatcher: pull, coalesce, run — sleep when nothing fits."""
        try:
            while self._running:
                # Clear-before-scan so a lane release / submit between the
                # failed scan and the wait cannot be lost.
                self._wake.clear()
                progressed = await self._dispatch_once()
                if progressed:
                    continue
                if not self._running:
                    break
                await self._wake.wait()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            # A dispatcher dying is the post-mortem case par excellence:
            # freeze the flight recorder before the stack unwinds.
            self.monitor.dump(
                TRIGGER_CRASH, context={"error": repr(exc)}
            )
            raise

    async def _dispatch_once(self) -> bool:
        """Try to resolve or dispatch something; ``True`` on progress."""
        expired = [
            t for t in self._queue if t.deadline.expired(self._clock)
        ]
        if expired:
            for ticket in expired:
                self._queue.remove(ticket)
                self._finish(
                    ticket,
                    self._rejection_response(
                        ticket.seq,
                        Rejection(
                            REJECT_DEADLINE,
                            "deadline expired while queued",
                        ),
                        attempts=ticket.attempt + 1,
                    ),
                )
            return True
        blocked: set[str] = set()
        for ticket in list(self._queue):
            if ticket not in self._queue:
                continue
            key = ticket.request.query_key
            if key in blocked:
                continue
            entry = self.pool.entry(key)
            if entry is None:
                # LRU-evicted between admission and dispatch.
                self._queue.remove(ticket)
                self._finish(
                    ticket,
                    self._rejection_response(
                        ticket.seq,
                        Rejection(
                            REJECT_UNAVAILABLE, "query set evicted from pool"
                        ),
                        attempts=ticket.attempt + 1,
                    ),
                )
                return True
            lane = self.pool.acquire(key)
            if lane is None:
                if not entry.any_healthy_possible():
                    self._reject_key(key, "every session lane's breaker is open")
                    return True
                blocked.add(key)
                continue
            batch = self._coalesce(ticket)
            get_metrics().gauge("serve.queue_depth", len(self._queue))
            await self._run_batch(lane, batch)
            return True
        return False

    def _reject_key(self, key: str, detail: str) -> None:
        """Resolve every queued ticket of ``key`` with ``unavailable``."""
        for ticket in [
            t for t in self._queue if t.request.query_key == key
        ]:
            self._queue.remove(ticket)
            self._finish(
                ticket,
                self._rejection_response(
                    ticket.seq,
                    Rejection(REJECT_UNAVAILABLE, detail),
                    attempts=ticket.attempt + 1,
                ),
            )

    def _coalesce(self, head: _Ticket) -> list[_Ticket]:
        """Pull a batch led by ``head`` out of the queue.

        Same key, same mode, fresh (non-resume) requests only, bounded by
        ``max_batch_requests`` and the cost model's node capacity for
        ``target_batch_seconds``.  Resume requests run solo so the
        truncation point stays a pure function of the request's own
        batch.

        **Deduplication:** a queued request whose data batch is
        fingerprint-equal to a request already in the wave does not join
        the batch — it becomes a *follower* of that member: the join
        runs once and :meth:`_split_and_finish` fans the one result out
        to every follower.  Followers cost no batch slots and no node
        budget (hot Zipf keys collapse to a single join), counted in
        ``serve.coalesce.dedup_hits``.  Identity of the data list is the
        fast path; distinct-but-equal lists fall back to the content
        hash.
        """
        self._queue.remove(head)
        batch = [head]
        if head.start_pair or head.request.resume is not None:
            return batch
        node_limit = self.cost_model.batch_node_limit(
            self.serve_config.target_batch_seconds
        )
        nodes = head.n_nodes
        for ticket in list(self._queue):
            if ticket.request.query_key != head.request.query_key:
                continue
            if ticket.request.mode != head.request.mode:
                continue
            if ticket.start_pair or ticket.request.resume is not None:
                continue
            primary = self._dedup_primary(batch, ticket)
            if primary is not None:
                self._queue.remove(ticket)
                primary.followers.append(ticket)
                get_metrics().count("serve.coalesce.dedup_hits")
                self.monitor.on_dedup(
                    self._clock.now(),
                    ticket.request_id,
                    primary.request_id,
                    f"batch-{self._batches:05d}",
                )
                continue
            if len(batch) >= self.serve_config.max_batch_requests:
                continue
            if nodes + ticket.n_nodes > node_limit:
                continue
            self._queue.remove(ticket)
            batch.append(ticket)
            nodes += ticket.n_nodes
        return batch

    @staticmethod
    def _dedup_primary(
        batch: list[_Ticket], candidate: _Ticket
    ) -> _Ticket | None:
        """The batch member ``candidate`` duplicates, or ``None``."""
        for member in batch:
            if candidate.request.data is member.request.data:
                return member
        for member in batch:
            if candidate.fingerprint() == member.fingerprint():
                return member
        return None

    # -- batch execution ---------------------------------------------------------

    @staticmethod
    def _members(tickets: list[_Ticket]) -> list[_Ticket]:
        """Every request riding the batch: primaries plus followers."""
        out: list[_Ticket] = []
        for ticket in tickets:
            out.append(ticket)
            out.extend(ticket.followers)
        return out

    def _expire_or_promote(
        self, tickets: list[_Ticket], now: float
    ) -> list[_Ticket]:
        """Reject expired members; keep each dedup group's live head.

        A primary whose deadline expired at dispatch hands its role to
        its first unexpired follower (same data, so the batch shape is
        unchanged); expired followers are rejected in place.
        """
        live: list[_Ticket] = []
        for ticket in tickets:
            group = [ticket, *ticket.followers]
            ticket.followers = []
            survivors: list[_Ticket] = []
            for member in group:
                member.dispatched_at = now
                if member.deadline.expired(self._clock):
                    self._finish(
                        member,
                        self._rejection_response(
                            member.seq,
                            Rejection(
                                REJECT_DEADLINE, "deadline expired at dispatch"
                            ),
                            attempts=member.attempt + 1,
                        ),
                    )
                else:
                    survivors.append(member)
            if survivors:
                head, *rest = survivors
                head.followers = rest
                live.append(head)
        return live

    async def _run_batch(
        self, lane: SessionLane, tickets: list[_Ticket]
    ) -> None:
        """Run one coalesced batch on ``lane`` and resolve its tickets."""
        metrics = get_metrics()
        batch_id = f"batch-{self._batches:05d}"
        self._batches += 1
        started = self._clock.now()
        tickets = self._expire_or_promote(tickets, started)
        if not tickets:
            self.pool.release(lane, ok=True)
            return
        members = self._members(tickets)
        metrics.count("serve.batches")
        metrics.observe("serve.batch_requests", float(len(members)))
        failure: Exception | None = None
        try:
            with get_tracer().span(
                "serve:batch",
                category="serve",
                lane=lane.lane_id,
                batch=batch_id,
                requests=len(tickets),
                seqs=[t.seq for t in tickets],
                request_ids=[t.request_id for t in tickets],
                member_request_ids=[t.request_id for t in members],
            ):
                await self._execute(lane, tickets)
        except PoisonQuery as exc:
            failure = exc
        except (WorkerCrash, DeviceOutOfMemory, MemoryError) as exc:
            failure = exc
        except Exception as exc:  # noqa: BLE001 — a hung future is worse
            # than a broad catch: any engine bug surfaces as a typed,
            # retried-then-rejected failure instead of a stuck client.
            failure = exc
        trips_before = lane.breaker.trips
        self.pool.release(lane, ok=failure is None)
        if lane.breaker.trips > trips_before:
            metrics.count("serve.breaker_trips")
        self.monitor.on_batch(
            self._clock.now(),
            batch_id,
            lane.lane_id,
            [t.request_id for t in tickets],
            [t.request_id for t in members],
            duration_s=self._clock.now() - started,
            outcome="ok" if failure is None else type(failure).__name__,
        )
        if failure is None:
            return
        if isinstance(failure, PoisonQuery):
            await self._isolate_poison(tickets, failure)
        else:
            await self._retry_or_fail(tickets, failure)

    async def _execute(
        self, lane: SessionLane, tickets: list[_Ticket]
    ) -> None:
        """Inject faults, run the join, split and resolve per ticket."""
        plan = self._fault_plan
        if plan is not None:
            # Followers are real requests: their seq can be the poison
            # (or crash/OOM) unit even though their data rides a
            # batch-mate's join.
            members = self._members(tickets)
            for ticket in members:
                plan.check_poison(ticket.seq)
            for ticket in members:
                plan.check_crash(ticket.seq, ticket.attempt)
                plan.check_oom(ticket.seq, ticket.attempt)
        head = tickets[0]
        remaining = min(t.deadline.remaining(self._clock) for t in tickets)
        budget = self.cost_model.budget_for(
            remaining, slowdown=lane.slowdown.value
        )
        data, graph_offsets = self._assemble(tickets)
        started = time.perf_counter()
        result = lane.session.match(
            data,
            mode=head.request.mode,
            join_budget=budget,
            join_start_pair=head.start_pair,
        )
        elapsed = time.perf_counter() - started
        factor = (
            plan.straggler_factor(lane.index) if plan is not None else 1.0
        )
        if factor > 1.0:
            # The lane already spent `elapsed` for real; simulate the
            # rest of the straggler's service time on the service clock.
            await self._clock.sleep(elapsed * (factor - 1.0))
        lane.slowdown.observe(factor)
        self.cost_model.observe_batch(
            elapsed * factor,
            visits=int(result.join_result.stats.candidate_visits),
            nodes=sum(t.n_nodes for t in tickets),
        )
        self._split_and_finish(lane, tickets, graph_offsets, result)

    @staticmethod
    def _assemble(tickets: list[_Ticket]) -> tuple[list, list[int]]:
        """The batch's data plus per-ticket graph offsets.

        A single-ticket batch passes the request's *own list object*
        through, preserving its identity for the session's data-cache
        (and its content hash for the artifact cache) — the warm path
        repeated clients rely on.
        """
        if len(tickets) == 1:
            return tickets[0].request.data, [0, tickets[0].n_graphs]
        combined: list = []
        offsets = [0]
        for ticket in tickets:
            combined.extend(ticket.request.data)
            offsets.append(len(combined))
        return combined, offsets

    def _split_and_finish(
        self,
        lane: SessionLane,
        tickets: list[_Ticket],
        graph_offsets: list[int],
        result: MatchResult,
    ) -> None:
        """Slice one batch result back into per-ticket responses.

        Validity of the split rides on per-graph filter independence: a
        request's GMCR pairs appear in the same relative order whether
        its batch ran solo or coalesced, so batch pair indices minus the
        request's pair offset *are* solo pair indices — which is exactly
        the coordinate system :class:`ServeResumeToken` promises.
        """
        jr = result.join_result
        pair_offsets = result.gmcr.data_graph_offsets
        resume_pair = jr.resume_pair if jr.truncated else None
        all_matches = result.gmcr.matched_pair_array()  # sorted by graph
        cuts = np.searchsorted(all_matches[:, 0], graph_offsets).tolist()
        for i, ticket in enumerate(tickets):
            g0, g1 = graph_offsets[i], graph_offsets[i + 1]
            p0, p1 = int(pair_offsets[g0]), int(pair_offsets[g1])
            matches = MatchPairs(all_matches[cuts[i] : cuts[i + 1]] - (g0, 0))
            if jr.pair_matches is not None:
                total = int(np.asarray(jr.pair_matches[p0:p1]).sum())
            else:
                total = len(matches)
            complete = resume_pair is None or resume_pair >= p1
            next_pair = 0 if complete else max(resume_pair - p0, 0)
            # The primary's result fans out to every deduplicated
            # follower: same matches, each follower's own identity (and
            # its own chain on the resume token, so resume hops stay
            # causally attributable per client).
            for member in (ticket, *ticket.followers):
                if complete:
                    response = MatchResponse(
                        seq=member.seq,
                        status=STATUS_COMPLETE,
                        matches=matches,
                        total_matches=total,
                        attempts=member.attempt + 1,
                        lane=lane.lane_id,
                    )
                else:
                    token = ServeResumeToken(
                        query_key=member.request.query_key,
                        data_hash=member.fingerprint(),
                        next_pair=next_pair,
                        chain=member.chain,
                    )
                    response = MatchResponse(
                        seq=member.seq,
                        status=STATUS_PARTIAL,
                        matches=matches,
                        total_matches=total,
                        resume=token,
                        truncate_reason=jr.truncate_reason,
                        attempts=member.attempt + 1,
                        lane=lane.lane_id,
                    )
                self._finish(member, response)
            ticket.followers = []

    # -- failure handling --------------------------------------------------------

    async def _isolate_poison(
        self, tickets: list[_Ticket], exc: PoisonQuery
    ) -> None:
        """Reject the poison request; requeue its innocent batch-mates.

        The culprit is named by the exception, so isolation is surgical:
        innocents go back to the queue *front* with their attempt count
        untouched — the failure was not theirs to pay for.
        """
        get_metrics().count("serve.poison")
        survivors = []
        for ticket in self._members(tickets):
            ticket.followers = []
            if ticket.seq == exc.request:
                self._finish(
                    ticket,
                    self._rejection_response(
                        ticket.seq,
                        Rejection(
                            REJECT_FAILED,
                            f"poison query: {exc}",
                        ),
                        attempts=ticket.attempt + 1,
                    ),
                )
            else:
                survivors.append(ticket)
        self._requeue(survivors)

    async def _retry_or_fail(
        self, tickets: list[_Ticket], exc: Exception
    ) -> None:
        """Charge one attempt to every ticket; back off, requeue, or reject.

        Followers pay too: they were members of the failed batch (their
        seq may even have been the crash unit), and leaving their attempt
        counter untouched would let a follower-targeted fault re-fire
        identically forever.
        """
        metrics = get_metrics()
        retryable: list[_Ticket] = []
        for ticket in self._members(tickets):
            ticket.followers = []
            ticket.attempt += 1
            if ticket.attempt > ticket.request.max_retries:
                self._finish(
                    ticket,
                    self._rejection_response(
                        ticket.seq,
                        Rejection(
                            REJECT_FAILED,
                            f"retries exhausted after {ticket.attempt} "
                            f"attempts: {exc}",
                        ),
                        attempts=ticket.attempt,
                    ),
                )
            else:
                retryable.append(ticket)
        if not retryable:
            return
        metrics.count("serve.retries", len(retryable))
        for ticket in retryable:
            self.monitor.on_retry(
                self._clock.now(), ticket.request_id, ticket.seq,
                ticket.attempt, repr(exc),
            )
        delay = max(
            self._retry.delay(t.attempt, unit=t.seq) for t in retryable
        )
        if delay > 0:
            await self._clock.sleep(delay)
        self._requeue(retryable)

    def _requeue(self, tickets: list[_Ticket]) -> None:
        """Put tickets back at the queue front (they waited already)."""
        live = [t for t in tickets if not t.future.done()]
        if not live:
            return
        self._queue[:0] = live
        get_metrics().gauge("serve.queue_depth", len(self._queue))
        self._wake.set()

    # -- resolution --------------------------------------------------------------

    def _rejection_response(
        self,
        seq: int,
        rejection: Rejection,
        attempts: int = 1,
        request_id: str = "",
        chain: str = "",
    ) -> MatchResponse:
        """A rejected response, with its rejection-kind counter bumped.

        Used both for pre-queue rejections (returned directly from
        ``submit``) and as the payload handed to :meth:`_finish`.
        """
        get_metrics().count(f"serve.rejected.{rejection.kind}")
        get_metrics().count(f"serve.responses.{STATUS_REJECTED}")
        return MatchResponse(
            seq=seq,
            status=STATUS_REJECTED,
            rejection=rejection,
            attempts=attempts,
            request_id=request_id,
            chain=chain,
        )

    def _finish(self, ticket: _Ticket, response: MatchResponse) -> None:
        """Resolve a ticket exactly once, stamping latency metrics."""
        if ticket.future.done():
            return
        metrics = get_metrics()
        now = self._clock.now()
        response.request_id = response.request_id or ticket.request_id
        response.chain = response.chain or ticket.chain
        response.latency_s = now - ticket.submitted_at
        response.queue_delay_s = (
            (ticket.dispatched_at if ticket.dispatched_at is not None else now)
            - ticket.submitted_at
        )
        if response.status != STATUS_REJECTED:
            metrics.count(f"serve.responses.{response.status}")
        metrics.observe("serve.latency_s", response.latency_s)
        metrics.observe("serve.queue_delay_s", response.queue_delay_s)
        ticket.future.set_result(response)
        self._outstanding -= 1
        if self._outstanding <= 0 and self._idle is not None:
            self._idle.set()
        self.monitor.on_finished(
            now,
            response.request_id,
            response.chain,
            ticket.seq,
            response.status,
            response.lane,
            response.latency_s,
            response.resume is not None,
        )

    # -- telemetry ---------------------------------------------------------------

    def health(self) -> ServiceHealth:
        """Typed point-in-time health snapshot (dashboard, tests).

        Ticks the SLO clock first, so the returned window summary and
        active-alert set are current as of the service clock's *now*.
        """
        now = self._clock.now()
        self.monitor.tick(now)
        return ServiceHealth(
            at_s=now,
            running=self._running,
            queue_depth=len(self._queue),
            outstanding=self._outstanding,
            requests=self._seq,
            pool_occupancy=self.pool.occupancy(),
            lanes=self.pool.lane_snapshots(),
            window=self.monitor.window_summary(),
            active_alerts=(
                self.monitor.engine.active_alerts()
                if self.monitor.enabled
                else []
            ),
            recorder=self.monitor.recorder_summary(),
        )

    def snapshot(self) -> dict:
        """Service-wide state for the CLI and tests."""
        return {
            "running": self._running,
            "queue_depth": len(self._queue),
            "outstanding": self._outstanding,
            "requests": self._seq,
            "admission": self.admission.stats.as_dict(),
            "cost_model": {
                "visits_per_second": self.cost_model.visits_per_second.value,
                "seconds_per_batch": self.cost_model.seconds_per_batch.value,
                "nodes_per_second": self.cost_model.nodes_per_second.value,
            },
            "pool": self.pool.snapshot(),
        }
