"""The overload-hardened asynchronous matching service.

The molecular-search deployment the paper targets is a *service*: many
clients, shared warm state, strict latency budgets, and hardware that
fails.  This package builds that front-end over the pipeline layer's
:class:`~repro.pipeline.session.MatcherSession`:

* :mod:`~repro.serve.request` — the typed request/response contract
  (complete / correct-partial-with-resume-token / typed rejection);
* :mod:`~repro.serve.deadline` — clocks, deadlines, and the cost model
  that translates remaining time into join budgets;
* :mod:`~repro.serve.admission` — bounded queueing with deadline-aware
  load shedding;
* :mod:`~repro.serve.breaker` — per-lane circuit breakers;
* :mod:`~repro.serve.pool` — the fingerprint-keyed warm session pool
  with replica lanes and broken-lane rebuilds;
* :mod:`~repro.serve.service` — the asyncio front-end tying it together
  (coalescing with fingerprint dedup, routing, retries with seeded
  jittered backoff);
* :mod:`~repro.serve.monitor` — serving-layer observability: always-on
  flight recorder, windowed SLO engine with burn-rate alerts, and the
  typed :class:`~repro.serve.monitor.ServiceHealth` snapshot behind
  ``MatchService.health()``;
* :mod:`~repro.serve.loadgen` — closed-loop Zipf traffic generation;
* :mod:`~repro.serve.chaos` — the deterministic chaos harness asserting
  the never-a-wrong-answer contract under injected faults, each
  scenario additionally explained by a flight-recorder bundle.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.deadline import Clock, CostModel, Deadline, Ewma, ManualClock
from repro.serve.monitor import ServeMonitor, ServiceHealth
from repro.serve.pool import PoolEntry, SessionLane, SessionPool
from repro.serve.request import (
    REJECT_DEADLINE,
    REJECT_FAILED,
    REJECT_OVERLOADED,
    REJECT_UNAVAILABLE,
    REJECTION_KINDS,
    STATUS_COMPLETE,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    DeadlineExceeded,
    MatchPairs,
    MatchRequest,
    MatchResponse,
    Overloaded,
    Rejection,
    RequestFailed,
    ServeRejected,
    ServeResumeToken,
    Unavailable,
)
from repro.serve.service import MatchService, ServeConfig

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "CLOSED",
    "CircuitBreaker",
    "HALF_OPEN",
    "OPEN",
    "Clock",
    "CostModel",
    "Deadline",
    "DeadlineExceeded",
    "Ewma",
    "ManualClock",
    "MatchPairs",
    "MatchRequest",
    "MatchResponse",
    "MatchService",
    "Overloaded",
    "PoolEntry",
    "REJECT_DEADLINE",
    "REJECT_FAILED",
    "REJECT_OVERLOADED",
    "REJECT_UNAVAILABLE",
    "REJECTION_KINDS",
    "Rejection",
    "RequestFailed",
    "STATUS_COMPLETE",
    "STATUS_PARTIAL",
    "STATUS_REJECTED",
    "ServeConfig",
    "ServeMonitor",
    "ServeRejected",
    "ServeResumeToken",
    "ServiceHealth",
    "SessionLane",
    "SessionPool",
    "Unavailable",
]
