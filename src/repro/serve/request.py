"""Typed requests, responses, and rejections of the matching service.

The service's robustness contract is encoded in these types: every
``submit`` resolves to exactly one :class:`MatchResponse` whose status is

* ``complete`` — the full, exact match set for the request;
* ``partial`` — a *correct prefix* of the match set (the pairs joined
  before the deadline-derived :class:`~repro.core.join.JoinBudget`
  fired) plus a usable :class:`ServeResumeToken`; resubmitting the token
  yields the remainder, and the concatenation equals the uninterrupted
  run bitwise;
* ``rejected`` — no result, with a typed :class:`Rejection` naming the
  reason (overload shed, expired deadline, no healthy session, exhausted
  retries).

The service never returns a wrong answer: a response either carries
verified-correct matches or a machine-readable reason why it carries
none.  The chaos harness (:mod:`repro.serve.chaos`) asserts exactly this
trichotomy under injected faults.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.join import FIND_ALL, FIND_FIRST

#: Response statuses (the full vocabulary — there is no fourth outcome).
STATUS_COMPLETE = "complete"
STATUS_PARTIAL = "partial"
STATUS_REJECTED = "rejected"

#: Typed rejection kinds.
REJECT_OVERLOADED = "overloaded"
REJECT_DEADLINE = "deadline-exceeded"
REJECT_UNAVAILABLE = "unavailable"
REJECT_FAILED = "request-failed"

REJECTION_KINDS = (
    REJECT_OVERLOADED,
    REJECT_DEADLINE,
    REJECT_UNAVAILABLE,
    REJECT_FAILED,
)


@dataclass(frozen=True)
class Rejection:
    """Machine-readable reason a request produced no result.

    Attributes
    ----------
    kind:
        One of :data:`REJECTION_KINDS`.
    detail:
        Human-readable elaboration (telemetry/logs, not for dispatch).
    retry_after_s:
        Suggested client backoff (load shedding sets it to the estimated
        queue drain time; ``None`` means retrying is pointless).
    """

    kind: str
    detail: str = ""
    retry_after_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in REJECTION_KINDS:
            raise ValueError(f"unknown rejection kind {self.kind!r}")


class ServeRejected(Exception):
    """Raise-style view of a rejection (``MatchResponse.raise_for_status``)."""

    def __init__(self, rejection: Rejection) -> None:
        super().__init__(f"{rejection.kind}: {rejection.detail}")
        self.rejection = rejection


class Overloaded(ServeRejected):
    """The admission controller shed this request (queue full or the
    queue-delay estimate already exceeds the request's deadline)."""


class DeadlineExceeded(ServeRejected):
    """The deadline expired before any join work could be attempted."""


class Unavailable(ServeRejected):
    """Every session lane for the query set has a tripped breaker."""


class RequestFailed(ServeRejected):
    """The retry budget was exhausted (e.g. a poison query that fails on
    every healthy session) or the resume token was invalid."""


_REJECTION_ERRORS = {
    REJECT_OVERLOADED: Overloaded,
    REJECT_DEADLINE: DeadlineExceeded,
    REJECT_UNAVAILABLE: Unavailable,
    REJECT_FAILED: RequestFailed,
}


@dataclass(frozen=True)
class ServeResumeToken:
    """Continuation point of a truncated (partial) response.

    ``next_pair`` is the first unprocessed GMCR pair index of a *solo*
    run of the request's own data batch.  Because candidate filtering is
    independent per data graph, the pair order of a request's graphs is
    identical whether the batch ran alone or coalesced with others, so
    the token is valid on any session with the same query-set
    fingerprint — including a freshly rebuilt one (see
    ``tests/runtime/test_cross_engine_resume.py`` for the engine-level
    guarantee this rides on).

    ``query_key`` / ``data_hash`` bind the token to its exact inputs;
    resubmitting it with different data is a typed ``request-failed``
    rejection, never a silently wrong merge.

    ``chain`` carries the *originating* request's id across resume hops,
    so every follow-up of a truncated request shares one causal chain id
    and ``repro trace-request <id>`` can reconstruct the whole story
    (admission wait, every batch each hop rode in, truncation points,
    final status) from the flight recorder.  Empty on tokens minted
    before request-scoped tracing existed — such tokens stay valid.
    """

    query_key: str
    data_hash: str
    next_pair: int
    chain: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the CLI prints this)."""
        payload = {
            "query_key": self.query_key,
            "data_hash": self.data_hash,
            "next_pair": self.next_pair,
        }
        if self.chain:
            payload["chain"] = self.chain
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeResumeToken":
        """Inverse of :meth:`to_dict`."""
        return cls(
            query_key=str(payload["query_key"]),
            data_hash=str(payload["data_hash"]),
            next_pair=int(payload["next_pair"]),
            chain=str(payload.get("chain", "")),
        )


@dataclass
class MatchRequest:
    """One client request: match a data batch against a registered query set.

    Attributes
    ----------
    query_key:
        Fingerprint returned by ``MatchService.register`` (the
        multi-tenant "register once, match forever" handle).
    data:
        The data batch — a list of ``LabeledGraph`` molecules.  Passing
        the *same list object* for repeated requests lets the warm
        session skip reconversion and recall cached filter artifacts.
    mode:
        ``find-all`` or ``find-first``.
    deadline_s:
        Relative latency budget; ``None`` means unbounded.  Propagates
        into admission (shed if the queue alone would consume it) and
        into a :class:`~repro.core.join.JoinBudget` sized by the cost
        model (truncate the join rather than blow through it).
    resume:
        Continuation token from a previous partial response; the request
        then joins only the remaining pairs.
    max_retries:
        Per-request retry budget against worker crashes/OOMs (backoff is
        exponential with seeded jitter).
    request_id:
        Client-supplied causal-trace id; the service assigns
        ``req-<seq>`` when empty.  A resume request keeps its *own*
        request id but inherits the originating request's ``chain``
        from the token.
    """

    query_key: str
    data: list
    mode: str = FIND_ALL
    deadline_s: float | None = None
    resume: ServeResumeToken | None = None
    max_retries: int = 2
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.mode not in (FIND_ALL, FIND_FIRST):
            raise ValueError(f"mode must be '{FIND_ALL}' or '{FIND_FIRST}'")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class MatchPairs(Sequence):
    """Immutable ``(data graph, query graph)`` pairs over one ``int32[n, 2]``
    array.

    A response can carry hundreds of pairs, and callers may keep many
    responses alive; the array costs 8 bytes per pair where a list of
    int tuples costs about 90.  Indexing and iteration yield plain
    ``(int, int)`` tuples, so ``sorted``, ``set`` and ``list.extend``
    see the same values a list would hold.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Any = ()) -> None:
        self._pairs = np.array(pairs, dtype=np.int32).reshape(-1, 2)
        self._pairs.setflags(write=False)

    def __len__(self) -> int:
        return self._pairs.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MatchPairs(self._pairs[index])
        d, q = self._pairs[index].tolist()
        return d, q

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return map(tuple, self._pairs.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MatchPairs):
            return np.array_equal(self._pairs, other._pairs)
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    def tolist(self) -> list[list[int]]:
        """The pairs as ``[[data graph, query graph], ...]`` (JSON form)."""
        return self._pairs.tolist()

    def __repr__(self) -> str:
        return f"MatchPairs({list(self)!r})"


@dataclass
class MatchResponse:
    """The single, typed outcome of one submitted request.

    ``matches`` uses request-local indices: ``(data graph index within
    the request's own batch, query graph index within the registered
    set)`` — batching and routing never leak into the result shape.  It
    is a :class:`MatchPairs` (any sequence of pairs passed in is
    converted).
    """

    seq: int
    status: str
    matches: Sequence[tuple[int, int]] = field(default_factory=MatchPairs)
    total_matches: int = 0
    resume: ServeResumeToken | None = None
    rejection: Rejection | None = None
    truncate_reason: str = ""
    attempts: int = 1
    lane: str = ""
    latency_s: float = 0.0
    queue_delay_s: float = 0.0
    request_id: str = ""
    chain: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.matches, MatchPairs):
            self.matches = MatchPairs(self.matches)

    @property
    def ok(self) -> bool:
        """Whether the response carries (complete or partial) results."""
        return self.status in (STATUS_COMPLETE, STATUS_PARTIAL)

    def raise_for_status(self) -> "MatchResponse":
        """Return self, or raise the typed error for a rejection."""
        if self.status == STATUS_REJECTED:
            assert self.rejection is not None
            raise _REJECTION_ERRORS[self.rejection.kind](self.rejection)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (CLI output, chaos reports)."""
        payload: dict[str, Any] = {
            "seq": self.seq,
            "request_id": self.request_id,
            "chain": self.chain,
            "status": self.status,
            "total_matches": self.total_matches,
            "matches": self.matches.tolist(),
            "attempts": self.attempts,
            "lane": self.lane,
            "latency_s": self.latency_s,
            "queue_delay_s": self.queue_delay_s,
        }
        if self.resume is not None:
            payload["resume"] = self.resume.to_dict()
        if self.rejection is not None:
            payload["rejection"] = {
                "kind": self.rejection.kind,
                "detail": self.rejection.detail,
                "retry_after_s": self.rejection.retry_after_s,
            }
        if self.truncate_reason:
            payload["truncate_reason"] = self.truncate_reason
        return payload
