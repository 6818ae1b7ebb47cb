"""Deterministic fault injection for the resilient runtime.

At the paper's production scale — 256 GPUs sweeping all of ZINC — OOMs,
worker crashes, rank failures, and stragglers are routine, not
exceptional.  Testing the recovery paths requires injecting those faults
*deterministically*: a :class:`FaultPlan` is a seeded, picklable value
object whose every decision is a pure function of ``(seed, fault kind,
unit, attempt)``, so a faulted run can be replayed bit-for-bit, compared
against an unfaulted run, and shipped across process boundaries to pool
workers unchanged.

Two ways to specify faults:

* **explicit** — exact ``(unit, attempt)`` coordinates (``oom_at``,
  ``crash_at``) or rank ids (``failed_ranks``, ``stragglers``); fire
  exactly where listed;
* **rate-based** — Bernoulli draws from a per-decision RNG derived from
  the seed.  Rate-based faults only fire while ``attempt <
  fault_attempts``, which guarantees bounded retries always make
  progress (a retried unit eventually runs clean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.memory import DeviceOutOfMemory

# Kind tags folded into the per-decision RNG seed so the same (unit,
# attempt) coordinate draws independently per fault kind.
_KIND_OOM = 1
_KIND_CRASH = 2
_KIND_RANK = 3
_KIND_STRAGGLER = 4
_KIND_POISON = 5


class PoisonQuery(RuntimeError):
    """An injected deterministic per-request failure (NOT retryable).

    Unlike a :class:`WorkerCrash`, a poison query fails on *every*
    session and every attempt — the serving layer must isolate it (split
    it out of its batch, reject it with a typed error) rather than let
    it trip breakers across the whole pool.
    """

    def __init__(self, request: int) -> None:
        super().__init__(f"injected poison query (request {request})")
        self.request = request

    def __reduce__(self):
        return (type(self), (self.request,))


class WorkerCrash(RuntimeError):
    """An injected worker/process failure (retryable)."""

    def __init__(self, unit: int, attempt: int) -> None:
        super().__init__(f"injected worker crash (unit {unit}, attempt {attempt})")
        self.unit = unit
        self.attempt = attempt

    def __reduce__(self):
        # keep the crash coordinates when crossing a process pool
        return (type(self), (self.unit, self.attempt))


class RankFailure(RuntimeError):
    """A simulated MPI rank died; its shard needs re-execution."""

    def __init__(self, rank: int) -> None:
        super().__init__(f"rank {rank} failed")
        self.rank = rank


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic schedule of injected faults.

    Attributes
    ----------
    seed:
        Base seed; every decision derives its own RNG from it.
    oom_rate / crash_rate:
        Bernoulli probability of an injected device OOM / worker crash per
        ``(unit, attempt)`` while ``attempt < fault_attempts``.
    rank_failure_rate / straggler_rate:
        Per-rank probabilities for the cluster simulator.
    straggler_slowdown:
        Runtime multiplier applied to straggler ranks (>= 1).
    fault_attempts:
        Rate-based faults only fire for attempts below this bound, so a
        driver with ``max_attempts > fault_attempts`` always converges.
    poison_rate:
        Bernoulli probability that a *request* is poison — it then fails
        deterministically on every session and attempt (serving-layer
        isolation is the only recovery; retries never help).
    oom_at / crash_at:
        Explicit ``(unit, attempt)`` coordinates that always fire.
    failed_ranks / stragglers:
        Explicit rank ids that always fire.
    poison_requests:
        Explicit request ids that are always poison.
    crash_hard:
        Injected worker crashes kill the worker *process* (``os._exit``)
        instead of raising, exercising the pooled chunk loop's
        ``BrokenProcessPool`` recovery path.  With ``n_workers=1`` the
        attempt runs in process, so the crash is raised like a soft one
        (a hard crash would take the host down with it).
    """

    seed: int = 0
    oom_rate: float = 0.0
    crash_rate: float = 0.0
    rank_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    poison_rate: float = 0.0
    straggler_slowdown: float = 2.0
    fault_attempts: int = 1
    oom_at: tuple[tuple[int, int], ...] = ()
    crash_at: tuple[tuple[int, int], ...] = ()
    failed_ranks: tuple[int, ...] = ()
    stragglers: tuple[int, ...] = ()
    poison_requests: tuple[int, ...] = ()
    crash_hard: bool = False

    def __post_init__(self) -> None:
        for name in (
            "oom_rate",
            "crash_rate",
            "rank_failure_rate",
            "straggler_rate",
            "poison_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.fault_attempts < 0:
            raise ValueError("fault_attempts must be >= 0")

    # -- decision functions (pure in (seed, kind, unit, attempt)) ----------------

    def _draw(self, kind: int, unit: int, attempt: int) -> float:
        rng = np.random.default_rng([self.seed, kind, unit, attempt])
        return float(rng.random())

    def injects_oom(self, unit: int, attempt: int) -> bool:
        """Whether the chunk at ``unit`` OOMs on ``attempt``."""
        if (unit, attempt) in self.oom_at:
            return True
        return (
            attempt < self.fault_attempts
            and self.oom_rate > 0.0
            and self._draw(_KIND_OOM, unit, attempt) < self.oom_rate
        )

    def injects_crash(self, unit: int, attempt: int) -> bool:
        """Whether the worker running ``unit`` crashes on ``attempt``."""
        if (unit, attempt) in self.crash_at:
            return True
        return (
            attempt < self.fault_attempts
            and self.crash_rate > 0.0
            and self._draw(_KIND_CRASH, unit, attempt) < self.crash_rate
        )

    def rank_failed(self, rank: int) -> bool:
        """Whether simulated MPI ``rank`` dies this run."""
        if rank in self.failed_ranks:
            return True
        return (
            self.rank_failure_rate > 0.0
            and self._draw(_KIND_RANK, rank, 0) < self.rank_failure_rate
        )

    def poisons_request(self, request: int) -> bool:
        """Whether ``request`` is poison (fires on *every* attempt).

        Deliberately not gated by ``fault_attempts``: poison models a
        request that is itself broken, so retrying — on any session —
        never clears it.
        """
        if request in self.poison_requests:
            return True
        return (
            self.poison_rate > 0.0
            and self._draw(_KIND_POISON, request, 0) < self.poison_rate
        )

    def straggler_factor(self, rank: int) -> float:
        """Runtime multiplier for ``rank`` (1.0 when healthy)."""
        if rank in self.stragglers:
            return self.straggler_slowdown
        if (
            self.straggler_rate > 0.0
            and self._draw(_KIND_STRAGGLER, rank, 0) < self.straggler_rate
        ):
            return self.straggler_slowdown
        return 1.0

    # -- raising conveniences ----------------------------------------------------

    def check_oom(self, unit: int, attempt: int) -> None:
        """Raise :class:`DeviceOutOfMemory` when an OOM is scheduled."""
        if self.injects_oom(unit, attempt):
            raise DeviceOutOfMemory(
                f"injected OOM (unit {unit}, attempt {attempt})",
                requested=0,
                available=0,
            )

    def check_crash(self, unit: int, attempt: int) -> None:
        """Raise :class:`WorkerCrash` when a crash is scheduled."""
        if self.injects_crash(unit, attempt):
            raise WorkerCrash(unit, attempt)

    def check_poison(self, request: int) -> None:
        """Raise :class:`PoisonQuery` when ``request`` is poison."""
        if self.poisons_request(request):
            raise PoisonQuery(request)


#: A plan that injects nothing — the default for all drivers.
NO_FAULTS = FaultPlan()
