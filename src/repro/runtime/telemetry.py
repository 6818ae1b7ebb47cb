"""Per-attempt telemetry of resilient runs.

Every execution attempt — success, injected or real OOM, crash,
infeasible chunk — is recorded as an :class:`Attempt`, and a
:class:`RunReport` aggregates them.  The report is the observable half of
the robustness story: a run that silently retried ten times is a latency
bug waiting to be found, so the CLI and benchmarks print these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.recorder import get_recorder

#: Attempt outcomes.
OK = "ok"
OOM = "oom"
CRASH = "crash"
INFEASIBLE = "infeasible"
CACHED = "cached"
FAILED = "failed"


@dataclass(frozen=True)
class Attempt:
    """One execution attempt of one work unit.

    Attributes
    ----------
    unit:
        Work-unit label, e.g. ``"chunk[64:128]"`` or ``"auto-chunk-size"``.
    attempt:
        0-based attempt counter for this unit.
    outcome:
        One of the module outcome constants.
    chunk_size:
        Chunk size in effect for the attempt (degradation telemetry).
    seconds:
        Wall-clock spent on the attempt.
    backoff_seconds:
        Backoff delay scheduled *before* this attempt (0 for first tries).
    detail:
        Free-form context (error message, infeasibility reason, ...).
    """

    unit: str
    attempt: int
    outcome: str
    chunk_size: int = 0
    seconds: float = 0.0
    backoff_seconds: float = 0.0
    detail: str = ""


@dataclass
class RunReport:
    """Aggregated attempt log of one resilient run."""

    attempts: list[Attempt] = field(default_factory=list)

    def record(self, attempt: Attempt) -> None:
        """Append one attempt; also feeds the process-wide metrics
        registry and, when one is installed, the ambient flight
        recorder (so a post-mortem bundle shows the chunk attempts that
        led up to the trigger)."""
        self.attempts.append(attempt)
        m = get_metrics()
        m.count("runtime.attempts")
        m.count(f"runtime.outcomes.{attempt.outcome}")
        if attempt.attempt > 0:
            m.count("runtime.retries")
        if attempt.seconds > 0:
            m.observe("runtime.attempt_seconds", attempt.seconds)
        if attempt.backoff_seconds > 0:
            m.observe("runtime.backoff_seconds", attempt.backoff_seconds)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.record_now(
                "runtime-attempt",
                unit=attempt.unit,
                attempt=attempt.attempt,
                outcome=attempt.outcome,
                chunk_size=attempt.chunk_size,
                detail=attempt.detail,
            )

    def count(self, outcome: str) -> int:
        """Attempts with the given outcome."""
        return sum(1 for a in self.attempts if a.outcome == outcome)

    @property
    def n_attempts(self) -> int:
        """Total attempts recorded."""
        return len(self.attempts)

    @property
    def n_retries(self) -> int:
        """Attempts beyond the first per unit."""
        return sum(1 for a in self.attempts if a.attempt > 0)

    @property
    def n_faults(self) -> int:
        """Attempts that ended in a fault (OOM or crash)."""
        return self.count(OOM) + self.count(CRASH)

    def outcomes(self) -> dict[str, int]:
        """Outcome -> count mapping (sorted by outcome name)."""
        table: dict[str, int] = {}
        for a in self.attempts:
            table[a.outcome] = table.get(a.outcome, 0) + 1
        return dict(sorted(table.items()))

    def summary(self) -> str:
        """One-line human-readable report."""
        parts = [f"{outcome}={n}" for outcome, n in self.outcomes().items()]
        return (
            f"{self.n_attempts} attempt(s), {self.n_retries} retrie(s): "
            + (", ".join(parts) if parts else "nothing executed")
        )

    def metrics(self) -> MetricsRegistry:
        """The report's counters/histograms as a metrics registry.

        Counters: ``runtime.attempts``, ``runtime.retries``,
        ``runtime.faults`` and one ``runtime.outcomes.<outcome>`` per seen
        outcome.  Histograms: ``runtime.attempt_seconds`` and
        ``runtime.backoff_seconds`` (nonzero observations only).
        """
        m = MetricsRegistry()
        m.count("runtime.attempts", self.n_attempts)
        m.count("runtime.retries", self.n_retries)
        m.count("runtime.faults", self.n_faults)
        for outcome, n in self.outcomes().items():
            m.count(f"runtime.outcomes.{outcome}", n)
        for a in self.attempts:
            if a.seconds > 0:
                m.observe("runtime.attempt_seconds", a.seconds)
            if a.backoff_seconds > 0:
                m.observe("runtime.backoff_seconds", a.backoff_seconds)
        return m

    def to_dict(self) -> dict:
        """JSON-ready representation (CLI ``--json`` output).

        The aggregate half is the ``repro.metrics/1`` schema (the same
        shape ``repro profile --json`` emits), so resilient and plain runs
        share one machine-readable format; the detailed per-attempt log
        rides along under ``"attempts"``.
        """
        payload = self.metrics().as_dict()
        payload["attempts"] = [
            {
                "unit": a.unit,
                "attempt": a.attempt,
                "outcome": a.outcome,
                "chunk_size": a.chunk_size,
                "seconds": round(a.seconds, 6),
                "backoff_seconds": round(a.backoff_seconds, 6),
                "detail": a.detail,
            }
            for a in self.attempts
        ]
        return payload
