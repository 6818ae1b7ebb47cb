"""Result aggregation shared by the two multi-chunk drivers.

Both drivers — the serial chunk loop
(:func:`repro.runtime.resilient.run_resilient`) and the pool driver
(:func:`repro.cluster.parallel.run_parallel`) — report the same nine
aggregate fields, declared once on :class:`AggregateResult`.
:class:`ResultAccumulator` is the one fold that fills them: it sums
match counts, merges timers and join counters, tracks peak memory, and
concatenates globally indexed matches, fed either per-chunk resilient
payloads or already-aggregated partial results from workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.join import JoinStats
from repro.core.results import MatchRecord
from repro.utils.timing import StageTimer

#: Run statuses.
COMPLETE = "complete"
PARTIAL = "partial"


def merge_join_stats(into: JoinStats, other: JoinStats | dict | None) -> JoinStats:
    """Accumulate one join's work counters into ``into`` (returned)."""
    if other is None:
        return into
    if isinstance(other, dict):
        other = JoinStats(**{k: int(v) for k, v in other.items()})
    into.pairs_joined += other.pairs_joined
    into.stack_pushes += other.stack_pushes
    into.candidate_visits += other.candidate_visits
    into.edge_checks += other.edge_checks
    return into


def join_stats_dict(stats: JoinStats) -> dict[str, int]:
    """JSON/npz-manifest-ready form of the work counters."""
    return {
        "pairs_joined": stats.pairs_joined,
        "stack_pushes": stats.stack_pushes,
        "candidate_visits": stats.candidate_visits,
        "edge_checks": stats.edge_checks,
    }


@dataclass
class AggregateResult:
    """The fields every multi-chunk run reports.

    ``matched_pairs`` / ``embeddings`` carry *global* data-graph indices;
    ``timings`` / ``stage_counts`` / ``join_stats`` are summed over every
    executed chunk, so ``timings`` is total engine compute, not wall time.
    ``peak_memory_bytes`` is the largest per-chunk footprint — the bound
    chunking buys.
    """

    status: str = COMPLETE
    total_matches: int = 0
    n_chunks: int = 0
    peak_memory_bytes: int = 0
    matched_pairs: list[tuple[int, int]] = field(default_factory=list)
    embeddings: list[MatchRecord] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    stage_counts: dict[str, int] = field(default_factory=dict)
    join_stats: JoinStats = field(default_factory=JoinStats)

    @property
    def total_seconds(self) -> float:
        """Summed per-stage engine seconds across every executed chunk."""
        return sum(self.timings.values())


@dataclass
class ResultAccumulator:
    """Folds per-chunk/per-worker results into one aggregate.

    ``peak_memory_bytes`` is a max, everything else a sum or a
    concatenation in fold order; :meth:`fill` copies the result onto an
    :class:`AggregateResult`.
    """

    total_matches: int = 0
    n_chunks: int = 0
    peak_memory_bytes: int = 0
    matched_pairs: list[tuple[int, int]] = field(default_factory=list)
    embeddings: list[MatchRecord] = field(default_factory=list)
    join_stats: JoinStats = field(default_factory=JoinStats)
    _timer: StageTimer = field(default_factory=StageTimer)

    def add_payload(self, payload) -> None:
        """Fold one resilient ``ChunkPayload`` (indices already global)."""
        self.n_chunks += 1
        self.total_matches += payload.total_matches
        self.peak_memory_bytes = max(
            self.peak_memory_bytes, payload.peak_memory_bytes
        )
        self.matched_pairs.extend(payload.matched_pairs)
        self.embeddings.extend(payload.embeddings)
        self._timer.merge(payload.timings, counts=payload.stage_counts)
        merge_join_stats(self.join_stats, payload.join_stats)

    def add_aggregate(self, other) -> None:
        """Fold an already-aggregated partial result (a worker's output).

        ``other`` is an :class:`AggregateResult` (or has its shape) with
        global ``matched_pairs`` / ``embeddings``.
        """
        self.total_matches += other.total_matches
        self.n_chunks += other.n_chunks
        self.peak_memory_bytes = max(
            self.peak_memory_bytes, other.peak_memory_bytes
        )
        self.matched_pairs.extend(other.matched_pairs)
        self.embeddings.extend(other.embeddings)
        self._timer.merge(other.timings, counts=other.stage_counts)
        merge_join_stats(self.join_stats, other.join_stats)

    @property
    def timings(self) -> dict[str, float]:
        """Summed per-stage seconds across everything folded so far."""
        return dict(self._timer.totals)

    @property
    def stage_counts(self) -> dict[str, int]:
        """Summed per-stage invocation counts."""
        return dict(self._timer.counts)

    def fill(self, out: AggregateResult) -> AggregateResult:
        """Copy the folded fields onto ``out`` (returned); ``status`` is left as is."""
        out.total_matches = self.total_matches
        out.n_chunks = self.n_chunks
        out.peak_memory_bytes = self.peak_memory_bytes
        out.matched_pairs = self.matched_pairs
        out.embeddings = self.embeddings
        out.timings = self.timings
        out.stage_counts = self.stage_counts
        out.join_stats = self.join_stats
        return out
