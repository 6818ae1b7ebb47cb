"""Result aggregation shared by the two multi-chunk drivers.

Both drivers — the serial chunk loop
(:func:`repro.runtime.resilient.run_resilient`) and the pool driver
(:func:`repro.cluster.parallel.run_parallel`) — report the same nine
aggregate fields, declared once on :class:`AggregateResult`.
:class:`ResultAccumulator` is the one fold that fills them: it sums
match counts, sums stage seconds, stage counts and join counters with
:func:`sum_into`, tracks peak memory, and concatenates globally indexed
matches, fed either per-chunk resilient payloads or already-aggregated
partial results from workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.join import JoinStats
from repro.core.results import MatchRecord

#: Run statuses.
COMPLETE = "complete"
PARTIAL = "partial"


def sum_into(into: dict, other: Mapping) -> dict:
    """Add ``other``'s values into ``into`` key by key (returned).

    The one fold for per-stage seconds, stage counts and join counters
    alike; keys missing from ``into`` start at zero.

    Examples
    --------
    >>> sum_into({"filter": 2, "join": 1}, {"join": 1, "mapping": 1})
    {'filter': 2, 'join': 2, 'mapping': 1}
    """
    for key, value in other.items():
        into[key] = into.get(key, 0) + value
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
    timings: dict[str, float] = field(default_factory=dict)
    stage_counts: dict[str, int] = field(default_factory=dict)
    join_stats: dict[str, int] = field(default_factory=dict)

    def add_payload(self, payload) -> None:
        """Fold one resilient ``ChunkPayload`` (indices already global)."""
        self.n_chunks += 1
        self._add(payload, payload.join_stats)

    def add_aggregate(self, other) -> None:
        """Fold an already-aggregated partial result (a worker's output).

        ``other`` is an :class:`AggregateResult` (or has its shape) with
        global ``matched_pairs`` / ``embeddings``.
        """
        self.n_chunks += other.n_chunks
        self._add(other, join_stats_dict(other.join_stats))

    def _add(self, part, join_stats: Mapping[str, int]) -> None:
        self.total_matches += part.total_matches
        self.peak_memory_bytes = max(self.peak_memory_bytes, part.peak_memory_bytes)
        self.matched_pairs.extend(part.matched_pairs)
        self.embeddings.extend(part.embeddings)
        sum_into(self.timings, part.timings)
        sum_into(self.stage_counts, part.stage_counts)
        sum_into(self.join_stats, join_stats)

    def fill(self, out: AggregateResult) -> AggregateResult:
        """Copy the folded fields onto ``out`` (returned); ``status`` is left as is."""
        out.total_matches = self.total_matches
        out.n_chunks = self.n_chunks
        out.peak_memory_bytes = self.peak_memory_bytes
        out.matched_pairs = self.matched_pairs
        out.embeddings = self.embeddings
        out.timings = self.timings
        out.stage_counts = self.stage_counts
        out.join_stats = JoinStats(**self.join_stats)
        return out
