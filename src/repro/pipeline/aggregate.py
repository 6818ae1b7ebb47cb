"""Result aggregation of the chunk loop.

The seven summable result fields are declared once, on
:class:`ResultFields`, and folded by its one :meth:`ResultFields.add`.
Both the per-chunk checkpoint payload
(:class:`~repro.runtime.checkpoint.ChunkPayload`) and a run's
:class:`~repro.runtime.resilient.ResilientResult` derive from it, so the
chunk loop (:func:`repro.runtime.resilient.run_resilient`, serial or
pooled) folds checkpointed and freshly run chunks through the same code.
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


@dataclass(kw_only=True)
class ResultFields:
    """The seven summable fields every chunk and every run reports.

    ``matched_pairs`` / ``embeddings`` carry *global* data-graph indices;
    ``timings`` / ``stage_counts`` / ``join_stats`` are summed over every
    executed chunk, so ``timings`` is total engine compute, not wall time.
    ``peak_memory_bytes`` is the largest per-chunk footprint — the bound
    chunking buys.
    """

    total_matches: int = 0
    peak_memory_bytes: int = 0
    matched_pairs: list[tuple[int, int]] = field(default_factory=list)
    embeddings: list[MatchRecord] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    stage_counts: dict[str, int] = field(default_factory=dict)
    join_stats: JoinStats = field(default_factory=JoinStats)

    def add(self, part: ResultFields) -> ResultFields:
        """Fold ``part`` in (returns ``self``): the one fold of every driver.

        Counts and dicts sum, pairs and embeddings concatenate in fold
        order, peak memory takes the max.
        """
        self.total_matches += part.total_matches
        self.peak_memory_bytes = max(self.peak_memory_bytes, part.peak_memory_bytes)
        self.matched_pairs.extend(part.matched_pairs)
        self.embeddings.extend(part.embeddings)
        sum_into(self.timings, part.timings)
        sum_into(self.stage_counts, part.stage_counts)
        self.join_stats = JoinStats(
            **sum_into(join_stats_dict(self.join_stats), join_stats_dict(part.join_stats))
        )
        return self
