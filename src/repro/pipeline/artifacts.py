"""Stage artifacts and the per-engine/per-session artifact cache.

The filter and map stages each produce one explicit artifact (the
``FilterResult`` and the ``GMCR``).  Both are *checkpointable*: they are
deterministic functions of the batch contents plus the filter-affecting
config fields, so a cache keyed on that fingerprint can hand a resumed
(or repeated) run its ``FilterResult``/``GMCR`` back instead of re-running
stages 2-5.

The cache is deliberately small and local — one per :class:`~repro.core.
engine.SigmoEngine` / :class:`~repro.pipeline.session.MatcherSession` —
unlike the global content memos of :mod:`repro.accel.memo` which
deduplicate work *across* engines.  Cached values are treated as
immutable; :func:`~repro.pipeline.stages.execute` hands out defensive
copies of the mutable parts (the GMCR ``matched`` flags).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO

#: Names of the two cached stages: the refined filter and the GMCR map.
STAGE_REFINE = "refine"
STAGE_MAP = "map"


@dataclass(frozen=True)
class StageArtifact:
    """One stage's output plus the fingerprint it is valid for.

    Attributes
    ----------
    stage:
        Producing stage name (``STAGE_REFINE`` or ``STAGE_MAP``).
    fingerprint:
        Hashable key binding the artifact to its exact inputs (batch
        content hashes, label-vocabulary size, filter-affecting config).
    value:
        The artifact itself (``FilterResult``, ``GMCR``, ...).
    """

    stage: str
    fingerprint: tuple
    value: Any


@dataclass
class ArtifactCacheStats:
    """Hit/miss/eviction counters of one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (telemetry, tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
        }


class ArtifactCache:
    """Bounded LRU of :class:`StageArtifact` keyed by (stage, fingerprint).

    Insertion of an existing key refreshes both recency and value.  The
    bound is an entry count, not bytes: entries reference arrays the
    owning engine/session already keeps alive, so the marginal footprint
    is one bitmap/GMCR per retained config variant.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, StageArtifact] = OrderedDict()
        self.stats = ArtifactCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, stage: str, fingerprint: tuple) -> StageArtifact | None:
        """Recall a stage artifact, refreshing its recency."""
        key = (stage, fingerprint)
        artifact = self._entries.get(key)
        if artifact is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return artifact

    def put(self, artifact: StageArtifact) -> None:
        """Store an artifact, evicting the least-recently-used past the bound."""
        key = (artifact.stage, artifact.fingerprint)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = artifact
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()


def derive_n_labels(query: CSRGO, data: CSRGO, wildcard_label: int | None) -> int:
    """Label-vocabulary size shared by every stage (wildcard excluded).

    This is the single definition every driver historically re-derived:
    the max over the query labels (minus the wildcard, whose rows match
    anything) and the data batch's label count, floored at 1.
    """
    q_labels = query.labels
    if wildcard_label is not None:
        q_labels = q_labels[q_labels != wildcard_label]
    q_max = int(q_labels.max()) + 1 if q_labels.size else 0
    return max(q_max, data.n_labels, 1)


def filter_fingerprint(
    query: CSRGO, data: CSRGO, n_labels: int, config: SigmoConfig
) -> tuple:
    """Fingerprint of the filter/map artifacts for one (batch, config) pair.

    Covers exactly the inputs that determine the candidate bitmap (and
    thus the GMCR): batch contents, the label-space size, the array
    backend the artifacts were computed on, and the config fields the
    filter reads.  Join-side knobs (join backend, embedding recording,
    candidate order) deliberately do not participate — flipping them must
    still reuse the filter artifacts.  The array backend *does*: cached
    bitmaps hold backend arrays, so artifacts from different backends
    must never collide.
    """
    return (
        config.array_backend,
        query.content_hash(),
        data.content_hash(),
        n_labels,
        config.refinement_iterations,
        config.word_bits,
        config.signature_bits,
        config.wildcard_label,
        config.wildcard_edge_label,
        config.edge_signatures,
    )
