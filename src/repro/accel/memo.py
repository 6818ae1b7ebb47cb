"""Cross-run memoization keyed by batch content hashes.

The chunked, resilient and sweep drivers repeatedly rebuild engines over
logically identical batches: an iteration sweep re-runs the same data with
a different ``s``, a resilient re-run replays a chunk after a fault, the
parallel driver re-chunks the same slice.  Recomputing signatures and
recompiling query plans for those runs is pure waste — the inputs are
content-identical.

This module provides small bounded LRU memo tables keyed on *content
hashes* (:meth:`repro.core.csrgo.CSRGO.content_hash` plus every config
field that affects the cached value), so a config change can never serve
a stale entry — changing the radius, the refinement-iteration count (via
the radius actually requested), the wildcard labels, the matching-order
heuristic or induced mode all produce a different key and force a
rebuild.  That keying discipline is asserted in ``tests/accel``.

Thread safety: a single lock per table — the tables are tiny and the
cached payloads are built outside the lock.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

#: Byte budget of the cached signature matrices per (batch, n_labels,
#: ignore_label, radius); a matrix larger than the whole budget is not
#: stored.
SIGNATURE_MEMO_BYTES = 4 << 20
#: Byte budget of the cached plan-table arrays per (query batch, counts,
#: order config); a table larger than the whole budget is not stored.
PLAN_MEMO_BYTES = 4 << 20


@dataclass
class MemoStats:
    """Hit/miss counters of one memo table (tests assert rebuilds on these)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (telemetry, tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
        }


class ContentMemo:
    """A bounded, thread-safe, insertion-ordered LRU memo table.

    The one LRU of the matching path: the signature and plan memos
    below, the edge-view tables of :mod:`repro.accel.local_view`, the
    pipeline's :class:`~repro.pipeline.artifacts.ArtifactCache` and a
    session's data-batch conversion cache.

    Values are treated as immutable once stored; callers must not mutate
    what they get back (the accel layer stores read-only NumPy arrays and
    frozen dataclasses only).

    ``capacity`` bounds the summed ``weigh(value)`` of the entries; the
    default weight of 1 makes it an entry count, ``weigh=nbytes`` a byte
    budget.  A value heavier than the whole capacity is not stored.
    """

    def __init__(
        self, capacity: int, weigh: Callable[[Any], int] | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = MemoStats()
        self._weigh = weigh or (lambda value: 1)
        self._weight = 0
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or ``None`` (which is never a stored value)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least recent beyond capacity."""
        if value is None:
            raise ValueError("None cannot be memoized (reserved for misses)")
        weight = self._weigh(value)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._weight -= old[1]
            if weight > self.capacity:
                return
            self._entries[key] = (value, weight)
            self._weight += weight
            self.stats.stores += 1
            while self._weight > self.capacity:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._weight -= evicted
                self.stats.evictions += 1

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Cached value, or ``builder()`` stored under ``key``."""
        value = self.get(key)
        if value is None:
            value = builder()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries and reset the stats."""
        with self._lock:
            self._entries.clear()
            self._weight = 0
            self.stats = MemoStats()

    @property
    def weight(self) -> int:
        """Summed weight of the stored entries (bytes for a byte budget)."""
        return self._weight

    def __len__(self) -> int:
        return len(self._entries)


def array_hash(arr: np.ndarray) -> str:
    """SHA-256 of an array's raw bytes (dtype/shape-tagged)."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def frozen_array(arr: np.ndarray) -> np.ndarray:
    """A non-writeable copy safe to share from a memo table."""
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _arrays_nbytes(value: np.ndarray | tuple[np.ndarray, ...]) -> int:
    """Bytes of one array or of a tuple of arrays."""
    if isinstance(value, tuple):
        return sum(arr.nbytes for arr in value)
    return value.nbytes


_SIGNATURE_MEMO = ContentMemo(SIGNATURE_MEMO_BYTES, weigh=_arrays_nbytes)
_PLAN_MEMO = ContentMemo(PLAN_MEMO_BYTES, weigh=_arrays_nbytes)


def signature_memo() -> ContentMemo:
    """The process-wide signature-count memo table.

    Keys: ``(batch content hash, n_labels, ignore_label, radius)`` — see
    :meth:`repro.core.filtering.IterativeFilter._signatures_at` — and the
    query side's edge-aware pair groups
    (:func:`repro.core.edge_signatures.query_pair_groups`).  Bounded
    by :data:`SIGNATURE_MEMO_BYTES` of arrays, so a stream of
    never-repeated data batches cannot grow the resident set while the
    hot query-side matrices of a session stay cached.
    """
    return _SIGNATURE_MEMO


def plan_memo() -> ContentMemo:
    """The process-wide compiled plan-table memo.

    Keys: ``(query batch content hash, candidate-counts hash, heuristic,
    wildcard_edge_label, induced)`` — every input of
    :func:`repro.core.join.build_plan_table`.  Values are the
    :class:`repro.core.join.PlanTable` arrays, bounded by
    :data:`PLAN_MEMO_BYTES`: a stream of fresh batches (whose counts
    never repeat) cannot grow the resident set.
    """
    return _PLAN_MEMO


def clear_accel_caches() -> None:
    """Reset every accel-layer cache (tests and long-lived services)."""
    from repro.accel.local_view import batch_view_cache, local_view_cache

    _SIGNATURE_MEMO.clear()
    _PLAN_MEMO.clear()
    local_view_cache().clear()
    batch_view_cache().clear()
