"""Prepared-query sessions: compile the query side once, stream data batches.

The serving shape the ROADMAP asks for (and Qiu et al.'s batch-dynamic
matcher motivates): a :class:`MatcherSession` converts and validates the
query batch exactly once, then ``session.match(data_batch)`` runs only
data-side work per call.  Three reuse layers compose:

* the query CSR-GO (and its content hash) live for the session, so the
  global signature/plan memos of :mod:`repro.accel.memo` hit on every
  batch;
* repeated ``match`` calls on the *same* data batch recall the cached
  ``FilterResult``/``GMCR`` artifacts and skip stages 2-5 outright (the
  warm path — verified in tests by the absence of filter/mapping spans);
* truncated Find All runs resumed with ``join_start_pair`` hit the same
  artifact cache instead of deterministically re-running the filter.

Results are bitwise-identical to fresh engines: every reused artifact is
a deterministic function of (batch contents, config), which is exactly
what the cache fingerprints encode.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.accel.memo import ContentMemo
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL, JoinBudget
from repro.core.results import MatchResult
from repro.graph.batch import GraphBatch
from repro.pipeline.artifacts import ArtifactCache
from repro.pipeline.stages import PipelineRequest, as_csrgo, execute


class MatcherSession:
    """Amortized matcher: one query compilation, many data batches.

    **Concurrency contract.**  ``match()`` is safe to call from multiple
    threads (or interleaved asyncio tasks running it via executors): the
    session serializes calls with an internal lock, so the shared
    mutable state — the artifact cache, the data-batch conversion cache,
    and each recalled GMCR's ``matched`` flags — is only ever touched by
    one ``match()`` at a time.  Concurrent callers therefore see exactly
    the results of some sequential interleaving (and since every result
    is a pure function of ``(batch, config)``, *which* interleaving
    never matters).  Calls do not run concurrently on one session; for
    parallel matching use one session per worker — the serving layer's
    :class:`~repro.serve.pool.SessionPool` keeps one lane (session) per
    concurrent batch for exactly this reason.

    Parameters
    ----------
    queries:
        Query graphs — an iterable of ``LabeledGraph``, a ``GraphBatch``,
        or an already-converted ``CSRGO``.
    config:
        Session-default configuration; ``match`` accepts per-call
        overrides.
    max_cached_batches:
        Data batches whose conversion is kept alive (keyed by object
        identity, so passing the same list again skips ``GraphBatch`` /
        CSR-GO conversion).
    max_cached_artifacts:
        Entries in the filter/GMCR artifact cache (each retained config
        variant of each batch costs one bitmap + one GMCR).
    """

    def __init__(
        self,
        queries: Iterable | GraphBatch | CSRGO,
        config: SigmoConfig | None = None,
        max_cached_batches: int = 8,
        max_cached_artifacts: int = 16,
    ) -> None:
        self.config = config or SigmoConfig()
        self._query = as_csrgo(queries, "query")
        # Warm the content hash now: every artifact fingerprint and memo
        # key derives from it, and it is cached on the CSRGO instance.
        self._query.content_hash()
        self._artifacts = ArtifactCache(max_entries=max_cached_artifacts)
        # id(batch) -> (strong ref keeping the id valid, converted CSRGO)
        self._data_cache = ContentMemo(max_cached_batches)
        self.batches_matched = 0
        # Serializes match() calls: the artifact/data caches and the
        # recalled artifacts are not safe under interleaving
        # (see the class docstring's concurrency contract).
        self._lock = threading.RLock()

    @classmethod
    def from_csrgo(
        cls,
        query: CSRGO,
        config: SigmoConfig | None = None,
        cache: ArtifactCache | None = None,
    ) -> "MatcherSession":
        """Wrap an existing query CSR-GO (and optionally share a cache).

        ``SigmoEngine.session()`` uses this to hand its own artifact
        cache to the session, so engine runs and session matches over the
        same batches share recalled artifacts.
        """
        session = cls(query, config=config)
        if cache is not None:
            session._artifacts = cache
        return session

    # -- introspection -----------------------------------------------------------

    @property
    def query(self) -> CSRGO:
        """The compiled (session-lifetime) query batch."""
        return self._query

    @property
    def artifact_stats(self):
        """Hit/miss counters of the artifact cache (tests, telemetry)."""
        return self._artifacts.stats

    # -- matching ----------------------------------------------------------------

    def match(
        self,
        data: Iterable | GraphBatch | CSRGO,
        mode: str = FIND_ALL,
        config: SigmoConfig | None = None,
        join_budget: JoinBudget | None = None,
        join_start_pair: int = 0,
    ) -> MatchResult:
        """Run one data batch through the pipeline.

        Identical in result to ``SigmoEngine(queries, data, config).run(
        mode=..., ...)`` — but query-side work is amortized: a batch seen
        before (same contents, same filter config) skips stages 2-5 via
        the artifact cache, and only the join runs.

        Thread/task safe: concurrent calls are serialized on the
        session's internal lock (see the class docstring).
        """
        with self._lock:
            data_csrgo = self._convert_data(data)
            request = PipelineRequest(
                query=self._query,
                data=data_csrgo,
                config=config or self.config,
                mode=mode,
                join_budget=join_budget,
                join_start_pair=join_start_pair,
                cache=self._artifacts,
                reuse_artifacts=True,
            )
            result = execute(request)
            self.batches_matched += 1
            return result

    # -- internals ---------------------------------------------------------------

    def _convert_data(self, data) -> CSRGO:
        """Convert a data batch, memoized by object identity.

        The strong reference in the cache keeps ``id(data)`` valid for
        the entry's lifetime; the LRU bound keeps the session from
        pinning every batch it ever saw.
        """
        if isinstance(data, CSRGO):
            return data
        key = id(data)
        entry = self._data_cache.get(key)
        if entry is not None and entry[0] is data:
            return entry[1]
        csrgo = as_csrgo(data, "data")
        csrgo.content_hash()
        self._data_cache.put(key, (data, csrgo))
        return csrgo
