"""SIGMo engine: the six-stage pipeline of paper Fig. 2.

``SigmoEngine`` wires the stages together::

    queries, molecules ── CSR-GO ─▶ init candidates ─▶ (signatures ─▶
    refine) x s ─▶ GMCR mapping ─▶ stack-DFS join ─▶ matches

The engine is a thin adapter: ``run`` builds a
:class:`~repro.pipeline.stages.PipelineRequest` and hands it to
:func:`repro.pipeline.stages.execute`, which runs the stages in order and
owns the obs spans, the stage timings, and the contract checks.  The
engine contributes what only it has: batches converted once at
construction, a per-engine artifact cache (so truncated runs resumed via
``join_start_pair`` recall their ``FilterResult``/``GMCR`` instead of
recomputing), and :meth:`session` to graduate to the prepared-query
serving layer.

Use :func:`find_all` / :func:`find_first` for one-shot convenience, or
construct an engine to reuse the converted batches across runs (e.g. the
refinement-iteration sweeps of Figs. 5-7 re-run the same batches with
different configs).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget
from repro.core.results import MatchResult
from repro.graph.batch import GraphBatch
from repro.graph.labeled_graph import LabeledGraph
from repro.pipeline.artifacts import ArtifactCache, derive_n_labels
from repro.pipeline.stages import PipelineRequest, as_csrgo, execute


class SigmoEngine:
    """Batched subgraph-isomorphism engine.

    Parameters
    ----------
    queries:
        Query graphs (functional groups / patterns), each connected.
    data:
        Data graphs (molecules).
    config:
        Tunables; defaults to the paper's NVIDIA-style configuration with
        6 refinement iterations.

    Examples
    --------
    >>> from repro.graph.generators import path_graph
    >>> engine = SigmoEngine([path_graph([0, 1])], [path_graph([0, 1, 0])])
    >>> engine.run().total_matches
    2
    """

    def __init__(
        self,
        queries: Iterable[LabeledGraph] | GraphBatch,
        data: Iterable[LabeledGraph] | GraphBatch,
        config: SigmoConfig | None = None,
    ) -> None:
        self.config = config or SigmoConfig()
        self.query_batch = (
            queries if isinstance(queries, GraphBatch) else GraphBatch(queries)
        )
        self.data_batch = data if isinstance(data, GraphBatch) else GraphBatch(data)
        # Stage 1: convert to CSR-GO.
        self._finish_init(
            as_csrgo(self.query_batch, "query"), as_csrgo(self.data_batch, "data")
        )

    @classmethod
    def from_csrgo(
        cls,
        query: CSRGO,
        data: CSRGO,
        config: SigmoConfig | None = None,
    ) -> "SigmoEngine":
        """Build an engine directly from CSR-GO batches (stage 1 skipped).

        The cluster workers use this: shared-memory-mapped CSR-GO arrays
        are attached once per worker and sliced per chunk, with no
        ``LabeledGraph`` round trip (``query_batch`` / ``data_batch`` are
        ``None`` on such engines).
        """
        engine = cls.__new__(cls)
        engine.config = config or SigmoConfig()
        engine.query_batch = None
        engine.data_batch = None
        engine._finish_init(as_csrgo(query, "query"), as_csrgo(data, "data"))
        return engine

    def _finish_init(self, query: CSRGO, data: CSRGO) -> None:
        """Shared tail of both constructors: label-space size + cache."""
        self.query = query
        self.data = data
        self.n_labels = derive_n_labels(query, data, self.config.wildcard_label)
        # Per-engine stage-artifact cache: every run stores its
        # FilterResult/GMCR here, and resumed truncated runs recall them.
        self._artifacts = ArtifactCache()

    # -- public API -------------------------------------------------------------

    def run(
        self,
        mode: str = FIND_ALL,
        config: SigmoConfig | None = None,
        join_budget: JoinBudget | None = None,
        join_start_pair: int = 0,
    ) -> MatchResult:
        """Execute the full pipeline and return a :class:`MatchResult`.

        Parameters
        ----------
        mode:
            ``"find-all"`` enumerates every node-to-node embedding;
            ``"find-first"`` stops each (data, query) pair at its first
            embedding (graph-to-graph matching).
        config:
            Optional per-run config override (batches are reused).
        join_budget:
            Optional join watchdog (see :class:`~repro.core.join.JoinBudget`);
            when it fires the result is *truncated*: ``result.truncated`` is
            true and ``result.resume_pair`` is the GMCR pair index to pass
            back as ``join_start_pair`` to continue.  The filter and mapping
            stages are deterministic, so a resumed run rebuilds the exact
            same GMCR and pair indices stay valid across calls.
        join_start_pair:
            Resume token from a previous truncated run of the same batches.
            Resumed runs (``join_start_pair > 0``) recall the cached
            ``FilterResult``/``GMCR`` from the previous run of the same
            batches+config instead of recomputing them; the artifacts are
            deterministic, so pair indices stay valid and results are
            identical to a full recompute.
        """
        request = PipelineRequest(
            query=self.query,
            data=self.data,
            config=config or self.config,
            mode=mode,
            join_budget=join_budget,
            join_start_pair=join_start_pair,
            cache=self._artifacts,
            # Plain runs recompute (storing as they go); only explicit
            # resumes reuse, so repeated `.run()` calls keep their
            # historical stage counts and traces.
            reuse_artifacts=join_start_pair > 0,
        )
        return execute(request)

    def run_iteration_sweep(
        self,
        iterations: Sequence[int],
        mode: str = FIND_ALL,
        join_budget: JoinBudget | None = None,
    ) -> dict[int, MatchResult]:
        """Run the pipeline once per refinement-iteration count.

        The sweep behind Figs. 5-7: same batches, varying ``s``.  Routed
        through a :class:`~repro.pipeline.session.MatcherSession` sharing
        this engine's artifact cache, so per-iteration shared state (the
        converted batches, their content hashes, the global signature
        memos) is reused across the sweep, and ``join_budget``/``mode``
        pass straight through to each run.
        """
        session = self.session()
        results: dict[int, MatchResult] = {}
        for s in iterations:
            results[s] = session.match(
                self.data,
                mode=mode,
                config=self.config.with_iterations(s),
                join_budget=join_budget,
            )
        return results

    def session(self, config: SigmoConfig | None = None):
        """A :class:`~repro.pipeline.session.MatcherSession` over this query batch.

        The session shares this engine's artifact cache, so engine runs
        and session matches over the same data batches recall each
        other's filter/GMCR artifacts.
        """
        from repro.pipeline.session import MatcherSession

        return MatcherSession.from_csrgo(
            self.query, config=config or self.config, cache=self._artifacts
        )


def find_all(
    queries: Iterable[LabeledGraph],
    data: Iterable[LabeledGraph],
    config: SigmoConfig | None = None,
) -> MatchResult:
    """One-shot Find All: enumerate every embedding of every query."""
    return SigmoEngine(queries, data, config).run(mode=FIND_ALL)


def find_first(
    queries: Iterable[LabeledGraph],
    data: Iterable[LabeledGraph],
    config: SigmoConfig | None = None,
) -> MatchResult:
    """One-shot Find First: graph-to-graph matching with early stop."""
    return SigmoEngine(queries, data, config).run(mode=FIND_FIRST)


def count_matches(
    query: LabeledGraph, data: LabeledGraph, config: SigmoConfig | None = None
) -> int:
    """Count embeddings of a single query in a single data graph."""
    return find_all([query], [data], config).total_matches
