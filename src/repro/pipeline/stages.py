"""The pipeline: convert → init-candidates → refine ×s → map → join.

The paper's Fig. 2 dataflow is a fixed line, and :func:`execute` runs it
as one: every run driver (engine, session, chunk loop, process pool,
serving layer) builds a :class:`PipelineRequest` and calls it.  It is the
one place that

* opens the ``run`` → ``stage:filter`` / ``stage:mapping`` spans (the
  join opens ``stage:join`` itself, and kernels their ``kernel:*`` spans),
* runs the ``REPRO_CHECK=1`` contract checks between stages,
* recalls and stores the query-side ``refine``/``map`` artifacts in the
  request's :class:`~repro.pipeline.artifacts.ArtifactCache` — a recalled
  stage runs nothing, so its spans and timings are simply absent,
* writes ``MatchResult.timings`` / ``stage_counts``, in the order
  ``initialize_candidates``, ``filter``, ``mapping``, ``join``.

What varies between the drivers is *policy* — chunking, retries, process
placement — which lives in :mod:`repro.pipeline.policies` around this
function, never inside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.analysis import contracts
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.filtering import FilterResult, IterativeFilter
from repro.core.join import FIND_ALL, JoinBudget, run_join
from repro.core.mapping import GMCR, build_gmcr
from repro.core.results import MatchResult, MemoryReport
from repro.graph.batch import GraphBatch
from repro.obs.trace import get_tracer
from repro.pipeline.artifacts import (
    STAGE_MAP,
    STAGE_REFINE,
    ArtifactCache,
    StageArtifact,
    derive_n_labels,
    filter_fingerprint,
)
from repro.xp import use_backend


def as_csrgo(side: Any, what: str) -> CSRGO:
    """Accept a CSR-GO batch, a GraphBatch, or an iterable of graphs.

    Raises ``ValueError`` when the side holds no graph.
    """
    if not isinstance(side, (CSRGO, GraphBatch)):
        side = GraphBatch(side)
    if side.n_graphs == 0:
        raise ValueError(f"at least one {what} graph is required")
    return side if isinstance(side, CSRGO) else CSRGO.from_batch(side)


@dataclass
class PipelineRequest:
    """One pipeline execution: inputs, mode, resume token, cache policy.

    Attributes
    ----------
    query / data:
        Either side as a :class:`~repro.core.csrgo.CSRGO`, a
        :class:`~repro.graph.batch.GraphBatch`, or an iterable of
        :class:`~repro.graph.labeled_graph.LabeledGraph` (converted by
        the convert step).
    config:
        Run configuration (``None`` resolves to the default).
    mode / join_budget / join_start_pair:
        Join policy, exactly as on ``SigmoEngine.run``.
    cache:
        Artifact cache to store the query-side artifacts in (``None``
        disables storing).
    reuse_artifacts:
        Whether :func:`execute` may *recall* ``refine``/``map`` artifacts
        from ``cache`` instead of recomputing (resumed truncated runs,
        warm sessions).  Storing happens regardless, so a plain run
        leaves the artifacts behind for a later resume.
    """

    query: Any
    data: Any
    config: SigmoConfig | None = None
    mode: str = FIND_ALL
    join_budget: JoinBudget | None = None
    join_start_pair: int = 0
    cache: ArtifactCache | None = None
    reuse_artifacts: bool = False

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = SigmoConfig()


def execute(request: PipelineRequest) -> MatchResult:
    """Run the pipeline for ``request`` and return the match result.

    The whole run executes under the request's configured array backend
    (``config.array_backend``): every ``repro.xp`` call in the kernels
    resolves to it for the duration of this call.
    """
    config = request.config
    with use_backend(config.array_backend):
        # Convert runs before the root span: engines convert at
        # construction time, outside their run spans.
        query = as_csrgo(request.query, "query")
        data = as_csrgo(request.data, "data")
        checking = contracts.enabled()
        if checking:
            contracts.check_csrgo(query, "query batch")
            contracts.check_csrgo(data, "data batch")
        n_labels = derive_n_labels(query, data, config.wildcard_label)
        fingerprint = filter_fingerprint(query, data, n_labels, config)
        timings: dict[str, float] = {}
        counts: dict[str, int] = {}
        tracer = get_tracer()
        with tracer.span(
            "run",
            category="engine",
            mode=request.mode,
            n_queries=query.n_graphs,
            n_data_graphs=data.n_graphs,
        ) as root:
            filter_result = _recall(request, STAGE_REFINE, fingerprint)
            if filter_result is None:
                with tracer.span(
                    "stage:filter",
                    category="stage",
                    iterations=config.refinement_iterations,
                ) as stage_sp:
                    filter_result = _run_filter(
                        query, data, config, n_labels, timings, counts
                    )
                    stage_sp.set(candidates=filter_result.total_candidates)
                _store(request, STAGE_REFINE, fingerprint, filter_result)
            if checking:
                contracts.check_filter_result(filter_result)

            gmcr = _recall(request, STAGE_MAP, fingerprint)
            if gmcr is None:
                with tracer.span("stage:mapping", category="stage") as stage_sp:
                    start = time.perf_counter()
                    with tracer.span(
                        "kernel:gmcr", category="kernel", work_items=data.n_graphs
                    ):
                        gmcr = build_gmcr(filter_result.bitmap, query, data)
                    _clock(timings, counts, "mapping", start)
                    stage_sp.set(pairs=gmcr.n_pairs)
                _store(request, STAGE_MAP, fingerprint, gmcr)
            if checking:
                contracts.check_gmcr(gmcr, query.n_graphs)

            start = time.perf_counter()
            join_result = run_join(
                query,
                data,
                filter_result.bitmap,
                gmcr,
                config,
                mode=request.mode,
                budget=request.join_budget,
                start_pair=request.join_start_pair,
            )
            _clock(timings, counts, "join", start)
            root.set(matches=join_result.total_matches)
        memory = MemoryReport(
            candidate_bitmap=filter_result.bitmap.nbytes(),
            data_graphs=data.nbytes(),
            query_graphs=query.nbytes(),
            signatures=_signature_bytes(filter_result),
            gmcr=gmcr.nbytes(),
        )
        return MatchResult(
            mode=request.mode,
            total_matches=join_result.total_matches,
            filter_result=filter_result,
            gmcr=gmcr,
            join_result=join_result,
            timings=timings,
            stage_counts=counts,
            memory=memory,
        )


def _run_filter(
    query: CSRGO,
    data: CSRGO,
    config: SigmoConfig,
    n_labels: int,
    timings: dict[str, float],
    counts: dict[str, int],
) -> FilterResult:
    """Init + refine; the filter (and its signature states) dies on return."""
    filt = IterativeFilter(query, data, config, n_labels)
    start = time.perf_counter()
    result = filt.initialize()
    _clock(timings, counts, "initialize_candidates", start)
    start = time.perf_counter()
    filt.refine(result)
    # One count per refine iteration, plus the edge-aware pass.
    _clock(
        timings,
        counts,
        "filter",
        start,
        len(result.iterations) + int(config.edge_signatures),
    )
    return result


def _clock(
    timings: dict[str, float],
    counts: dict[str, int],
    stage: str,
    start: float,
    count: int = 1,
) -> None:
    """Record one stage's wall-clock seconds since ``start`` and its count."""
    timings[stage] = time.perf_counter() - start
    counts[stage] = count


def _recall(request: PipelineRequest, stage: str, fingerprint: tuple) -> Any:
    """The cached artifact of ``stage`` when the request may reuse it."""
    if request.cache is None or not request.reuse_artifacts:
        return None
    hit = request.cache.get(stage, fingerprint)
    if hit is None:
        return None
    return _fresh_flags(hit.value) if stage == STAGE_MAP else hit.value


def _store(request: PipelineRequest, stage: str, fingerprint: tuple, value) -> None:
    """Cache a query-side artifact (when the request has a cache)."""
    if request.cache is None:
        return
    if stage == STAGE_MAP:
        value = _fresh_flags(value)
    request.cache.put(
        StageArtifact(stage=stage, fingerprint=fingerprint, value=value)
    )


def _fresh_flags(gmcr: GMCR) -> GMCR:
    """The GMCR with its own copy of the ``matched`` flags.

    The flags are the one part of a query-side artifact the join mutates.
    Stored copies stay pristine (all ``False``), and each recalled GMCR
    gets a fresh array, so a resumed run's Find First flags cover exactly
    the pairs *it* joined.
    """
    return GMCR(gmcr.data_graph_offsets, gmcr.query_graph_indices, gmcr.matched.copy())


def _signature_bytes(filter_result: FilterResult) -> int:
    """Bytes of the signature matrices, or the packed-uint64 equivalent."""
    total = 0
    for counts in (filter_result.query_signatures, filter_result.data_signatures):
        if counts is not None:
            # Device-side signatures are one packed uint64 per node.
            total += counts.shape[0] * 8
    return total
