"""The single pipeline executor every run driver routes through.

``PipelineExecutor.execute`` takes one :class:`PipelineRequest` and drives
the stage graph of :mod:`repro.pipeline.stages`, attaching in exactly one
place everything the historical per-driver loops each re-implemented:

* the obs span hierarchy (``run`` → ``stage:*`` → ``kernel:*`` → ``wg:*``),
* the :class:`~repro.utils.timing.StageTimer` totals and counts,
* the ``REPRO_CHECK=1`` contract checks between stages,
* artifact caching: the ``refine``/``map`` artifacts are stored in the
  request's :class:`~repro.pipeline.artifacts.ArtifactCache` and — when
  ``reuse_artifacts`` is set — recalled instead of recomputed, skipping
  the query-side stages entirely (their spans and timer entries are
  simply absent, which is how tests verify the skip).

The trace/timer/result shape of a cold run is bitwise-identical to the
pre-pipeline ``SigmoEngine.run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.analysis import contracts
from repro.core.config import SigmoConfig
from repro.xp import use_backend
from repro.core.csrgo import CSRGO
from repro.core.join import FIND_ALL, JoinBudget, PlanTable
from repro.core.mapping import GMCR
from repro.core.results import MatchResult, MemoryReport
from repro.graph.batch import GraphBatch
from repro.obs.trace import get_tracer
from repro.pipeline.artifacts import (
    STAGE_CONVERT,
    STAGE_JOIN,
    STAGE_MAP,
    STAGE_REFINE,
    ArtifactCache,
    StageArtifact,
    filter_fingerprint,
)
from repro.pipeline.stages import (
    PIPELINE_STAGES,
    PipelineState,
    StageSpec,
    validate_stage_graph,
)
from repro.utils.timing import StageTimer


def _as_csrgo(side: Any, what: str) -> CSRGO:
    """Accept a CSR-GO batch, a GraphBatch, or an iterable of graphs."""
    if isinstance(side, CSRGO):
        return side
    batch = side if isinstance(side, GraphBatch) else GraphBatch(side)
    if batch.n_graphs == 0:
        raise ValueError(f"at least one {what} graph is required")
    return CSRGO.from_batch(batch)


@dataclass
class PipelineRequest:
    """One pipeline execution: inputs, mode, resume token, cache policy.

    Attributes
    ----------
    query / data:
        Either side as a :class:`~repro.core.csrgo.CSRGO`, a
        :class:`~repro.graph.batch.GraphBatch`, or an iterable of
        :class:`~repro.graph.labeled_graph.LabeledGraph` (converted by the
        ``convert`` stage).
    config:
        Run configuration (``None`` resolves to the default).
    mode / join_budget / join_start_pair:
        Join policy, exactly as on ``SigmoEngine.run``.
    n_labels:
        Explicit label-vocabulary size; derived from the batches when
        ``None``.
    plans:
        Pre-compiled :class:`~repro.core.join.PlanTable` of the query
        batch to hand the join (else memoized compilation).
    cache:
        Artifact cache to store the query-side artifacts in (``None``
        disables storing).
    reuse_artifacts:
        Whether the executor may *recall* ``refine``/``map`` artifacts
        from ``cache`` instead of recomputing (resumed truncated runs,
        warm sessions).  Storing happens regardless, so a plain run
        leaves the artifacts behind for a later resume.
    validated:
        The batches already passed the CSR-GO contract checks (engine
        constructors check once at build time, not per run).
    """

    query: Any
    data: Any
    config: SigmoConfig | None = None
    mode: str = FIND_ALL
    join_budget: JoinBudget | None = None
    join_start_pair: int = 0
    n_labels: int | None = None
    plans: PlanTable | None = None
    cache: ArtifactCache | None = None
    reuse_artifacts: bool = False
    validated: bool = False

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = SigmoConfig()

    def resolve_batches(self) -> tuple[CSRGO, CSRGO]:
        """Both sides in CSR-GO form (conversion is the convert stage's job)."""
        return _as_csrgo(self.query, "query"), _as_csrgo(self.data, "data")


#: Group span name + open/close attribute builders, keyed by group.
_GROUP_SPANS: dict[str, tuple[str, Callable, Callable]] = {
    "filter": (
        "stage:filter",
        lambda state: {"iterations": state.config.refinement_iterations},
        lambda state: {"candidates": state.artifacts[STAGE_REFINE].total_candidates},
    ),
    "mapping": (
        "stage:mapping",
        lambda state: {},
        lambda state: {"pairs": state.artifacts[STAGE_MAP].n_pairs},
    ),
}

#: Post-group contract checks (run outside the group span, exactly where
#: the pre-pipeline engine ran them) — also applied to cache-recalled
#: artifacts so REPRO_CHECK coverage is unchanged on warm runs.
_GROUP_CHECKS: dict[str, Callable[[PipelineState], None]] = {
    "filter": lambda state: contracts.check_filter_result(
        state.artifacts[STAGE_REFINE]
    ),
    "mapping": lambda state: contracts.check_gmcr(
        state.artifacts[STAGE_MAP], state.query.n_graphs
    ),
}


def signature_bytes(filter_result) -> int:
    """Bytes of the signature matrices, or the packed-uint64 equivalent."""
    total = 0
    for counts in (filter_result.query_signatures, filter_result.data_signatures):
        if counts is not None:
            # Device-side signatures are one packed uint64 per node.
            total += counts.shape[0] * 8
    return total


class PipelineExecutor:
    """Drives the stage graph for one request at a time (stateless)."""

    def __init__(self, stages: tuple[StageSpec, ...] = PIPELINE_STAGES) -> None:
        validate_stage_graph(stages)
        self.stages = stages
        self._by_name = {spec.name: spec for spec in stages}

    # -- the one driver ----------------------------------------------------------

    def execute(self, request: PipelineRequest) -> MatchResult:
        """Run the pipeline for ``request`` and return the match result.

        The whole run executes under the request's configured array
        backend (``config.array_backend``): every ``repro.xp`` call in
        the kernels resolves to it for the duration of this call.
        """
        with use_backend(request.config.array_backend):
            return self._execute(request)

    def _execute(self, request: PipelineRequest) -> MatchResult:
        timer = StageTimer()
        state = PipelineState(request=request, timer=timer)
        # Stage 1 runs before the root span: engines convert at
        # construction time, outside their run spans.
        state.artifacts[STAGE_CONVERT] = self._by_name[STAGE_CONVERT].runner(state)
        fingerprint = filter_fingerprint(
            state.query, state.data, state.n_labels, request.config
        )
        tracer = get_tracer()
        with tracer.span(
            "run",
            category="engine",
            mode=request.mode,
            n_queries=state.query.n_graphs,
            n_data_graphs=state.data.n_graphs,
        ) as root:
            self._run_stage_groups(state, fingerprint, tracer)
            join_result = self._by_name[STAGE_JOIN].runner(state)
            state.artifacts[STAGE_JOIN] = join_result
            root.set(matches=join_result.total_matches)
        return self._assemble(state, join_result)

    # -- internals ---------------------------------------------------------------

    def _run_stage_groups(self, state, fingerprint, tracer) -> None:
        """Run the grouped query-side stages (2-5), via cache where allowed."""
        request = state.request
        stages = self.stages
        i = 1  # skip convert
        while i < len(stages) - 1:  # stop before join
            group = stages[i].group
            members = [stages[i]]
            j = i + 1
            while j < len(stages) - 1 and stages[j].group == group:
                members.append(stages[j])
                j += 1
            i = j
            tail = members[-1]

            recalled = None
            if (
                request.cache is not None
                and request.reuse_artifacts
                and tail.cacheable
            ):
                hit = request.cache.get(tail.name, fingerprint)
                if hit is not None:
                    recalled = _thaw(tail.name, hit.value)
            if recalled is not None:
                state.artifacts[tail.name] = recalled
                state.from_cache.update(m.name for m in members)
            else:
                span_name, open_attrs, close_attrs = _GROUP_SPANS[group]
                with tracer.span(
                    span_name, category="stage", **open_attrs(state)
                ) as stage_sp:
                    for member in members:
                        state.artifacts[member.name] = member.runner(state)
                    stage_sp.set(**close_attrs(state))
                if request.cache is not None and tail.cacheable and tail.query_side:
                    request.cache.put(
                        StageArtifact(
                            stage=tail.name,
                            fingerprint=fingerprint,
                            value=_freeze(tail.name, state.artifacts[tail.name]),
                        )
                    )
            if contracts.enabled():
                _GROUP_CHECKS[group](state)

    def _assemble(self, state, join_result) -> MatchResult:
        filter_result = state.artifacts[STAGE_REFINE]
        gmcr = state.artifacts[STAGE_MAP]
        memory = MemoryReport(
            candidate_bitmap=filter_result.bitmap.nbytes(),
            data_graphs=state.data.nbytes(),
            query_graphs=state.query.nbytes(),
            signatures=signature_bytes(filter_result),
            gmcr=gmcr.nbytes(),
        )
        return MatchResult(
            mode=state.request.mode,
            total_matches=join_result.total_matches,
            filter_result=filter_result,
            gmcr=gmcr,
            join_result=join_result,
            timings=dict(state.timer.totals),
            stage_counts=dict(state.timer.counts),
            memory=memory,
        )


def _freeze(stage: str, value: Any) -> Any:
    """Snapshot an artifact for caching.

    The GMCR's ``matched`` flags are the one part of a query-side
    artifact the join mutates, so the cached copy gets its own (pristine,
    all-False at store time) array.
    """
    if stage == STAGE_MAP:
        return GMCR(
            value.data_graph_offsets,
            value.query_graph_indices,
            value.matched.copy(),
        )
    return value


def _thaw(stage: str, value: Any) -> Any:
    """Materialize a cached artifact for a run.

    Each recalled GMCR gets a fresh ``matched`` array so a resumed run's
    Find First flags cover exactly the pairs *it* joined — identical to
    the historical recompute-from-scratch behavior.
    """
    if stage == STAGE_MAP:
        return GMCR(
            value.data_graph_offsets,
            value.query_graph_indices,
            value.matched.copy(),
        )
    return value


_DEFAULT_EXECUTOR: PipelineExecutor | None = None


def default_executor() -> PipelineExecutor:
    """The shared executor instance (stateless; one is plenty)."""
    global _DEFAULT_EXECUTOR
    if _DEFAULT_EXECUTOR is None:
        _DEFAULT_EXECUTOR = PipelineExecutor()
    return _DEFAULT_EXECUTOR


def execute(
    queries: Iterable,
    data: Iterable,
    config: SigmoConfig | None = None,
    mode: str = FIND_ALL,
    **kwargs,
) -> MatchResult:
    """One-shot convenience: build a request and run it on the default executor."""
    request = PipelineRequest(
        query=queries, data=data, config=config, mode=mode, **kwargs
    )
    return default_executor().execute(request)
