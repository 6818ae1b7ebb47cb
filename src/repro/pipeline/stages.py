"""The typed stage graph: convert → init-candidates → refine → map → join.

Each stage is a :class:`StageSpec` — a name, its dependencies, the group
(stage span) it renders under, whether its artifact is cacheable, and a
runner.  The runners operate on a mutable :class:`PipelineState` so the
executor stays a generic loop: it resolves dependencies, opens the group
spans, consults the artifact cache, and stores what the runners produce.

The graph is deliberately a straight line (the paper's Fig. 2 dataflow);
what varies between the run drivers is *policy* — chunking, retries,
process placement — which lives in :mod:`repro.pipeline.policies` around
the executor, never inside the stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis import contracts
from repro.core.csrgo import CSRGO
from repro.core.filtering import IterativeFilter
from repro.core.join import run_join
from repro.core.mapping import build_gmcr
from repro.obs.trace import get_tracer
from repro.pipeline.artifacts import (
    STAGE_CONVERT,
    STAGE_INIT,
    STAGE_JOIN,
    STAGE_MAP,
    STAGE_REFINE,
    CSRGOPair,
    derive_n_labels,
)
from repro.utils.timing import StageTimer


@dataclass
class PipelineState:
    """Mutable per-execution scratchpad shared by the stage runners.

    ``request`` is the immutable input; everything else is filled in as
    stages run.  ``artifacts`` maps stage name → produced value;
    ``from_cache`` records which stages were satisfied from the artifact
    cache (the executor skips their spans and timers — that is the whole
    point of caching them).
    """

    request: Any  # PipelineRequest (kept untyped to avoid a module cycle)
    timer: StageTimer
    query: CSRGO | None = None
    data: CSRGO | None = None
    n_labels: int = 0
    filter: IterativeFilter | None = None
    artifacts: dict[str, Any] = field(default_factory=dict)
    from_cache: set[str] = field(default_factory=set)

    @property
    def config(self):
        """The resolved run config (always set on the request)."""
        return self.request.config


@dataclass(frozen=True)
class StageSpec:
    """Static description of one pipeline stage.

    Attributes
    ----------
    name:
        Stage name (``convert`` ... ``join``).
    requires:
        Names of stages whose artifacts must exist before this one runs.
    runner:
        ``runner(state) -> artifact``; stores nothing itself.
    group:
        Stage-span group this stage renders under (``"filter"`` /
        ``"mapping"``), or ``None`` for stages that manage their own spans
        (convert runs before the root span; join opens ``stage:join``
        itself, exactly as the pre-pipeline engine did).
    query_side:
        Whether the artifact depends only on batch contents + filter
        config (and is therefore reusable across repeated/resumed runs).
    cacheable:
        Whether the executor may satisfy this stage from the artifact
        cache.  Only the *last* stage of a group is cacheable: recalling
        ``refine`` implies ``init-candidates`` never needs to exist.
    """

    name: str
    requires: tuple[str, ...]
    runner: Callable[[PipelineState], Any]
    group: str | None = None
    query_side: bool = False
    cacheable: bool = False


def _run_convert(state: PipelineState) -> CSRGOPair:
    """Stage 1: CSR-GO conversion, validation, and the label-space size."""
    request = state.request
    query, data = request.resolve_batches()
    if query.n_graphs == 0:
        raise ValueError("at least one query graph is required")
    if data.n_graphs == 0:
        raise ValueError("at least one data graph is required")
    if not request.validated and contracts.enabled():
        contracts.check_csrgo(query, "query batch")
        contracts.check_csrgo(data, "data batch")
    n_labels = request.n_labels
    if n_labels is None:
        n_labels = derive_n_labels(query, data, request.config.wildcard_label)
    state.query = query
    state.data = data
    state.n_labels = n_labels
    return CSRGOPair(query=query, data=data, n_labels=n_labels)


def _run_init_candidates(state: PipelineState):
    """Stage 2: seed the candidate bitmap (filter phase, first half)."""
    state.filter = IterativeFilter(
        state.query, state.data, state.config, state.n_labels
    )
    return state.filter.initialize(state.timer)


def _run_refine(state: PipelineState):
    """Stages 3-4: iterative signature refinement (filter phase, second half)."""
    return state.filter.refine(state.artifacts[STAGE_INIT], state.timer)


def _run_map(state: PipelineState):
    """Stage 5: GMCR mapping over the refined bitmap."""
    filter_result = state.artifacts[STAGE_REFINE]
    with state.timer.stage("mapping"):
        with get_tracer().span(
            "kernel:gmcr", category="kernel", work_items=state.data.n_graphs
        ):
            return build_gmcr(filter_result.bitmap, state.query, state.data)


def _run_join(state: PipelineState):
    """Stage 6: the join (owns its own ``stage:join`` span and timer)."""
    request = state.request
    return run_join(
        state.query,
        state.data,
        state.artifacts[STAGE_REFINE].bitmap,
        state.artifacts[STAGE_MAP],
        request.config,
        mode=request.mode,
        timer=state.timer,
        plans=request.plans,
        budget=request.join_budget,
        start_pair=request.join_start_pair,
    )


#: The five-stage graph, in execution order (paper Fig. 2 with the filter
#: phase split at its natural seam).
PIPELINE_STAGES: tuple[StageSpec, ...] = (
    StageSpec(name=STAGE_CONVERT, requires=(), runner=_run_convert),
    StageSpec(
        name=STAGE_INIT,
        requires=(STAGE_CONVERT,),
        runner=_run_init_candidates,
        group="filter",
        query_side=True,
    ),
    StageSpec(
        name=STAGE_REFINE,
        requires=(STAGE_INIT,),
        runner=_run_refine,
        group="filter",
        query_side=True,
        cacheable=True,
    ),
    StageSpec(
        name=STAGE_MAP,
        requires=(STAGE_REFINE,),
        runner=_run_map,
        group="mapping",
        query_side=True,
        cacheable=True,
    ),
    StageSpec(name=STAGE_JOIN, requires=(STAGE_MAP,), runner=_run_join),
)


def validate_stage_graph(stages: tuple[StageSpec, ...] = PIPELINE_STAGES) -> None:
    """Check the graph is a well-formed forward DAG with contiguous groups.

    Raises ``ValueError`` on duplicate names, dependencies on unknown or
    later stages, a cacheable stage that is not the tail of its group, or
    a group split by an ungrouped stage (group spans must be one
    contiguous ``with`` block).
    """
    seen: set[str] = set()
    for spec in stages:
        if spec.name in seen:
            raise ValueError(f"duplicate stage name {spec.name!r}")
        for dep in spec.requires:
            if dep not in seen:
                raise ValueError(
                    f"stage {spec.name!r} requires {dep!r} which does not "
                    "run before it"
                )
        seen.add(spec.name)
    groups_closed: set[str] = set()
    open_group: str | None = None
    for spec in stages:
        if spec.group != open_group:
            if open_group is not None:
                groups_closed.add(open_group)
            if spec.group in groups_closed:
                raise ValueError(
                    f"group {spec.group!r} is split by an intervening stage"
                )
            open_group = spec.group
    for i, spec in enumerate(stages):
        if spec.cacheable:
            if spec.group is None:
                continue
            is_tail = i + 1 == len(stages) or stages[i + 1].group != spec.group
            if not is_tail:
                raise ValueError(
                    f"cacheable stage {spec.name!r} must be the tail of "
                    f"group {spec.group!r}"
                )
