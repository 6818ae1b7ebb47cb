"""Staged pipeline core: one executor, composable policies, sessions.

Public surface:

* :class:`~repro.pipeline.executor.PipelineExecutor` /
  :class:`~repro.pipeline.executor.PipelineRequest` — the single driver
  every run entry point routes through.
* :mod:`~repro.pipeline.stages` — the typed stage graph
  (convert → init-candidates → refine → map → join).
* :mod:`~repro.pipeline.artifacts` — explicit, checkpointable stage
  artifacts plus the per-engine/per-session cache.
* :mod:`~repro.pipeline.policies` — chunking/partitioning/retry/memory
  policies the two drivers compose.
* :mod:`~repro.pipeline.aggregate` — the shared aggregate-result fields
  and the one fold that fills them.
* :class:`~repro.pipeline.session.MatcherSession` — prepared-query
  serving layer (compile queries once, stream data batches).
"""

from repro.core.join import JoinResult as JoinOutput
from repro.pipeline.aggregate import (
    AggregateResult,
    ResultAccumulator,
    merge_join_stats,
)
from repro.pipeline.artifacts import (
    ArtifactCache,
    CSRGOPair,
    StageArtifact,
    derive_n_labels,
    filter_fingerprint,
)
from repro.pipeline.executor import (
    PipelineExecutor,
    PipelineRequest,
    default_executor,
    execute,
)
from repro.pipeline.policies import (
    BudgetInfeasible,
    ChunkingPolicy,
    MemoryBudgetPolicy,
    RetryPolicy,
    WorkUnit,
    chunk_size_for_budget,
    partition_slices,
)
from repro.pipeline.session import MatcherSession
from repro.pipeline.stages import (
    PIPELINE_STAGES,
    PipelineState,
    StageSpec,
    validate_stage_graph,
)

__all__ = [
    "AggregateResult",
    "ArtifactCache",
    "BudgetInfeasible",
    "CSRGOPair",
    "ChunkingPolicy",
    "JoinOutput",
    "MatcherSession",
    "MemoryBudgetPolicy",
    "PIPELINE_STAGES",
    "PipelineExecutor",
    "PipelineRequest",
    "PipelineState",
    "ResultAccumulator",
    "RetryPolicy",
    "StageArtifact",
    "StageSpec",
    "WorkUnit",
    "chunk_size_for_budget",
    "default_executor",
    "derive_n_labels",
    "execute",
    "filter_fingerprint",
    "merge_join_stats",
    "partition_slices",
    "validate_stage_graph",
]
