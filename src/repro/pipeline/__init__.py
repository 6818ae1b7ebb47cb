"""Pipeline core: one straight-line pipeline, composable policies, sessions.

Public surface:

* :func:`~repro.pipeline.stages.execute` /
  :class:`~repro.pipeline.stages.PipelineRequest` — the one pipeline
  (convert → init-candidates → refine ×s → map → join) every run entry
  point routes through.
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
from repro.pipeline.aggregate import AggregateResult, ResultAccumulator
from repro.pipeline.artifacts import (
    ArtifactCache,
    StageArtifact,
    derive_n_labels,
    filter_fingerprint,
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
from repro.pipeline.stages import PipelineRequest, execute

__all__ = [
    "AggregateResult",
    "ArtifactCache",
    "BudgetInfeasible",
    "ChunkingPolicy",
    "JoinOutput",
    "MatcherSession",
    "MemoryBudgetPolicy",
    "PipelineRequest",
    "ResultAccumulator",
    "RetryPolicy",
    "StageArtifact",
    "WorkUnit",
    "chunk_size_for_budget",
    "derive_n_labels",
    "execute",
    "filter_fingerprint",
    "partition_slices",
]
