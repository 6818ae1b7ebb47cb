"""Pipeline core: one straight-line pipeline, composable policies, sessions.

Public surface:

* :func:`~repro.pipeline.stages.execute` /
  :class:`~repro.pipeline.stages.PipelineRequest` — the one pipeline
  (convert → init-candidates → refine ×s → map → join) every run entry
  point routes through.
* :mod:`~repro.pipeline.artifacts` — explicit, checkpointable stage
  artifacts plus the per-engine/per-session cache.
* :mod:`~repro.pipeline.policies` — the one range planner
  (:func:`~repro.pipeline.policies.chunk_ranges`), retry schedule and
  budget sizing the chunk loop composes.
* :mod:`~repro.pipeline.aggregate` — the seven summable result fields,
  declared once, and the one fold (``add``) every driver folds through.
* :class:`~repro.pipeline.session.MatcherSession` — prepared-query
  serving layer (compile queries once, stream data batches).
"""

from repro.pipeline.aggregate import ResultFields
from repro.pipeline.artifacts import (
    ArtifactCache,
    StageArtifact,
    derive_n_labels,
    filter_fingerprint,
)
from repro.pipeline.policies import (
    BudgetInfeasible,
    RetryPolicy,
    chunk_ranges,
    chunk_size_for_budget,
)
from repro.pipeline.session import MatcherSession
from repro.pipeline.stages import PipelineRequest, execute

__all__ = [
    "ArtifactCache",
    "BudgetInfeasible",
    "MatcherSession",
    "PipelineRequest",
    "ResultFields",
    "RetryPolicy",
    "StageArtifact",
    "chunk_ranges",
    "chunk_size_for_budget",
    "derive_n_labels",
    "execute",
    "filter_fingerprint",
]
