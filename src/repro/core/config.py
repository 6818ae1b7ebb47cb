"""Engine configuration: the tunables the paper explores.

Table 1 of the paper tunes three knobs per GPU (candidate bitmap word
width, filter work-group size, join work-group size); Figures 5-7 and 11
sweep the refinement-iteration count.  :class:`SigmoConfig` carries all of
them plus the signature bit-allocation policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.signatures import SignaturePacking

#: Refinement-iteration default.  The paper finds 6 optimal on the ZINC
#: benchmark for NVIDIA (Fig. 6) — "Beginning around iteration 6, the total
#: number of candidates plateaus".
DEFAULT_REFINEMENT_ITERATIONS = 6


@dataclass(frozen=True)
class SigmoConfig:
    """Immutable configuration for :class:`~repro.core.engine.SigmoEngine`.

    Attributes
    ----------
    refinement_iterations:
        Number of filter iterations ``s``.  Iteration ``i`` gives each node
        visibility of its radius-``i-1`` neighborhood (paper section 5.1),
        so ``1`` means label-only filtering.
    word_bits:
        Candidate-bitmap word width (32 or 64; Table 1).
    filter_workgroup_size:
        Work-group size of the filter kernels (device-simulation knob).
    join_workgroup_size:
        Work-group size of the join kernel (device-simulation knob).
    signature_bits:
        Explicit per-label bit allocation for the packed signatures, or
        ``None`` to derive a frequency-skewed allocation from the data batch
        (paper section 4.2 masking strategy).
    record_embeddings:
        Whether Find All keeps the actual node mappings (can be very large;
        counting alone reproduces the paper's throughput metric).
    max_embeddings_recorded:
        Safety cap on recorded embeddings per run.
    candidate_order:
        Join matching-order heuristic: ``"fewest-candidates"`` (greedy
        connected order by ascending candidate count) or ``"bfs"`` (plain
        BFS from node 0).
    wildcard_label:
        Query node label treated as "matches any element", or ``None``.
        The paper lists wildcard atoms as future work; this implements it
        (see :mod:`repro.chem.smarts`).
    wildcard_edge_label:
        Query edge label treated as "matches any bond", or ``None``.
    edge_signatures:
        Enable the edge-aware radius-1 refinement pass (extension; see
        :mod:`repro.core.edge_signatures`).
    induced:
        Require *induced* subgraph isomorphism: mapped node pairs that are
        non-adjacent in the query must be non-adjacent in the data graph
        (classic VF2 semantics).  The paper's NLSM uses monomorphism
        semantics (its Def. 2.1 condition is one-directional), which
        remains the default.
    array_backend:
        Registered ``repro.xp`` array backend the pipeline executes on
        (``"numpy"`` default; ``"instrumented"`` wraps numpy in per-op
        counters; any backend added with ``repro.xp.register_backend``).
        Backend identity is threaded into every content-hash-keyed cache
        so artifacts from different backends never collide.
    join_backend:
        The one backend that joins every pair of a run
        (:func:`repro.accel.dispatch.resolve_backend`): ``"auto"`` is
        the whole-batch frontier table (:mod:`repro.accel.fused`), the
        same as ``"fused"``; ``"dfs"`` forces the scalar stack-DFS
        reference backend and ``"tabular"`` the fused kernel with one
        pair per table.  The backends are bitwise-equivalent in Find All
        (match sets, stats, truncation) and agree on results in Find
        First, so this is purely a performance knob.
    """

    refinement_iterations: int = DEFAULT_REFINEMENT_ITERATIONS
    word_bits: int = 64
    filter_workgroup_size: int = 1024
    join_workgroup_size: int = 128
    signature_bits: tuple[int, ...] | None = None
    record_embeddings: bool = False
    max_embeddings_recorded: int = 1_000_000
    candidate_order: str = "fewest-candidates"
    wildcard_label: int | None = None
    wildcard_edge_label: int | None = None
    edge_signatures: bool = False
    induced: bool = False
    array_backend: str = "numpy"
    join_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.refinement_iterations < 1:
            raise ValueError("refinement_iterations must be >= 1")
        if self.word_bits not in (8, 16, 32, 64):
            raise ValueError("word_bits must be one of 8, 16, 32, 64")
        for name in ("filter_workgroup_size", "join_workgroup_size"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if self.candidate_order not in ("fewest-candidates", "bfs"):
            raise ValueError(
                "candidate_order must be 'fewest-candidates' or 'bfs'"
            )
        if self.max_embeddings_recorded < 0:
            raise ValueError("max_embeddings_recorded must be >= 0")
        from repro.accel.dispatch import JOIN_BACKENDS

        if self.join_backend not in JOIN_BACKENDS:
            raise ValueError(
                f"join_backend must be one of {JOIN_BACKENDS}, "
                f"got {self.join_backend!r}"
            )
        from repro.xp import backend_names

        if self.array_backend not in backend_names():
            raise ValueError(
                f"array_backend must be one of {backend_names()}, "
                f"got {self.array_backend!r}"
            )

    def with_backend(self, backend: str) -> "SigmoConfig":
        """Copy with a different join backend (benchmarks, parity tests)."""
        return replace(self, join_backend=backend)

    def with_array_backend(self, backend: str) -> "SigmoConfig":
        """Copy with a different array backend (parity suite, devices)."""
        return replace(self, array_backend=backend)

    def packing_for(self, label_frequencies: np.ndarray) -> SignaturePacking:
        """Resolve the signature packing for a given label-frequency vector."""
        if self.signature_bits is not None:
            bits = np.asarray(self.signature_bits, dtype=np.int64)
            if bits.size != label_frequencies.size:
                raise ValueError(
                    f"signature_bits has {bits.size} fields but the batch uses "
                    f"{label_frequencies.size} labels"
                )
            return SignaturePacking(bits)
        return SignaturePacking.from_frequencies(label_frequencies)

    def with_iterations(self, iterations: int) -> "SigmoConfig":
        """Copy with a different refinement-iteration count (sweeps)."""
        return replace(self, refinement_iterations=iterations)


#: Per-device best configurations from paper Table 1.
PAPER_TABLE1_CONFIGS: dict[str, SigmoConfig] = {
    "nvidia-v100s": SigmoConfig(
        word_bits=32, filter_workgroup_size=1024, join_workgroup_size=128
    ),
    "amd-mi100": SigmoConfig(
        word_bits=64, filter_workgroup_size=512, join_workgroup_size=64
    ),
    "intel-max1100": SigmoConfig(
        word_bits=32, filter_workgroup_size=512, join_workgroup_size=32
    ),
}
