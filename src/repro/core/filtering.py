"""Iterative candidate filtering (paper Algorithm 1 and section 4.4).

The filter runs ``s`` refinement iterations.  Iteration ``i`` compares
radius-``i-1`` signatures: a data node stays a candidate for a query node
iff its (saturated) signature dominates the query node's per label.
Refinement is monotone — bits are only ever cleared — matching the paper's
invariant that a node pruned at iteration ``i-1`` cannot return at ``i``.

Kernel-equivalent layout notes:

* ``InitializeCandidates`` builds one boolean stripe per *label* and
  assigns it to every query node with that label, rather than looping the
  ``n_q x n_d`` product — same output as Alg. 1's kernel.
* ``RefineCandidates`` groups query nodes by *saturated signature*, with
  one 1-D ``unique`` over the packed 64-bit keys (injective on saturated
  rows), and is *candidate-sparse*: it ORs each group's rows into one
  union row and compares signatures only on the (group, data node) pairs
  whose bit is still set there — like the paper's kernel, which loads only
  each query node's current candidates — instead of against every data
  node.  Failing pairs are scattered into a per-group fail mask and
  cleared from every row of the group.  Four saturated counts share one
  ``uint64`` word in guarded 16-bit lanes, so one subtraction tests four
  labels.  Pairs are materialized in chunks of
  :data:`REFINE_CHUNK_PAIRS`.  The edge-aware pass
  (:mod:`repro.core.edge_signatures`) runs the same kernel on its pair
  histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import xp
from repro.accel.memo import frozen_array, signature_memo
from repro.analysis import contracts
from repro.analysis.markers import kernel
from repro.core.candidates import CandidateBitmap
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.signatures import SignaturePacking, SignatureState
from repro.obs.trace import get_tracer
from repro.utils.bitops import pack_bool_rows

if TYPE_CHECKING:
    import numpy as np

#: Most (signature group, data node) pairs one chunk of the refine kernel
#: compares (plus at most one bitmap word); bounds its scratch memory.
REFINE_CHUNK_PAIRS = 32_768


@dataclass
class IterationStats:
    """Per-refinement-iteration observability (drives Figs. 5-6).

    Attributes
    ----------
    iteration:
        1-based refinement iteration number.
    radius:
        Signature radius used (``iteration - 1``).
    total_candidates:
        Sum of candidate-set sizes over all query nodes (Fig. 5 line).
    candidates_per_node:
        Candidate-set size per query node (Fig. 5 box plots).
    filter_seconds:
        Wall-clock host time of this iteration's signature + refine step.
    """

    iteration: int
    radius: int
    total_candidates: int
    candidates_per_node: np.ndarray
    filter_seconds: float


@dataclass
class FilterResult:
    """Output of the filtering phase.

    Attributes
    ----------
    bitmap:
        Final candidate bitmap.
    packing:
        The signature packing used (shared by query and data sides).
    iterations:
        Per-iteration statistics, oldest first.
    query_signatures / data_signatures:
        Final raw (unsaturated) signature count matrices, kept for
        diagnostics and the device-simulation work model.
    """

    bitmap: CandidateBitmap
    packing: SignaturePacking
    iterations: list[IterationStats] = field(default_factory=list)
    query_signatures: np.ndarray | None = None
    data_signatures: np.ndarray | None = None

    @property
    def total_candidates(self) -> int:
        """Candidate count after the final iteration."""
        return self.iterations[-1].total_candidates if self.iterations else 0


@kernel(writes=())
def initialize_candidates(
    query: CSRGO, data: CSRGO, word_bits: int = 64, wildcard_label: int | None = None
) -> CandidateBitmap:
    """Stage 2 of the pipeline: label-equality candidate seeding.

    Equivalent to Alg. 1's ``InitializeCandidates``: data node ``v_d`` is an
    initial candidate of query node ``v_q`` iff their labels are equal.
    Query nodes carrying ``wildcard_label`` start with *every* data node as
    a candidate (wildcard atoms, the paper's future-work extension).
    """
    bitmap = CandidateBitmap(query.n_nodes, data.n_nodes, word_bits)
    if query.n_nodes == 0 or data.n_nodes == 0:
        return bitmap
    tracer = get_tracer()
    with tracer.span(
        "kernel:initialize_candidates", category="kernel", work_items=data.n_nodes
    ):
        for label in xp.unique(query.labels):
            # One work-group batch per label stripe (Alg. 1 layout).
            with tracer.span(
                f"wg:label-{int(label)}", category="workgroup"
            ) as wg:
                if wildcard_label is not None and label == wildcard_label:
                    mask = xp.ones(data.n_nodes, dtype=xp.bool_)
                else:
                    mask = data.labels == label
                packed = pack_bool_rows(mask[None, :], word_bits)[0]
                rows = xp.nonzero(query.labels == label)[0]
                bitmap.words[rows] = packed
                wg.set(query_rows=int(rows.size), candidates=int(mask.sum()))
    return bitmap


@kernel(writes=("bitmap",))
def refine_candidates(
    bitmap: CandidateBitmap,
    query_counts: np.ndarray,
    data_counts: np.ndarray,
    packing: SignaturePacking,
) -> None:
    """One ``RefineCandidates`` step: clear the non-dominating candidates.

    Parameters
    ----------
    bitmap:
        Candidate bitmap, refined in place (monotone: only clears bits).
    query_counts / data_counts:
        Raw signature count matrices ``(n_nodes, n_labels)`` at the current
        radius.
    packing:
        Saturation layout; domination is evaluated on saturated counts,
        which is exactly the packed-bitset comparison of section 4.2.
    """
    sat_q = packing.saturate(query_counts)
    sat_d = packing.saturate(data_counts)
    if sat_q.shape[0] != bitmap.n_query_nodes:
        raise ValueError("query_counts rows != bitmap query nodes")
    if sat_d.shape[0] != bitmap.n_data_nodes:
        raise ValueError("data_counts rows != bitmap data nodes")
    # Group query nodes by saturated signature.  The packed 64-bit key is
    # injective on saturated rows, so a 1-D unique replaces the much
    # slower row-wise ``unique(axis=0)``.
    _, first, inverse = xp.unique(
        packing.pack(query_counts), return_index=True, return_inverse=True
    )
    with get_tracer().span(
        "kernel:refine_candidates",
        category="kernel",
        work_items=bitmap.n_data_nodes,
        signature_groups=int(first.shape[0]),
    ) as sp:
        pairs = refine_dominated(bitmap, sat_q[first], inverse, sat_d)
        sp.set(pairs=pairs)


#: The guard bit of every 16-bit lane of a :func:`signature_lanes` word.
LANE_GUARDS = 0x0100_0100_0100_0100


@kernel(writes=())
def signature_lanes(sat: np.ndarray) -> np.ndarray:
    """Saturated ``uint8`` count rows packed four per ``uint64`` word.

    Returns ``uint64[ceil(n_cols / 4), n_rows]``, word-major so that
    gathering many rows is one contiguous take per word: count ``c`` of
    row ``i`` sits in bits ``16*(c%4)`` up of word ``c//4``.  With
    :data:`LANE_GUARDS` OR-ed into the data words, ``data - query`` keeps
    a lane's guard bit iff that lane's data count is at least the query
    count — eight bits of headroom stop borrows from crossing lanes — so
    one subtraction tests four labels.
    """
    n_rows, n_cols = sat.shape
    n_words = -(-n_cols // 4)
    lanes = xp.zeros((n_rows, 4 * n_words), dtype=xp.uint64)
    lanes[:, :n_cols] = sat
    shifts = xp.arange(4, dtype=xp.uint64) * xp.uint64(16)
    words = (lanes.reshape(n_rows, n_words, 4) << shifts).sum(axis=2, dtype=xp.uint64)
    return xp.ascontiguousarray(words.T)


@kernel(writes=("bitmap",))
def refine_dominated(
    bitmap: CandidateBitmap,
    group_sigs: np.ndarray,
    inverse: np.ndarray,
    sat_data: np.ndarray,
) -> int:
    """Clear every candidate bit whose data node does not dominate.

    The candidate-sparse domination kernel shared by both refine flavours.
    Query row ``i`` belongs to signature group ``inverse[i]``; data node
    ``d`` stays a candidate of row ``i`` iff ``sat_data[d] >=
    group_sigs[inverse[i]]`` in every column.  Only (group, data node)
    pairs whose bit is still set in some row of the group are compared —
    after the first refinement that is well under 1% of the dense
    ``groups x data nodes`` product — and at most about
    :data:`REFINE_CHUNK_PAIRS` pairs are materialized at a time.  Bits
    past ``n_data_nodes`` (word padding) always fail.

    Returns the number of pairs compared.
    """
    n_groups = group_sigs.shape[0]
    n_words = bitmap.words.shape[1]
    if n_groups == 0 or n_words == 0:
        return 0
    word_bits = bitmap.word_bits
    dtype = bitmap.words.dtype
    last_node = bitmap.n_data_nodes - 1
    guards = xp.uint64(LANE_GUARDS)
    data_lanes = signature_lanes(sat_data) | guards
    sig_lanes = signature_lanes(group_sigs)
    # Per-group candidate union: the pairs worth comparing.
    union = xp.zeros((n_groups, n_words), dtype=dtype)
    xp.scatter_or(union, inverse, bitmap.words)
    group_of, word_of = xp.nonzero(union)
    values = union[group_of, word_of]
    # Pair offset of each nonzero union word; chunk cuts every
    # REFINE_CHUNK_PAIRS pairs (a cut never splits a word).
    counts = xp.popcount(values).astype(xp.int64)
    ends = xp.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.shape[0] else 0
    cuts = xp.searchsorted(
        starts, xp.arange(0, total, REFINE_CHUNK_PAIRS, dtype=xp.int64)
    ).tolist() + [int(values.shape[0])]
    fail = xp.zeros(n_groups * n_words, dtype=dtype)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # The chunk's set bits as (group, data node) pairs.
        bits = xp.unpack_bits(values[lo:hi], (hi - lo) * word_bits, word_bits)
        pair_word, bit = xp.divmod_(xp.nonzero(bits)[0], word_bits)
        pair_word += lo
        groups = group_of[pair_word]
        words = word_of[pair_word]
        nodes = words * word_bits + bit
        # Lane-wise domination test; failing pairs go to the fail mask.
        diff = xp.take(data_lanes, xp.minimum(nodes, last_node), axis=1)
        diff -= xp.take(sig_lanes, groups, axis=1)
        bad = xp.any((diff & guards) != guards, axis=0)
        bad |= nodes > last_node
        xp.scatter_or(
            fail,
            groups[bad] * n_words + words[bad],
            (xp.uint64(1) << bit[bad].astype(xp.uint64)).astype(dtype),
        )
    # Clear each group's failed bits from every row of the group.
    bitmap.words &= (~fail).reshape(n_groups, n_words)[inverse]
    return total


class IterativeFilter:
    """Runs the full multi-iteration filtering phase.

    Parameters
    ----------
    query / data:
        Query and data batches in CSR-GO form.
    config:
        Engine configuration (iterations, word width, signature bits).
    n_labels:
        Optional explicit label-vocabulary size; defaults to the max label
        across both batches plus one.
    """

    def __init__(
        self,
        query: CSRGO,
        data: CSRGO,
        config: SigmoConfig | None = None,
        n_labels: int | None = None,
    ) -> None:
        self.query = query
        self.data = data
        self.config = config or SigmoConfig()
        if n_labels is None:
            wildcard = self.config.wildcard_label
            q_labels = query.labels
            if wildcard is not None:
                q_labels = q_labels[q_labels != wildcard]
            q_max = int(q_labels.max()) + 1 if q_labels.size else 0
            n_labels = max(q_max, data.n_labels, 1)
        self.n_labels = n_labels
        freq = xp.bincount(data.labels, minlength=n_labels).astype(xp.float64)
        self.packing = self.config.packing_for(freq)
        self._query_state: SignatureState | None = None
        self._data_state: SignatureState | None = None
        self._last_signatures: tuple[np.ndarray, np.ndarray] | None = None

    def run(self) -> FilterResult:
        """Execute ``refinement_iterations`` filter iterations.

        Returns the final bitmap plus per-iteration statistics.  Signature
        states are created lazily at iteration 2 (iteration 1 is label-only
        and needs no BFS), and their frontiers are cached across iterations.

        The stage-level entry point for direct kernel use (benchmarks,
        analyses): :meth:`initialize` then :meth:`refine` under one
        ``stage:filter`` span.  Pipeline runs call the two halves from
        :func:`repro.pipeline.stages.execute`, which also records the
        stage timings.
        """
        with get_tracer().span(
            "stage:filter",
            category="stage",
            iterations=self.config.refinement_iterations,
        ) as stage_sp:
            result = self.refine(self.initialize())
            stage_sp.set(candidates=result.total_candidates)
        return result

    def initialize(self) -> FilterResult:
        """Stage 2: seed the candidate bitmap.

        Returns a :class:`FilterResult` shell holding the initialized
        bitmap; :meth:`refine` completes it in place.  Opens no stage
        span — the caller owns that.
        """
        bitmap = initialize_candidates(
            self.query,
            self.data,
            self.config.word_bits,
            self.config.wildcard_label,
        )
        if contracts.enabled():
            contracts.check_bitmap(bitmap, name="initialize_candidates")
        return FilterResult(bitmap=bitmap, packing=self.packing)

    def refine(self, result: FilterResult) -> FilterResult:
        """Stages 3-4: the edge-aware pass (when enabled), then the
        refinement iterations over an initialized bitmap.

        Mutates ``result`` in place (bitmap bits cleared monotonically,
        per-iteration stats appended, final signature matrices attached)
        and returns it.
        """
        import time

        bitmap = result.bitmap
        if self.config.edge_signatures:
            from repro.core.edge_signatures import refine_candidates_edge_aware

            with get_tracer().span("kernel:refine_edge_aware", category="kernel"):
                refine_candidates_edge_aware(
                    bitmap,
                    self.query,
                    self.data,
                    self.n_labels,
                    wildcard_label=self.config.wildcard_label,
                    wildcard_edge_label=self.config.wildcard_edge_label,
                )
        checking = contracts.enabled()
        for iteration in range(1, self.config.refinement_iterations + 1):
            start = time.perf_counter()
            radius = iteration - 1
            prev_words = bitmap.words.copy() if checking else None
            if radius > 0:
                q_counts, d_counts = self._signatures_at(radius)
                refine_candidates(bitmap, q_counts, d_counts, self.packing)
            elapsed = time.perf_counter() - start
            per_node = bitmap.row_counts()
            if checking:
                contracts.check_bitmap(
                    bitmap,
                    name=f"refine iteration {iteration}",
                    expected_counts=per_node,
                )
                contracts.check_refinement_monotone(
                    prev_words, bitmap.words, name=f"refine iteration {iteration}"
                )
            result.iterations.append(
                IterationStats(
                    iteration=iteration,
                    radius=radius,
                    total_candidates=int(per_node.sum()),
                    candidates_per_node=per_node,
                    filter_seconds=elapsed,
                )
            )
        if self._last_signatures is not None:
            result.query_signatures, result.data_signatures = self._last_signatures
        return result

    def _signatures_at(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """Query and data signature counts at the given radius.

        Each side is memoized by the active array backend, batch content
        hash, label-vocabulary size, the ignored (wildcard) label and the
        radius — so a second pipeline
        run over identical batches (iteration sweeps, chunked re-runs,
        resilient retries) recalls the counts instead of re-running the
        neighborhood BFS.  The memo holds at most
        :data:`~repro.accel.memo.SIGNATURE_MEMO_BYTES` of matrices, least
        recently used first out; returned arrays are frozen
        (non-writeable) — ``refine_candidates`` only reads them.
        """
        q = self._side_signatures_at("query", radius)
        d = self._side_signatures_at("data", radius)
        self._last_signatures = (q, d)
        return q, d

    def _side_signatures_at(self, side: str, radius: int) -> np.ndarray:
        """One side's counts at ``radius``, through the signature memo."""
        batch = self.query if side == "query" else self.data
        ignore = self.config.wildcard_label if side == "query" else None
        key = (
            "sig",
            xp.backend_name(),
            batch.content_hash(),
            self.n_labels,
            ignore,
            radius,
        )
        memo = signature_memo()
        cached = memo.get(key)
        if cached is not None:
            return cached

        state_attr = "_query_state" if side == "query" else "_data_state"
        state = getattr(self, state_attr)
        if state is None:
            state = SignatureState(batch, self.n_labels, ignore_label=ignore)
            setattr(self, state_attr, state)
        counts = frozen_array(state.run_to(radius))
        memo.put(key, counts)
        return counts
