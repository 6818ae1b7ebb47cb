"""Iterative candidate filtering (paper Algorithm 1 and section 4.4).

The filter runs up to ``s`` refinement iterations.  Iteration ``i``
compares radius-``i-1`` signatures: a data node stays a candidate for a
query node iff its (saturated) signature dominates the query node's per
label.  Refinement is monotone — bits are only ever cleared — matching the
paper's invariant that a node pruned at iteration ``i-1`` cannot return at
``i``.

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
  node.  Each pair's pass/fail result overwrites its bit in the unpacked
  union words, which are packed back in one pass and ANDed into every row
  of the group — no bit is scattered.  Four saturated counts share one
  ``uint64`` word in guarded 16-bit lanes, so one subtraction tests four
  labels.  Pairs are materialized in chunks of
  :data:`REFINE_CHUNK_PAIRS`.

Depth with the edge-aware pass (:mod:`repro.core.edge_signatures`, on by
default): the pass runs the same kernel on its pair histograms at the end
of iteration 1, and ``s`` is a cap.  After iteration 1, or after
iteration 2 when the pass does not subsume the radius-1 node refine
(:func:`~repro.core.edge_signatures.subsumes_radius_one`: wildcard
queries keep that refine's pruning), :func:`~repro.core.mapping.live_count`
counts the live bits once (candidate bits of viable query/data graph
pairs).  The filter stops there when one more iteration cannot pay
(:func:`few_live`), and runs to the cap otherwise.  The rule reads counts
only, so the same inputs stop at the same depth on every machine and
array backend, and a run that stops at depth ``k`` equals a run capped
at ``k``.  The node-only filter (``edge_signatures=False``, the paper's)
always runs ``s``.
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
from repro.core.mapping import live_count
from repro.core.signatures import SignaturePacking, SignatureState
from repro.obs.trace import get_tracer
from repro.utils.bitops import pack_bool_rows

if TYPE_CHECKING:
    import numpy as np

#: Most (signature group, data node) pairs one chunk of the refine kernel
#: compares (plus at most one bitmap word); bounds its scratch memory.
REFINE_CHUNK_PAIRS = 32_768

#: Share of the live bits one more node refine is expected to clear at
#: most: after the edge-aware pass, radius 2 clears 14-38% of them on the
#: molecular and random-graph workloads, and each deeper radius clears
#: less than the one before (about 5%, then about 1%).
CLEARED_SHARE = 0.4

#: Stop reasons recorded on :class:`FilterResult`.
STOP_CAP = "cap"
STOP_FEW_LIVE = "few-live"


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
    live_candidates:
        Live candidate bits after the iteration, or ``None`` where the
        filter did not count them.
    """

    iteration: int
    radius: int
    total_candidates: int
    candidates_per_node: np.ndarray
    live_candidates: int | None = None


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
    cap:
        The configured ``refinement_iterations``.
    stop_reason:
        Why refinement stopped at :attr:`depth`: ``"cap"`` or
        ``"few-live"`` (see :func:`few_live`).
    viable:
        ``bool[n_query_graphs, n_data_graphs]`` viability of the final
        bitmap after a ``"few-live"`` stop, counted with the live bits
        (the mapping stage then skips its counting pass), else ``None``.
    """

    bitmap: CandidateBitmap
    packing: SignaturePacking
    iterations: list[IterationStats] = field(default_factory=list)
    query_signatures: np.ndarray | None = None
    data_signatures: np.ndarray | None = None
    cap: int = 0
    stop_reason: str = ""
    viable: np.ndarray | None = None

    @property
    def total_candidates(self) -> int:
        """Candidate count after the final iteration."""
        return self.iterations[-1].total_candidates if self.iterations else 0

    @property
    def depth(self) -> int:
        """Refinement iterations that ran."""
        return len(self.iterations)


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
) -> int:
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

    Returns the number of (signature group, data node) pairs compared.
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
    return pairs


#: The guard bit of every 16-bit lane of a :func:`signature_lanes` word.
LANE_GUARDS = 0x0100_0100_0100_0100


@kernel(writes=())
def pack_columns(small: np.ndarray, per_word: int, lane_bits: int) -> np.ndarray:
    """Small non-negative count columns packed ``per_word`` per ``uint64``.

    Returns ``uint64[ceil(n_cols / per_word), n_rows]``: column ``c`` of
    row ``i`` sits in bits ``lane_bits * (c % per_word)`` up of word
    ``c // per_word``.  Values must fit ``lane_bits``.  One shifted OR per
    lane over a strided column slice of ``small.T`` — no per-column
    temporaries and no transposed copy of the result.
    """
    n_rows, n_cols = small.shape
    words = xp.zeros((-(-n_cols // per_word), n_rows), dtype=xp.uint64)
    columns = small.T
    for lane in range(min(per_word, n_cols)):
        part = columns[lane::per_word].astype(xp.uint64)
        part <<= xp.uint64(lane_bits * lane)
        words[: part.shape[0]] |= part
    return words


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
    return pack_columns(sat, 4, 16)


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
    # REFINE_CHUNK_PAIRS pairs.  A cut never splits a word, so a word with
    # more set bits than that repeats a cut; unique drops the repeats
    # (an empty chunk has nothing to pack).
    counts = xp.popcount(values).astype(xp.int64)
    ends = xp.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.shape[0] else 0
    cuts = xp.searchsorted(
        starts, xp.arange(0, total, REFINE_CHUNK_PAIRS, dtype=xp.int64)
    )
    cuts = xp.unique(
        xp.concatenate([cuts, xp.asarray([values.shape[0]], dtype=xp.int64)])
    ).tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # The chunk's set bits as (group, data node) pairs.
        bits = xp.unpack_bits(values[lo:hi], (hi - lo) * word_bits, word_bits)
        set_at = xp.flatnonzero(bits)
        pair_word, bit = xp.divmod_(set_at, word_bits)
        pair_word += lo
        nodes = word_of[pair_word] * word_bits + bit
        # Lane-wise domination test; each pair's result replaces its bit.
        diff = xp.take(data_lanes, xp.minimum(nodes, last_node), axis=1)
        diff -= xp.take(sig_lanes, group_of[pair_word], axis=1)
        diff &= guards
        keep = xp.all(diff == guards, axis=0)
        keep &= nodes <= last_node
        bits[set_at] = keep
        # Each (group, word) cell occurs once: one pack, plain stores.
        union[group_of[lo:hi], word_of[lo:hi]] = xp.pack_bits(
            bits.reshape(1, -1), word_bits
        )[0]
    # Keep each group's surviving bits in every row of the group.
    bitmap.words &= union[inverse]
    return total


def few_live(live: int, n_data_nodes: int, pairs_compared: int) -> bool:
    """Whether one more refine iteration cannot pay.

    ``live`` is the live-bit count after an iteration that compared
    ``pairs_compared`` pairs.  The next iteration's work is one signature
    step per data node plus about as many pairs (it tests a subset of the
    same candidates); the bits it can clear are at most
    :data:`CLEARED_SHARE` of the live bits.  It cannot pay when those do
    not outnumber the work.
    """
    return CLEARED_SHARE * live <= n_data_nodes + pairs_compared


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
        """Execute up to ``refinement_iterations`` filter iterations.

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
            "stage:filter", category="stage", cap=self.config.refinement_iterations
        ) as stage_sp:
            result = self.refine(self.initialize())
            stage_sp.set(
                candidates=result.total_candidates,
                depth=result.depth,
                stop=result.stop_reason,
            )
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
        """Stages 3-4: the refinement iterations over an initialized bitmap.

        With ``config.edge_signatures`` the edge-aware pass runs at the
        end of iteration 1: the pass commutes with the node iterations
        (each test depends only on the two nodes' signatures), so the
        final bitmap is the same wherever it runs, and running it first
        lets every later iteration compare fewer pairs.  The live bits are
        counted once, below the cap: after iteration 1 when the pass
        subsumes the radius-1 node refine
        (:func:`~repro.core.edge_signatures.subsumes_radius_one`), else
        after iteration 2; :func:`few_live` may end the refinement
        there.  Under ``REPRO_CHECK`` a stop at depth 1 runs the radius-1
        refine on a copy, which must clear no bit.

        Mutates ``result`` in place (bitmap bits cleared monotonically,
        per-iteration stats appended, final signature matrices, cap,
        stop reason and viability attached) and returns it.
        """
        from repro.core.edge_signatures import (
            refine_candidates_edge_aware,
            subsumes_radius_one,
        )

        bitmap = result.bitmap
        config = self.config
        checking = contracts.enabled()
        cap = config.refinement_iterations
        edge = config.edge_signatures
        # The one depth the rule may stop at: the first that has pruned at
        # least as much as the node refine through radius 1.
        count_at = 2
        if edge and subsumes_radius_one(
            self.query, config.wildcard_label, config.wildcard_edge_label
        ):
            count_at = 1
        result.cap = cap
        result.stop_reason = STOP_CAP
        for iteration in range(1, cap + 1):
            radius = iteration - 1
            prev_words = bitmap.words.copy() if checking else None
            pairs = 0
            if radius > 0:
                q_counts, d_counts = self._signatures_at(radius)
                pairs = refine_candidates(bitmap, q_counts, d_counts, self.packing)
            if iteration == 1 and edge:
                pairs += refine_candidates_edge_aware(
                    bitmap,
                    self.query,
                    self.data,
                    self.n_labels,
                    wildcard_label=config.wildcard_label,
                    wildcard_edge_label=config.wildcard_edge_label,
                )
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
            stats = IterationStats(
                iteration=iteration,
                radius=radius,
                total_candidates=int(per_node.sum()),
                candidates_per_node=per_node,
            )
            result.iterations.append(stats)
            if not edge or iteration != count_at or iteration == cap:
                continue
            stats.live_candidates, viable = live_count(bitmap, self.query, self.data)
            if few_live(stats.live_candidates, self.data.n_nodes, pairs):
                if checking and iteration == 1:
                    self._check_subsumed(bitmap)
                result.stop_reason = STOP_FEW_LIVE
                result.viable = viable
                break
        if self._last_signatures is not None:
            result.query_signatures, result.data_signatures = self._last_signatures
        return result

    def _check_subsumed(self, bitmap: CandidateBitmap) -> None:
        """``REPRO_CHECK``: the radius-1 refine a depth-1 stop omits clears no bit.

        Runs it on a copy of the bitmap; the signatures go through the
        memo but not into the result, so checking stays observe-only.
        """
        probe = bitmap.copy()
        refine_candidates(
            probe,
            self._side_signatures_at("query", 1),
            self._side_signatures_at("data", 1),
            self.packing,
        )
        contracts.check_refine_clears_nothing(
            bitmap.words, probe.words, name="radius-1 refine after the edge pass"
        )

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
