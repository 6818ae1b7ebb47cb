"""Neighborhood signatures and their masked 64-bit bitset encoding.

A node's *signature* at radius ``r`` counts, per label, the nodes within
distance ``r`` (excluding the node itself) — paper Alg. 1.  Two pieces live
here:

* :class:`SignatureState` — the batched, incremental signature computation.
  It keeps the BFS frontier of every node of the whole batch at once and
  advances all nodes by one ring per step, exactly like the paper's
  signature-refinement kernels cache the frontier between refinement
  iterations (section 4.4).  The frontier and visited sets are masked
  64-bit bitsets over each graph's local node ids, advanced with
  ``xp.scatter_or`` and counted with ``xp.popcount``; nothing loops per
  node in Python, and no sparse-matrix library is involved.

* :class:`SignaturePacking` — the masked-bitset encoding (section 4.2): a
  64-bit word is partitioned into per-label bit fields, wider fields for
  frequent labels (H, C) and narrower for rare ones, with *saturating*
  counts.  Saturation keeps filtering sound: a data node remains a valid
  candidate iff for every label ``sat(query count) <= sat(data count)``.

The filter kernel compares signatures in their saturated-count form (a
dense ``uint8`` matrix) because a broadcast ``>=`` over that layout is the
fastest CPU equivalent of the paper's per-field comparison; the packed
64-bit form is produced by the same class and the test suite proves the two
agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import xp
from repro.analysis.markers import kernel
from repro.core.csrgo import CSRGO

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SignaturePacking:
    """Bit-field layout of a packed 64-bit signature.

    Attributes
    ----------
    bits:
        ``bits[l]`` is the field width (in bits) of label ``l``.  The sum
        must not exceed 64 (the paper's single-integer constraint).
    shifts:
        Starting bit of each field, derived from ``bits``.
    """

    bits: np.ndarray
    shifts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        bits = xp.ascontiguousarray(self.bits, dtype=xp.int64)
        if bits.ndim != 1:
            raise ValueError("bits must be 1-D")
        if bits.size and bits.min() < 1:
            raise ValueError("every label needs at least 1 bit")
        if int(bits.sum()) > 64:
            raise ValueError(
                f"total bits {int(bits.sum())} exceed the 64-bit signature word"
            )
        object.__setattr__(self, "bits", bits)
        if bits.size:
            shifts = xp.concatenate(
                [xp.zeros(1, dtype=xp.int64), xp.cumsum(bits)[:-1]]
            )
        else:
            shifts = bits
        object.__setattr__(self, "shifts", shifts.astype(xp.int64))

    # -- construction ----------------------------------------------------------

    @classmethod
    def uniform(cls, n_labels: int, bits_per_label: int | None = None) -> "SignaturePacking":
        """Equal field widths; default spends all 64 bits evenly."""
        if n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        if bits_per_label is None:
            bits_per_label = max(1, 64 // n_labels)
        return cls(xp.full(n_labels, bits_per_label, dtype=xp.int64))

    @classmethod
    def from_frequencies(
        cls,
        frequencies: np.ndarray,
        total_bits: int = 64,
        min_bits: int = 2,
        max_bits: int = 8,
    ) -> "SignaturePacking":
        """Skew-aware allocation: frequent labels get wider fields.

        This is the paper's masking strategy (section 4.2): hydrogen and
        carbon counts routinely exceed what a narrow field can hold, while
        rare elements (e.g. Si) are fine with the minimum.  Fields are
        allocated proportionally to ``log2(1 + frequency)``, clipped to
        ``[min_bits, max_bits]``, then greedily trimmed/grown to fit
        ``total_bits``.
        """
        freqs = xp.ascontiguousarray(frequencies, dtype=xp.float64)
        if freqs.ndim != 1 or freqs.size == 0:
            raise ValueError("frequencies must be a non-empty 1-D array")
        if freqs.min() < 0:
            raise ValueError("frequencies must be non-negative")
        n = freqs.size
        if n * min_bits > total_bits:
            # Too many labels for the minimum width: shrink the floor.
            min_bits = max(1, total_bits // n)
            if n * min_bits > total_bits:
                raise ValueError(
                    f"{n} labels cannot fit in {total_bits} bits even at 1 bit each"
                )
        weight = xp.log2(1.0 + freqs)
        if weight.sum() == 0:
            weight = xp.ones(n, dtype=xp.float64)
        raw = weight / weight.sum() * total_bits
        bits = xp.clip(xp.round(raw).astype(xp.int64), min_bits, max_bits)
        # Greedy repair to satisfy the total budget exactly at the top end.
        while bits.sum() > total_bits:
            candidates = xp.nonzero(bits > min_bits)[0]
            victim = candidates[xp.argmin(freqs[candidates])]
            bits[victim] -= 1
        while bits.sum() + 1 <= total_bits and xp.any(bits < max_bits):
            candidates = xp.nonzero(bits < max_bits)[0]
            winner = candidates[xp.argmax(freqs[candidates])]
            bits[winner] += 1
        return cls(bits)

    # -- properties ---------------------------------------------------------------

    @property
    def n_labels(self) -> int:
        """Number of label fields."""
        return self.bits.size

    @property
    def capacities(self) -> np.ndarray:
        """Saturation cap per label: ``2**bits - 1`` (``uint64``).

        Computed with both shift operands unsigned: the signed form
        ``int64(1) << bits`` overflows silently when a single label
        owns all 64 bits, corrupting the saturation cap and every mask
        derived from it.
        """
        bits = self.bits.astype(xp.uint64)
        caps = (xp.uint64(1) << xp.minimum(bits, xp.uint64(63))) - xp.uint64(1)
        full = xp.uint64(0xFFFFFFFFFFFFFFFF)
        return xp.where(self.bits >= 64, full, caps)

    # -- encoding -------------------------------------------------------------------

    def saturate(self, counts: np.ndarray) -> np.ndarray:
        """Clip raw label counts to each field's capacity (``uint8`` output).

        ``counts`` has shape ``(..., n_labels)``.  ``uint8`` suffices because
        ``max_bits <= 8`` in every allocation this class produces.
        """
        counts = xp.asarray(counts)
        if counts.shape[-1] != self.n_labels:
            raise ValueError(
                f"counts last dim {counts.shape[-1]} != n_labels {self.n_labels}"
            )
        caps = xp.minimum(self.capacities, xp.uint64(255)).astype(xp.int64)
        return xp.minimum(counts, caps).astype(xp.uint8)

    def pack(self, counts: np.ndarray) -> np.ndarray:
        """Pack (saturating) label counts into 64-bit signature words.

        Parameters
        ----------
        counts:
            Integer array of shape ``(n_nodes, n_labels)`` (raw counts;
            saturation is applied here).

        Returns
        -------
        numpy.ndarray
            ``uint64[n_nodes]`` packed signatures.
        """
        sat = self.saturate(counts).astype(xp.uint64)
        shifts = self.shifts.astype(xp.uint64)
        return (sat << shifts).sum(axis=-1, dtype=xp.uint64)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Extract saturated per-label counts from packed words."""
        packed = xp.asarray(packed, dtype=xp.uint64)
        shifts = self.shifts.astype(xp.uint64)
        masks = self.capacities
        fields = (packed[..., None] >> shifts) & masks
        return fields.astype(xp.int64)

    def dominates(self, data_packed: np.ndarray, query_packed: np.ndarray) -> np.ndarray:
        """Per-field domination test on packed signatures.

        ``data`` dominates ``query`` iff every field of ``data`` is >= the
        corresponding field of ``query`` (paper section 3: the candidate
        validity condition).  Broadcasting applies: pass shapes
        ``(n_d,)`` and ``()`` or ``(n_d,)`` and ``(n_q, 1)`` etc.
        """
        d = self.unpack(xp.asarray(data_packed))
        q = self.unpack(xp.asarray(query_packed))
        return xp.all(d >= q, axis=-1)


#: Largest ``uint64`` word count of any one signature-BFS array.  A
#: batch's largest arrays are its label masks (``n_nodes x n_labels x W``
#: words, ``W`` words per node covering the largest graph) and the
#: neighbor gather of a step (``W`` words per adjacency slot); a batch
#: needing more raises :class:`SignatureCapacityError` at construction,
#: so no step allocates more.  2^24 words is 128 MB per array.
SIGNATURE_WORD_CAP = 1 << 24


class SignatureCapacityError(MemoryError):
    """A batch's bitset signature BFS would exceed :data:`SIGNATURE_WORD_CAP`."""


def _check_word_cap(what: str, need: int) -> None:
    if need > SIGNATURE_WORD_CAP:
        raise SignatureCapacityError(
            f"signature BFS {what}: {need} uint64 words is over "
            f"SIGNATURE_WORD_CAP = {SIGNATURE_WORD_CAP}; split the batch"
        )


class SignatureState:
    """Incremental batched signature computation over a CSR-GO batch.

    One instance tracks *all* nodes of a batch simultaneously.  After
    ``k`` calls to :meth:`step`, ``counts[v, l]`` equals the number of
    nodes with label ``l`` at distance ``1..k`` of ``v`` — the radius-``k``
    signature of Alg. 1.  The frontier is cached between steps, so step
    ``k`` only touches the ring ``R_k`` of newly discovered nodes, as in
    the paper's kernel implementation (section 4.4).

    The BFS state is two ``uint64`` bitsets per node, ``visited`` and
    ``frontier``, over the node's own graph's local ids: ``W = ceil(max
    graph nodes / 64)`` words per node, stored word-major (``[W, n]``).
    A step ORs the frontier rows of every node's neighbors into the
    node's row (``xp.scatter_or``; the graphs are undirected, so ``u`` is
    at distance ``k + 1`` of ``v`` iff it is at distance ``k`` of some
    neighbor of ``v`` and not closer), masks out ``visited``, and counts
    the ring with ``xp.popcount``, per label against the label masks of
    the node's graph.  Only :mod:`repro.xp` contract ops run, so every
    backend executes this same code.

    Parameters
    ----------
    graph:
        The batch in CSR-GO form.
    n_labels:
        Label-vocabulary size (shared between query and data batches).
    ignore_label:
        Optional label whose nodes contribute *nothing* to any signature —
        used for wildcard query atoms (a wildcard neighbor can map to any
        element, so it must not constrain the neighborhood histogram).
        Nodes with this label may exceed ``n_labels``.

    Raises
    ------
    SignatureCapacityError
        The label masks or the neighbor gather would exceed
        :data:`SIGNATURE_WORD_CAP` words.
    """

    def __init__(
        self, graph: CSRGO, n_labels: int, ignore_label: int | None = None
    ) -> None:
        if n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        labels = xp.asarray(graph.labels, dtype=xp.int64)
        counted = (
            xp.ones(labels.size, dtype=xp.bool_)
            if ignore_label is None
            else labels != ignore_label
        )
        bad = labels[counted]
        bad = bad[(bad < 0) | (bad >= n_labels)]
        if bad.size:
            raise ValueError(
                f"graph contains label {int(bad[0])} outside [0, {n_labels})"
            )
        self.graph = graph
        self.n_labels = n_labels
        self.ignore_label = ignore_label
        n = graph.n_nodes
        sizes = xp.diff(graph.graph_offsets)
        largest = int(sizes.max()) if sizes.size else 0
        words = max(1, (largest + 63) // 64)
        # Per-graph label masks are expanded to one copy per node.
        _check_word_cap("label masks", words * max(n, sizes.size) * n_labels)
        _check_word_cap("neighbor gather", words * graph.column_indices.size)

        owner = xp.repeat(xp.arange(sizes.size, dtype=xp.int64), sizes)
        local = xp.arange(n, dtype=xp.int64) - graph.graph_offsets[owner]
        word, bit = xp.divmod_(local, 64)
        flat = word * n + xp.arange(n, dtype=xp.int64)  # (word, node) cell
        bits = xp.uint64(1) << xp.astype(bit, xp.uint64)
        src = xp.repeat(xp.arange(n, dtype=xp.int64), xp.diff(graph.row_offsets))
        dst = xp.asarray(graph.column_indices, dtype=xp.int64)
        if xp.any(owner[src] != owner[dst]):
            raise ValueError("an edge joins two graphs of the batch")
        # (word, node) cells of every adjacency slot's source and target,
        # so a step is one gather and one scatter over all words at once.
        word_base = xp.arange(words, dtype=xp.int64)[:, None] * n
        self._slot_src = (word_base + src).reshape(-1)
        self._slot_dst = (word_base + dst).reshape(-1)

        visited = xp.zeros((words, n), dtype=xp.uint64)
        visited.reshape(-1)[flat] = bits
        self._visited = visited
        self._frontier = visited.copy()
        self._frontier_count = n
        # label_masks[g, l]: bit i set iff local node i of graph g has
        # label l and is counted (not the ignored wildcard); expanded to
        # one copy per node, [W, n, n_labels], so a step gathers nothing.
        graph_masks = xp.zeros((words, sizes.size, n_labels), dtype=xp.uint64)
        rows = xp.flatnonzero(counted)
        xp.scatter_or(
            graph_masks.reshape(-1),
            (word[rows] * sizes.size + owner[rows]) * n_labels + labels[rows],
            bits[rows],
        )
        self._label_masks = graph_masks[:, owner, :]

        self.counts = xp.zeros((n, n_labels), dtype=xp.int64)
        self.radius = 0
        #: nodes discovered at the latest step (|R_k| per node); useful for
        #: convergence detection and for the device simulator's work model.
        self.last_ring_sizes = xp.ones(n, dtype=xp.int64)

    @property
    def converged(self) -> bool:
        """True once no node discovered anything at the last step."""
        return self.radius > 0 and self._frontier_count == 0

    @kernel(writes=("self",))
    def step(self) -> np.ndarray:
        """Advance every node's view by one ring; return the new counts.

        Computes ``R_{k+1}(v) = N(R_k(v)) \\ visited(v)`` for all ``v`` at
        once, then adds the ring's per-label sizes to :attr:`counts`.
        """
        expanded = xp.zeros(self._frontier.shape, dtype=xp.uint64)
        xp.scatter_or(
            expanded.reshape(-1),
            self._slot_src,
            self._frontier.reshape(-1)[self._slot_dst],
        )
        ring = expanded & ~self._visited
        self._visited |= ring
        self._frontier = ring
        ring_sizes = xp.sum(xp.popcount(ring), axis=0, dtype=xp.int64)
        self._frontier_count = int(ring_sizes.sum())
        self.radius += 1
        self.last_ring_sizes = ring_sizes
        if self._frontier_count:
            hits = xp.popcount(ring[:, :, None] & self._label_masks)
            self.counts += xp.sum(hits, axis=0, dtype=xp.int64)
        return self.counts

    def run_to(self, radius: int) -> np.ndarray:
        """Advance until the given radius (no-op if already there)."""
        if radius < self.radius:
            raise ValueError(
                f"cannot rewind signatures from radius {self.radius} to {radius}"
            )
        while self.radius < radius and not self.converged:
            self.step()
        # If BFS converged early the counts at any larger radius are equal.
        self.radius = max(self.radius, radius)
        return self.counts

    def reachable_counts(self) -> np.ndarray:
        """Nodes within the current radius of each node (excluding self)."""
        return xp.sum(xp.popcount(self._visited), axis=0, dtype=xp.int64) - 1


def reference_signatures(graph: CSRGO, radius: int, n_labels: int) -> np.ndarray:
    """Slow per-node reference for tests: BFS from every node.

    Semantically identical to ``SignatureState.run_to(radius).counts``.
    """
    from collections import deque

    n = graph.n_nodes
    out = xp.zeros((n, n_labels), dtype=xp.int64)
    for v in range(n):
        dist = {v: 0}
        queue = deque([v])
        while queue:
            w = queue.popleft()
            if dist[w] >= radius:
                continue
            for u in graph.neighbors(w):
                u = int(u)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    queue.append(u)
        for u, d in dist.items():
            if d > 0:
                out[v, graph.labels[u]] += 1
    return out
