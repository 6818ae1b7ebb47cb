"""Candidate bitmaps (paper section 4.3).

The candidate set of every query node is one row of a word-packed bitmap:
bit ``j`` of row ``i`` says whether data node ``j`` is still a candidate
for query node ``i``.  Rows are contiguous (row-major) so that refining one
query node touches one cache-friendly stripe — the layout the paper uses to
get coalesced GPU accesses (Fig. 4).

At peak the bitmap is the pipeline's dominant allocation
(``|V_Q| * |V_D| / 8`` bytes, ~80 % of SIGMo's footprint, section 5.1.3),
so the class also reports its byte size for the memory-accounting
experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import xp
from repro.analysis.markers import kernel
from repro.utils.bitops import (
    WORD_BITS,
    bitmap_words,
    pack_bool_rows,
    ragged_at,
    row_popcount,
    unpack_bitmap_rows,
    word_dtype,
)

if TYPE_CHECKING:
    import numpy as np


class CandidateBitmap:
    """Word-packed candidate matrix: query nodes x data nodes.

    Parameters
    ----------
    n_query_nodes:
        Number of rows (total query nodes across the query batch).
    n_data_nodes:
        Number of bit columns (total data nodes across the data batch).
    word_bits:
        Bitmap word width; the paper tunes 32 vs 64 per device (Table 1).
    """

    __slots__ = ("n_query_nodes", "n_data_nodes", "word_bits", "words")

    def __init__(
        self, n_query_nodes: int, n_data_nodes: int, word_bits: int = WORD_BITS
    ) -> None:
        if n_query_nodes < 0 or n_data_nodes < 0:
            raise ValueError("bitmap dimensions must be non-negative")
        self.n_query_nodes = int(n_query_nodes)
        self.n_data_nodes = int(n_data_nodes)
        self.word_bits = int(word_bits)
        n_words = bitmap_words(self.n_data_nodes, self.word_bits)
        self.words = xp.zeros(
            (self.n_query_nodes, n_words), dtype=word_dtype(self.word_bits)
        )

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_bool(cls, rows: np.ndarray, word_bits: int = WORD_BITS) -> "CandidateBitmap":
        """Build from a dense boolean matrix."""
        rows = xp.asarray(rows, dtype=xp.bool_)
        bitmap = cls(rows.shape[0], rows.shape[1], word_bits)
        bitmap.words[:] = pack_bool_rows(rows, word_bits)
        return bitmap

    def copy(self) -> "CandidateBitmap":
        """Deep copy (used to keep the previous iteration's candidates)."""
        out = CandidateBitmap(self.n_query_nodes, self.n_data_nodes, self.word_bits)
        out.words[:] = self.words
        return out

    # -- bit access -----------------------------------------------------------------

    def test(self, query_node: int, data_node: int) -> bool:
        """Whether ``data_node`` is a candidate for ``query_node``."""
        self._check_bit(query_node, data_node)
        word = int(self.words[query_node, data_node // self.word_bits])
        return bool((word >> (data_node % self.word_bits)) & 1)

    def set_row_bool(self, query_node: int, values: np.ndarray) -> None:
        """Overwrite one row from a boolean vector of length n_data_nodes."""
        values = xp.asarray(values, dtype=xp.bool_)
        if values.shape != (self.n_data_nodes,):
            raise ValueError(
                f"expected shape ({self.n_data_nodes},), got {values.shape}"
            )
        self.words[query_node] = pack_bool_rows(values[None, :], self.word_bits)[0]

    def and_row_bool(self, query_node: int, values: np.ndarray) -> None:
        """AND one row with a boolean vector (monotone refinement step)."""
        values = xp.asarray(values, dtype=xp.bool_)
        if values.shape != (self.n_data_nodes,):
            raise ValueError(
                f"expected shape ({self.n_data_nodes},), got {values.shape}"
            )
        self.words[query_node] &= pack_bool_rows(values[None, :], self.word_bits)[0]

    def row_bool(self, query_node: int) -> np.ndarray:
        """One row as a boolean vector."""
        return unpack_bitmap_rows(
            self.words[query_node : query_node + 1], self.n_data_nodes, self.word_bits
        )[0]

    def to_bool(self) -> np.ndarray:
        """Whole bitmap as a dense boolean matrix (tests / small batches)."""
        return unpack_bitmap_rows(self.words, self.n_data_nodes, self.word_bits)

    def candidates_of(
        self, query_node: int, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Data-node ids that are candidates for ``query_node``.

        ``start``/``stop`` restrict to a global-id window; only the words
        that window covers are read.
        """
        n = self.n_data_nodes
        lo = min(max(start, 0), n)
        hi = min(max(n if stop is None else stop, lo), n)
        window = xp.asarray([lo, hi], dtype=xp.int64)
        row = xp.full(1, query_node, dtype=xp.int64)
        return segment_ids(self, window, row, xp.zeros(1, dtype=xp.int64))[0]

    # -- aggregate views ----------------------------------------------------------------

    def row_counts(self) -> np.ndarray:
        """Candidate-set size per query node (Fig. 5's box-plot data)."""
        return row_popcount(self.words)

    def total_candidates(self) -> int:
        """Total candidates across all query nodes (Fig. 5's line)."""
        return int(self.row_counts().sum())

    def counts_per_segment(self, segment_offsets: np.ndarray) -> np.ndarray:
        """Candidates per (query node, data graph) segment.

        Parameters
        ----------
        segment_offsets:
            Data-graph node offsets (CSR-GO ``graph_offsets``), length
            ``n_graphs + 1``.

        Returns
        -------
        numpy.ndarray
            ``int64[n_query_nodes, n_graphs]`` — how many candidates each
            query node retains inside each data graph.  This is the input
            of the GMCR mapping phase: a query graph maps to a data graph
            only when every one of its nodes has a nonzero entry.
        """
        return segment_counts(self, segment_offsets)

    def nbytes(self) -> int:
        """Bitmap storage in bytes (the paper's |V_Q| x |V_D| / 8 figure)."""
        return int(self.words.nbytes)

    # -- internals ------------------------------------------------------------------------

    def _check_bit(self, query_node: int, data_node: int) -> None:
        if not 0 <= query_node < self.n_query_nodes:
            raise IndexError(f"query node {query_node} out of range")
        if not 0 <= data_node < self.n_data_nodes:
            raise IndexError(f"data node {data_node} out of range")

    def __repr__(self) -> str:
        return (
            f"CandidateBitmap({self.n_query_nodes}x{self.n_data_nodes}, "
            f"word_bits={self.word_bits}, set={self.total_candidates()})"
        )


def _low_bits(n_bits: np.ndarray, word_bits: int) -> np.ndarray:
    """Words whose low ``n_bits`` bits are set: none for ``n_bits <= 0``,
    all for ``n_bits >= word_bits``."""
    dtype = word_dtype(word_bits)
    one = xp.ones((), dtype=dtype)
    shift = xp.where((n_bits > 0) & (n_bits < word_bits), n_bits, 0).astype(dtype)
    low = xp.left_shift(one, shift) - one
    return xp.where(n_bits >= word_bits, ~xp.zeros((), dtype=dtype), low)


@kernel(writes=())
def segment_counts(
    bitmap: CandidateBitmap,
    graph_offsets: np.ndarray,
    rows: np.ndarray | None = None,
    graphs: np.ndarray | None = None,
) -> np.ndarray:
    """Set bits of bitmap rows inside data-graph node ranges.

    Segment ``(q, g)`` is row ``q`` restricted to ``[graph_offsets[g],
    graph_offsets[g + 1])``.  With ``rows`` and ``graphs`` omitted the
    result is the whole ``int64[n_query_nodes, n_graphs]`` matrix (the
    mapping phase's counting pass); otherwise it is the count of each
    ``(rows[i], graphs[i])`` point, ``rows`` and ``graphs`` broadcast
    against each other (the join's list sizes).

    One ``popcount`` and a per-row word ``cumsum`` give the set bits
    before every word; a segment bound inside a word adds the
    ``popcount`` of that word masked to its low bits, so the count of a
    segment is the difference of its two bounds' prefixes and zero-node
    graphs count zero by construction.  The bitmap is never unpacked.
    """
    offsets = xp.asarray(graph_offsets, dtype=xp.int64)
    words = bitmap.words
    n_words = words.shape[1]
    bits = bitmap.word_bits
    before = xp.zeros((words.shape[0], n_words + 1), dtype=xp.int64)
    before[:, 1:] = xp.cumsum(xp.popcount(words), axis=1, dtype=xp.int64)
    # Per graph boundary: its word, and the mask of that word's bits below it.
    word = offsets // bits
    edge = xp.minimum(word, n_words - 1)
    mask = _low_bits(offsets - word * bits, bits)

    def bits_before(rows, bound) -> np.ndarray:
        """Set bits of ``rows`` before graph boundary ``bound``, elementwise."""
        prefix = before[rows, word[bound]]
        if n_words == 0:  # no data nodes: nothing is set
            return prefix
        partial = xp.popcount(words[rows, edge[bound]] & mask[bound])
        return prefix + partial.astype(xp.int64)

    if rows is None:
        # Every row at every graph boundary: column gathers, then one diff.
        return xp.diff(bits_before(slice(None), slice(None)), axis=1)
    rows = xp.asarray(rows, dtype=xp.int64)
    graphs = xp.asarray(graphs, dtype=xp.int64)
    return bits_before(rows, graphs + 1) - bits_before(rows, graphs)


@kernel(writes=())
def segment_ids(
    bitmap: CandidateBitmap,
    graph_offsets: np.ndarray,
    rows: np.ndarray,
    graphs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted global data-node ids of the ``(rows[i], graphs[i])`` segments.

    Returns ``(ids, offsets)``: segment ``i``'s candidates are
    ``ids[offsets[i] : offsets[i + 1]]``, ascending, segment after
    segment in request order.  Only the words the segments cover are
    read: each is masked to its segment's bit range and only the nonzero
    ones are unpacked.
    """
    offsets = xp.asarray(graph_offsets, dtype=xp.int64)
    rows = xp.asarray(rows, dtype=xp.int64).ravel()
    graphs = xp.asarray(graphs, dtype=xp.int64).ravel()
    bits = bitmap.word_bits
    start, stop = offsets[graphs], offsets[graphs + 1]
    first = start // bits
    n_words = xp.where(stop > start, (stop - 1) // bits + 1 - first, 0)
    column = ragged_at(first, n_words)
    segment = xp.repeat(xp.arange(rows.size, dtype=xp.int64), n_words)
    base = column * bits
    mask = _low_bits(stop[segment] - base, bits) & ~_low_bits(start[segment] - base, bits)
    words = bitmap.words[rows[segment], column] & mask
    # Segment offsets from the words' popcounts; ids from the nonzero words.
    ends = xp.zeros(words.size + 1, dtype=xp.int64)
    ends[1:] = xp.cumsum(xp.popcount(words), dtype=xp.int64)
    first_word = xp.zeros(rows.size + 1, dtype=xp.int64)
    first_word[1:] = xp.cumsum(n_words)
    hit = xp.flatnonzero(words)
    word, bit = xp.divmod_(
        xp.flatnonzero(xp.unpack_bits(words[hit], hit.size * bits, bits)), bits
    )
    return base[hit[word]] + bit, ends[first_word]
