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
    bit_positions,
    bitmap_words,
    pack_bool_rows,
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

        ``start``/``stop`` restrict to a global-id window — the join uses
        this to pull only the candidates inside one data graph.
        """
        stop = self.n_data_nodes if stop is None else stop
        positions = bit_positions(self.words[query_node], self.word_bits)
        lo = xp.searchsorted(positions, start)
        hi = xp.searchsorted(positions, stop)
        return positions[lo:hi]

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
        segment_offsets = xp.asarray(segment_offsets, dtype=xp.int64)
        dense = self.to_bool()
        # Segment sums via prefix sums along data-node axis: O(nq * nd).
        csums = xp.concatenate(
            [
                xp.zeros((self.n_query_nodes, 1), dtype=xp.int64),
                xp.cumsum(dense, axis=1, dtype=xp.int64),
            ],
            axis=1,
        )
        return csums[:, segment_offsets[1:]] - csums[:, segment_offsets[:-1]]

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


#: Transient byte budget of one unpacked row chunk in
#: :func:`build_candidate_index` (the bool rows plus the unpacked bytes).
INDEX_CHUNK_BYTES = 4 << 20


class CandidateIndex:
    """Every query node's candidates as sorted global ids, cut per data graph.

    The join's view of a :class:`CandidateBitmap`: ``positions`` holds the
    set bits of every row, row after row, ascending within a row, and
    ``cuts[q, g]`` is the offset in ``positions`` where query node ``q``'s
    candidates inside data graph ``g`` start (``cuts[q, g + 1]`` where they
    end).  One (query node, data graph) candidate list is then the slice
    ``positions[cuts[q, g] : cuts[q, g + 1]]``, and its size a difference
    of two ``cuts`` entries — for any number of (node, graph) pairs at once.
    """

    __slots__ = ("positions", "cuts")

    def __init__(self, positions: np.ndarray, cuts: np.ndarray) -> None:
        self.positions = positions
        self.cuts = cuts

    def sizes(self, query_nodes: np.ndarray, graphs: np.ndarray) -> np.ndarray:
        """Candidate counts of (query node, data graph) pairs, elementwise."""
        return self.cuts[query_nodes, graphs + 1] - self.cuts[query_nodes, graphs]

    def lists(self, query_nodes: np.ndarray, graph: int) -> list[np.ndarray]:
        """Candidate arrays (global ids) of ``query_nodes`` in one data graph."""
        lo = self.cuts[query_nodes, graph].tolist()
        hi = self.cuts[query_nodes, graph + 1].tolist()
        return [self.positions[a:b] for a, b in zip(lo, hi)]



def build_candidate_index(
    bitmap: CandidateBitmap, graph_offsets: np.ndarray
) -> CandidateIndex:
    """Index ``bitmap``, unpacking it in row chunks of about
    :data:`INDEX_CHUNK_BYTES`.

    ``graph_offsets`` are the data batch's CSR-GO graph offsets.
    """
    graph_offsets = xp.asarray(graph_offsets, dtype=xp.int64)
    n_rows, n_bits = bitmap.n_query_nodes, bitmap.n_data_nodes
    row_start = xp.zeros(n_rows + 1, dtype=xp.int64)
    row_start[1:] = xp.cumsum(bitmap.row_counts())
    positions = xp.empty(int(row_start[-1]), dtype=xp.int64)
    cuts = xp.zeros((n_rows, graph_offsets.size), dtype=xp.int64)
    row_bytes = 2 * bitmap.words.shape[1] * bitmap.word_bits
    step = max(1, INDEX_CHUNK_BYTES // max(row_bytes, 1))
    # Without data nodes every row is empty and the zero cuts stand.
    for lo in range(0, n_rows if n_bits else 0, step):
        hi = min(n_rows, lo + step)
        base, stop = int(row_start[lo]), int(row_start[hi])
        _index_rows(
            bitmap.words[lo:hi],
            n_bits,
            bitmap.word_bits,
            graph_offsets,
            base,
            positions[base:stop],
            cuts[lo:hi],
        )
    return CandidateIndex(positions, cuts)


@kernel(writes=("positions", "cuts"))
def _index_rows(
    words: np.ndarray,
    n_bits: int,
    word_bits: int,
    graph_offsets: np.ndarray,
    base: int,
    positions: np.ndarray,
    cuts: np.ndarray,
) -> None:
    """Set-bit columns and per-graph cut offsets of one bitmap row chunk.

    ``base`` is the chunk's first offset in the whole index.  A row-major
    ``flatnonzero`` of the unpacked chunk yields ``row * n_bits + column``
    keys ascending, so one ``searchsorted`` of every (row, graph start)
    key cuts all rows at every data-graph boundary.
    """
    keys = xp.flatnonzero(unpack_bitmap_rows(words, n_bits, word_bits))
    bounds = (
        xp.arange(words.shape[0], dtype=xp.int64)[:, None] * n_bits
        + graph_offsets[None, :]
    )
    cuts[:] = base + xp.searchsorted(keys, bounds.ravel()).reshape(cuts.shape)
    positions[:] = keys % n_bits
