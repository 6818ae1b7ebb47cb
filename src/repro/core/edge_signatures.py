"""Edge-aware signature refinement (extension, on by default).

The paper's signatures count *node* labels in the neighborhood; bond
orders are only checked later, during the join ("edge labels are evaluated
to prevent invalid matches", section 3).  This extension moves part of
that check into the filter: at radius 1, each node also gets a histogram
over *(bond order, neighbor element)* pairs, and a data node must dominate
a query node on every pair.

Soundness: under any valid embedding ``f``, each query edge ``(q, u)``
with bond ``e`` maps to a data edge ``(f(q), f(u))`` with the same bond
and the same neighbor label, and ``f`` is injective on neighbors — so the
data node's ``(e, label)`` count is at least the query node's.  A
wildcard neighbour or bond contributes nothing (it can map to any
pair).  Each test depends only on the two nodes' histograms, so the pass
commutes with the node-label iterations: :class:`~repro.core.filtering.IterativeFilter`
runs it at the end of iteration 1, right after the label seeding.

Subsumption: when no query atom or bond is a wildcard and no query node
has more than :data:`PAIR_COUNT_CAP` neighbours, the query pair counts
are exact and, per neighbour label, sum over bonds to the node's radius-1
label counts; a data node that dominates every pair count therefore
dominates every radius-1 label count.  The radius-1 node refine then
clears nothing after the pass, so the filter may stop right after it
(:func:`subsumes_radius_one`).

Layout: only the *used* pair columns — those nonzero in some query row —
are kept.  A data node passes every other column trivially, so dropping
them is sound and keeps the histograms narrow.  Query rows are grouped by
their saturated 4-bit counts (:data:`PAIR_COUNT_CAP`) packed
:data:`COUNTS_PER_KEY` per ``uint64`` key, one 1-D ``unique`` per key;
the groups are memoized per query batch.  The domination test itself is
:func:`~repro.core.filtering.refine_dominated`, the node refine's kernel.
``SigmoConfig(edge_signatures=False)`` restores the paper's node-only
filter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import xp
from repro.accel.memo import frozen_array, signature_memo
from repro.analysis.markers import kernel
from repro.core.candidates import CandidateBitmap
from repro.core.csrgo import CSRGO
from repro.core.filtering import refine_dominated
from repro.obs.trace import get_tracer

if TYPE_CHECKING:
    import numpy as np

#: Saturation cap for pair counts (molecular degree <= 6, so 15 is ample).
PAIR_COUNT_CAP = 15

#: Saturated counts per ``uint64`` grouping key (4 bits each).
COUNTS_PER_KEY = 16


@kernel(writes=())
def pair_slots(
    graph: CSRGO,
    n_labels: int,
    n_edge_labels: int,
    ignore_label: int | None = None,
    ignore_edge_label: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, feature)`` of every counted adjacency slot.

    ``feature = edge_label * n_labels + neighbor_label``.  Slots to an
    ``ignore_label`` neighbour or over an ``ignore_edge_label`` bond (query
    wildcards) and labels outside the vocabulary are skipped; a wildcard
    node's own slots still count, since its neighbours constrain it.
    """
    rows = xp.repeat(
        xp.arange(graph.n_nodes, dtype=xp.int64), xp.diff(graph.row_offsets)
    )
    neighbor_labels = graph.labels[graph.column_indices].astype(xp.int64)
    edge_labels = graph.adj_edge_labels.astype(xp.int64)
    keep = (neighbor_labels < n_labels) & (edge_labels < n_edge_labels)
    if ignore_label is not None:
        keep &= neighbor_labels != ignore_label
    if ignore_edge_label is not None:
        keep &= edge_labels != ignore_edge_label
    return rows[keep], edge_labels[keep] * n_labels + neighbor_labels[keep]


@kernel(writes=())
def pair_counts(
    rows: np.ndarray, columns: np.ndarray, n_rows: int, n_columns: int
) -> np.ndarray:
    """``int64[n_rows, n_columns]`` slot counts per (row, column) key."""
    flat = rows * n_columns + columns
    return xp.bincount(flat, minlength=n_rows * n_columns).reshape(
        n_rows, n_columns
    )


def edge_pair_histograms(
    graph: CSRGO,
    n_labels: int,
    n_edge_labels: int,
    ignore_label: int | None = None,
    ignore_edge_label: int | None = None,
) -> np.ndarray:
    """Per-node histograms over every (edge label, neighbor label) pair.

    The full-width reference layout; the refine pass keeps only the
    columns some query row uses.

    Returns
    -------
    numpy.ndarray
        ``int64[n_nodes, n_edge_labels * n_labels]``.
    """
    rows, features = pair_slots(
        graph, n_labels, n_edge_labels, ignore_label, ignore_edge_label
    )
    return pair_counts(rows, features, graph.n_nodes, n_edge_labels * n_labels)


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
def group_count_rows(sat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group identical rows of saturated 4-bit counts.

    Returns ``(first, inverse)`` as ``np.unique(sat, axis=0,
    return_index=True, return_inverse=True)`` would, up to the order of
    the groups.  Rows are packed :data:`COUNTS_PER_KEY` counts per
    ``uint64`` key (injective on counts ``<= PAIR_COUNT_CAP``); the first
    key is grouped by one 1-D ``unique``, and each further key is folded
    in by combining the group ids as ``prev * n_rows + next`` and
    re-grouping.
    """
    keys = pack_columns(sat, COUNTS_PER_KEY, 4)
    if keys.shape[0] == 0:
        keys = xp.zeros((1, sat.shape[0]), dtype=xp.uint64)
    _, first, inverse = xp.unique(keys[0], return_index=True, return_inverse=True)
    stride = xp.checked_flat_stride(sat.shape[0])
    for key in keys[1:]:
        _, nxt = xp.unique(key, return_inverse=True)
        _, first, inverse = xp.unique(
            inverse * stride + nxt, return_index=True, return_inverse=True
        )
    return first, inverse


@kernel(writes=())
def saturate_pairs(counts: np.ndarray) -> np.ndarray:
    """Pair counts clamped at :data:`PAIR_COUNT_CAP`, as ``uint8``."""
    return xp.minimum(counts, PAIR_COUNT_CAP).astype(xp.uint8)


def query_pair_groups(
    query: CSRGO,
    n_labels: int,
    n_edge_labels: int,
    wildcard_label: int | None = None,
    wildcard_edge_label: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The query side of the pass: ``(group_sigs, inverse, columns)``.

    ``columns`` are the sorted pair features some query row counts;
    ``group_sigs[inverse]`` are the rows' saturated counts over them.
    The query side is fixed for a session, so the triple is memoized in
    :func:`~repro.accel.memo.signature_memo` under the active backend,
    the batch content hash, both vocabulary sizes and the wildcards;
    returned arrays are frozen.
    """
    key = (
        "edge-groups",
        xp.backend_name(),
        query.content_hash(),
        n_labels,
        n_edge_labels,
        wildcard_label,
        wildcard_edge_label,
    )
    memo = signature_memo()
    cached = memo.get(key)
    if cached is not None:
        return cached
    rows, features = pair_slots(
        query, n_labels, n_edge_labels, wildcard_label, wildcard_edge_label
    )
    columns = xp.unique(features)
    sat = saturate_pairs(
        pair_counts(
            rows,
            xp.searchsorted(columns, features),
            query.n_nodes,
            int(columns.shape[0]),
        )
    )
    first, inverse = group_count_rows(sat)
    groups = tuple(frozen_array(arr) for arr in (sat[first], inverse, columns))
    memo.put(key, groups)
    return groups


@kernel(writes=())
def data_pair_counts(
    data: CSRGO, n_labels: int, n_edge_labels: int, columns: np.ndarray
) -> np.ndarray:
    """Saturated ``uint8[n_nodes, len(columns)]`` data-side counts.

    Slots whose feature is not in ``columns`` are dropped before
    counting, so the histogram is only as wide as the query side needs.
    """
    rows, features = pair_slots(data, n_labels, n_edge_labels)
    n_columns = int(columns.shape[0])
    column_of = xp.full(n_edge_labels * n_labels, -1, dtype=xp.int64)
    column_of[columns] = xp.arange(n_columns, dtype=xp.int64)
    at = column_of[features]
    hit = at >= 0
    return saturate_pairs(pair_counts(rows[hit], at[hit], data.n_nodes, n_columns))


def subsumes_radius_one(
    query: CSRGO,
    wildcard_label: int | None = None,
    wildcard_edge_label: int | None = None,
) -> bool:
    """Whether the pass clears every bit the radius-1 node refine clears.

    True when the query batch has no wildcard atom, no wildcard bond, and
    no node of degree above :data:`PAIR_COUNT_CAP` (see the module notes).
    """
    degrees = xp.diff(query.row_offsets)
    if degrees.shape[0] and int(degrees.max()) > PAIR_COUNT_CAP:
        return False
    if wildcard_label is not None and bool(xp.any(query.labels == wildcard_label)):
        return False
    return wildcard_edge_label is None or not bool(
        xp.any(query.adj_edge_labels == wildcard_edge_label)
    )


def refine_candidates_edge_aware(
    bitmap: CandidateBitmap,
    query: CSRGO,
    data: CSRGO,
    n_labels: int,
    wildcard_label: int | None = None,
    wildcard_edge_label: int | None = None,
) -> int:
    """One edge-aware refinement pass (radius 1), in place on the bitmap.

    Runs :func:`~repro.core.filtering.refine_dominated`, the
    threshold-bitset kernel of ``refine_candidates``, on the used columns
    of the pair histograms, under a ``kernel:refine_edge_aware`` span.  A
    batch whose query rows count no pair at all leaves the bitmap
    untouched.  Returns the kernel's candidate-union bits (0 when it did
    not run).
    """
    if bitmap.n_query_nodes == 0 or bitmap.n_data_nodes == 0:
        return 0
    n_edge_labels = (
        int(
            max(
                query.adj_edge_labels.max() if query.n_adjacency else 0,
                data.adj_edge_labels.max() if data.n_adjacency else 0,
            )
        )
        + 1
    )
    with get_tracer().span(
        "kernel:refine_edge_aware", category="kernel", work_items=data.n_nodes
    ) as sp:
        group_sigs, inverse, columns = query_pair_groups(
            query, n_labels, n_edge_labels, wildcard_label, wildcard_edge_label
        )
        sp.set(signature_groups=int(group_sigs.shape[0]), columns=int(columns.shape[0]))
        if columns.shape[0] == 0:
            return 0
        sat_d = data_pair_counts(data, n_labels, n_edge_labels, columns)
        union_bits = refine_dominated(bitmap, group_sigs, inverse, sat_d)
        sp.set(union_bits=union_bits)
    return union_bits
