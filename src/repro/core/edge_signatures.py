"""Edge-aware signature refinement (extension).

The paper's signatures count *node* labels in the neighborhood; bond
orders are only checked later, during the join ("edge labels are evaluated
to prevent invalid matches", section 3).  This extension moves part of
that check into the filter: at radius 1, each node also gets a histogram
over *(bond order, neighbor element)* pairs, and a data node must dominate
a query node on every pair.

Soundness: under any valid embedding ``f``, each query edge ``(q, u)``
with bond ``e`` maps to a data edge ``(f(q), f(u))`` with the same bond
and the same neighbor label, and ``f`` is injective on neighbors — so the
data node's ``(e, label)`` count is at least the query node's.  Wildcard
atoms/bonds contribute nothing (they can map to any pair).

The pair vocabulary (``n_edge_labels x n_labels``) exceeds what a single
64-bit masked word can hold, so this refinement uses saturated ``uint8``
count matrices directly — on a GPU it would be a small fixed number of
extra signature words per node.  Enabled via
``SigmoConfig(edge_signatures=True)``; the ablation bench measures what
the extra pruning buys.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import CandidateBitmap
from repro.core.csrgo import CSRGO
from repro.core.filtering import refine_dominated

#: Saturation cap for pair counts (molecular degree <= 6, so 15 is ample).
PAIR_COUNT_CAP = 15


def edge_pair_histograms(
    graph: CSRGO,
    n_labels: int,
    n_edge_labels: int,
    ignore_label: int | None = None,
    ignore_edge_label: int | None = None,
) -> np.ndarray:
    """Per-node histograms over (edge label, neighbor label) pairs.

    Fully vectorized: one pass over the adjacency arrays.

    Parameters
    ----------
    ignore_label / ignore_edge_label:
        Wildcard values whose incident pairs are skipped (query side).

    Returns
    -------
    numpy.ndarray
        ``int64[n_nodes, n_edge_labels * n_labels]``.
    """
    n = graph.n_nodes
    out = np.zeros((n, n_edge_labels * n_labels), dtype=np.int64)
    if graph.n_adjacency == 0:
        return out
    # Row index of every adjacency slot.
    slot_rows = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(graph.row_offsets)
    )
    neighbor_labels = graph.labels[graph.column_indices].astype(np.int64)
    edge_labels = graph.adj_edge_labels.astype(np.int64)
    keep = np.ones(slot_rows.size, dtype=bool)
    if ignore_label is not None:
        keep &= neighbor_labels != ignore_label
        keep &= graph.labels[slot_rows] != ignore_label
    if ignore_edge_label is not None:
        keep &= edge_labels != ignore_edge_label
    keep &= (neighbor_labels < n_labels) & (edge_labels < n_edge_labels)
    features = edge_labels[keep] * n_labels + neighbor_labels[keep]
    np.add.at(out, (slot_rows[keep], features), 1)
    return out


def refine_candidates_edge_aware(
    bitmap: CandidateBitmap,
    query: CSRGO,
    data: CSRGO,
    n_labels: int,
    wildcard_label: int | None = None,
    wildcard_edge_label: int | None = None,
) -> None:
    """One edge-aware refinement pass (radius 1), in place on the bitmap.

    Groups query nodes by pair-histogram and runs the same
    candidate-sparse domination kernel as ``refine_candidates``.
    """
    n_edge_labels = (
        int(
            max(
                query.adj_edge_labels.max() if query.n_adjacency else 0,
                data.adj_edge_labels.max() if data.n_adjacency else 0,
            )
        )
        + 1
    )
    q_hist = edge_pair_histograms(
        query,
        n_labels,
        n_edge_labels,
        ignore_label=wildcard_label,
        ignore_edge_label=wildcard_edge_label,
    )
    d_hist = edge_pair_histograms(data, n_labels, n_edge_labels)
    sat_q = np.minimum(q_hist, PAIR_COUNT_CAP).astype(np.uint8)
    sat_d = np.minimum(d_hist, PAIR_COUNT_CAP).astype(np.uint8)
    # Histograms are wider than one 64-bit key, so group by rows.
    unique_sigs, inverse = np.unique(sat_q, axis=0, return_inverse=True)
    refine_dominated(bitmap, unique_sigs, inverse.reshape(-1), sat_d)
