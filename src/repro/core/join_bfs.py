"""BFS (level-synchronous) join — the alternative the paper rejected.

Section 4.6: "we considered both Depth-First Search (DFS) and Breadth-First
Search (BFS) traversal strategies.  While BFS generates multiple partial
matches at each level — leading to an exponential increase in memory usage —
DFS constructs only a single partial match per step, enabling more efficient
memory usage."

This module implements the BFS variant so the trade-off can be measured:
per (data graph, query graph) pair, every level materializes the whole
table of partial matches.  Results are identical to the stack-DFS join
(asserted in tests); the difference is the peak partial-match memory,
which the driver tracks and reports — the quantity behind the paper's
design decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.local_view import LocalCSRView
from repro.core.candidates import CandidateBitmap, build_candidate_index
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import QueryPlan, build_plan_table
from repro.core.mapping import GMCR


@dataclass
class BfsJoinResult:
    """Output of the BFS join.

    Attributes
    ----------
    total_matches:
        Embeddings found (identical to the DFS join's).
    peak_partial_matches:
        Largest partial-match table (rows) materialized at any level —
        the memory the DFS design avoids.
    peak_partial_bytes:
        Same in bytes (8 bytes per mapped node).
    pair_matches:
        Embeddings per GMCR pair.
    """

    total_matches: int = 0
    peak_partial_matches: int = 0
    peak_partial_bytes: int = 0
    pair_matches: np.ndarray | None = None


def bfs_join_pair(
    view: LocalCSRView,
    plan: QueryPlan,
    cand_lists: list[np.ndarray],
) -> tuple[int, int]:
    """Join one pair by expanding full partial-match tables per level.

    Returns
    -------
    (n_matches, peak_rows):
        Embedding count and the largest table materialized.
    """
    depth_count = plan.n_nodes
    table = np.asarray(cand_lists[0], dtype=np.int64)[:, None]
    peak_rows = table.shape[0]
    edge_label_of = view.edge_label_of
    width = view.width
    for depth in range(1, depth_count):
        if table.shape[0] == 0:
            return 0, peak_rows
        cands = np.asarray(cand_lists[depth], dtype=np.int64)
        n_rows, n_cand = table.shape[0], cands.size
        if n_cand == 0:
            return 0, peak_rows
        expanded = np.repeat(table, n_cand, axis=0)
        new_col = np.tile(cands, n_rows)
        keep = np.ones(expanded.shape[0], dtype=bool)
        for col in range(depth):
            keep &= expanded[:, col] != new_col
        for earlier_depth, elab in plan.check_edges[depth]:
            prev = expanded[:, earlier_depth]
            ok = np.fromiter(
                (
                    (
                        (lbl := edge_label_of.get(int(c) * width + int(p), -2))
                        == elab
                    )
                    or (elab == -1 and lbl != -2)
                    for c, p in zip(new_col, prev)
                ),
                dtype=bool,
                count=new_col.size,
            )
            keep &= ok
        table = np.concatenate([expanded[keep], new_col[keep][:, None]], axis=1)
        peak_rows = max(peak_rows, expanded.shape[0], table.shape[0])
    return int(table.shape[0]), peak_rows


def run_bfs_join(
    query: CSRGO,
    data: CSRGO,
    bitmap: CandidateBitmap,
    gmcr: GMCR,
    config: SigmoConfig | None = None,
) -> BfsJoinResult:
    """Drive the BFS join over every GMCR pair (Find All only).

    Mirrors :func:`repro.core.join.run_join`'s structure so the two are
    directly comparable.
    """
    config = config or SigmoConfig()
    result = BfsJoinResult(pair_matches=np.zeros(gmcr.n_pairs, dtype=np.int64))
    counts = bitmap.row_counts()
    plans = build_plan_table(
        query, counts, config.candidate_order, config.wildcard_edge_label
    )
    index = build_candidate_index(bitmap, data.graph_offsets)
    for d in range(gmcr.n_data_graphs):
        lo, hi = int(gmcr.data_graph_offsets[d]), int(
            gmcr.data_graph_offsets[d + 1]
        )
        if lo == hi:
            continue
        d_start, _ = data.graph_node_range(d)
        view = LocalCSRView(data, d)
        for pair_idx in range(lo, hi):
            qg = int(gmcr.query_graph_indices[pair_idx])
            plan = plans[qg]
            nodes = plans.node_offsets[qg] + plan.order
            if not index.sizes(nodes, d).all():
                continue
            cand_lists = [c - d_start for c in index.lists(nodes, d)]
            found, peak_rows = bfs_join_pair(view, plan, cand_lists)
            result.pair_matches[pair_idx] = found
            result.total_matches += found
            if found:
                gmcr.matched[pair_idx] = True
            result.peak_partial_matches = max(
                result.peak_partial_matches, peak_rows
            )
            result.peak_partial_bytes = max(
                result.peak_partial_bytes, peak_rows * plan.n_nodes * 8
            )
    return result
