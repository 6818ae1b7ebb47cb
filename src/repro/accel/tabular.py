"""The vectorized tabular frontier join backend.

Δ-Motif casts subgraph isomorphism as tabular operations and GSI joins
candidate tables level by level; this module is the NumPy-vectorizable
analogue of SIGMo's work-item stack DFS built on the same idea.  A
*frontier table* holds every partial embedding at the current depth (one
column per matched query node, in plan order).  Extending the frontier to
the next depth is one vectorized pass:

1. **candidate gather** — the cross product of frontier rows with the
   next depth's candidate list (element ``e`` = row ``e // C``, candidate
   ``cands[e % C]``);
2. **injectivity mask** — drop elements whose candidate already appears
   in their row (the DFS ``used`` flags);
3. **edge-label checks** — for each compiled back-edge, one batch probe
   against the local view
   (:meth:`~repro.accel.local_view.LocalCSRView.probe_labels`: a dense
   adjacency gather on small graphs, ``xp.searchsorted`` against the
   sorted flat edge keys otherwise), with the same pass predicate as
   the scalar backend;
4. survivors become the next frontier.

**Bitwise parity with the DFS reference (Find All).**  The scalar DFS
scans the *entire* candidate list at depth ``p`` exactly once per pushed
prefix at depth ``p-1`` (the cursor persists across descents and resets
only on exhaustion), so its counters decompose per (prefix, candidate)
element: one visit each; used-duplicates get no edge checks; others run
the back-edge checks in plan order with early break, then the forbidden
(induced) probes, and survivors are pushed.  The loop below accounts
work element-wise in exactly that decomposition, so ``JoinStats`` —
visits, edge checks, pushes — and therefore budget truncation at pair
boundaries are *identical* to the reference backend, not just the match
sets.  Frontier rows are kept in DFS (lexicographic) order and blocks
are processed depth-first, so recorded embeddings appear in the same
order too, including under ``max_embeddings_recorded`` truncation.

In Find First the backends agree on results (the first surviving row in
frontier order *is* the DFS-first match) but not on counters: the DFS
abandons the search at the first embedding while a vectorized pass pays
for the whole block.  Block-bounded Find First still amortizes well
enough that the dispatch rule (:mod:`repro.accel.dispatch`) sends big
pairs here in both modes rather than to the scalar backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import xp
from repro.analysis.markers import kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.accel.local_view import LocalCSRView
    from repro.core.join import JoinStats, QueryPlan

#: Upper bound on elements (frontier rows x candidates) per expansion
#: step.  Popped frontiers are split into row blocks under this bound and
#: processed depth-first, so peak memory stays ~depth * BLOCK_ELEMS rows
#: even on pathological Find All pairs — the tabular answer to the
#: BFS-blowup the paper rejects in section 4.6.
BLOCK_ELEMS = 1 << 14


@kernel(writes=())
def extend_frontier(
    view: "LocalCSRView",
    table: np.ndarray,
    cands: np.ndarray,
    checks: tuple[tuple[int, int], ...],
    banned: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Extend every partial embedding in ``table`` by one depth.

    Parameters
    ----------
    view:
        Sorted-CSR local view of the data graph.
    table:
        ``int64[n_rows, depth]`` frontier (columns in plan order).
    cands:
        ``int64[C]`` sorted candidate list of the next depth.
    checks / banned:
        The plan's back-edge label checks and induced non-adjacency
        depths for the next depth.

    Returns
    -------
    (surviving_elements, new_table, edge_checks):
        Sorted element indices that survived, the extended frontier
        (``int64[n_surv, depth + 1]``), and the number of edge probes a
        scalar DFS would have executed (sequential early-break
        accounting).
    """
    n_rows = table.shape[0]
    n_cand = cands.size
    depth = table.shape[1]
    n_slots = view.flat_keys.size
    # Injectivity: candidate already used by its row (DFS `used` flags).
    # One binary search per matched column — O(rows * depth * log C)
    # instead of materializing the rows x depth x C equality cube.
    dup = xp.zeros((n_rows, n_cand), dtype=xp.bool_)
    for j in range(depth):
        col_vals = table[:, j]
        pos = xp.searchsorted(cands, col_vals)
        clipped = xp.minimum(pos, n_cand - 1)
        hit = cands[clipped] == col_vals
        rows_hit = xp.nonzero(hit)[0]
        dup[rows_hit, clipped[rows_hit]] = True
    elem = xp.nonzero(~dup.ravel())[0]
    rows_idx, cols = xp.divmod_(elem, n_cand)
    echecks = 0
    # Flat edge keys of each element's candidate, shifted once per list.
    # checked_flat_stride guards the u * width + v key space against int64
    # wraparound on absurdly wide graphs.
    cand_keys = cands * xp.checked_flat_stride(view.width)

    def probe(earlier_depth: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(edge-exists mask, edge labels) per surviving element."""
        keys = cand_keys[cols] + table[rows_idx, earlier_depth]
        if n_slots == 0:
            return (
                xp.zeros(keys.shape, dtype=xp.bool_),
                xp.zeros(keys.shape, dtype=xp.int8),
            )
        return view.probe_labels(keys)

    for earlier_depth, elab in checks:
        if elem.size == 0:
            break
        echecks += int(elem.size)
        found, labels = probe(earlier_depth)
        if elab == -1:  # any-bond wildcard: existence suffices
            keep = found
        else:
            keep = found & (labels == elab)
        elem = elem[keep]
        rows_idx = rows_idx[keep]
        cols = cols[keep]
    if banned:
        for earlier_depth in banned:
            if elem.size == 0:
                break
            echecks += int(elem.size)
            found, _ = probe(earlier_depth)
            keep = ~found
            elem = elem[keep]
            rows_idx = rows_idx[keep]
            cols = cols[keep]
    new_table = xp.empty((elem.size, depth + 1), dtype=xp.int64)
    if elem.size:
        new_table[:, :depth] = table[rows_idx]
        new_table[:, depth] = cands[cols]
    return elem, new_table, echecks


@kernel(writes=("stats", "record"))
def tabular_join_pair(
    view: "LocalCSRView",
    plan: "QueryPlan",
    cand_arrays: list[np.ndarray],
    find_first: bool,
    stats: "JoinStats",
    record: list | None = None,
    record_meta: tuple[int, int] | None = None,
    max_record: int = 0,
) -> int:
    """Join one (data graph, query graph) pair with frontier tables.

    Drop-in counterpart of :func:`repro.core.join.join_pair`; candidate
    lists arrive as sorted ``int64`` arrays of *local* data node ids.
    Returns the number of embeddings found (1 max under ``find_first``).
    """
    depth_count = plan.n_nodes
    sizes = [int(a.size) for a in cand_arrays]
    check_edges = plan.check_edges
    forbidden = plan.forbidden or ((),) * depth_count
    visits = 0
    echecks = 0
    pushes = 0
    matches = 0

    def flush() -> None:
        stats.candidate_visits += visits
        stats.edge_checks += echecks
        stats.stack_pushes += pushes

    def emit(rows: np.ndarray) -> int:
        """Record full-depth rows (plan order -> query-node order)."""
        nonlocal matches
        found = rows.shape[0]
        matches += found
        if record is not None and record_meta is not None:
            order = xp.asarray(plan.order, dtype=xp.int64)
            for r in range(found):
                if len(record) >= max_record:
                    break
                mapping = xp.empty(depth_count, dtype=xp.int64)
                mapping[order] = rows[r]
                record.append((record_meta[0], record_meta[1], mapping))
        return found

    # Depth 0: the whole candidate list becomes the root frontier — each
    # candidate is one visit and one push, exactly as the DFS scans and
    # places them (no earlier depths, so no used/edge checks apply).
    root = xp.ascontiguousarray(cand_arrays[0], dtype=xp.int64)[:, None]
    visits += sizes[0]
    pushes += sizes[0]
    if depth_count == 1:
        # Every depth-0 candidate is a full match.
        emit(root[:1] if find_first else root)
        flush()
        return matches

    last_depth = depth_count - 1
    # Depth-first over row blocks: LIFO stack, sibling blocks pushed in
    # reverse so the lexicographically first block pops first.
    stack: list[tuple[int, np.ndarray]] = [(0, root)]
    while stack:
        depth, table = stack.pop()
        next_depth = depth + 1
        n_cand = sizes[next_depth]
        max_rows = max(1, BLOCK_ELEMS // max(n_cand, 1))
        if table.shape[0] > max_rows:
            starts = range(0, table.shape[0], max_rows)
            for s in reversed(starts):
                stack.append((depth, table[s : s + max_rows]))
            continue
        visits += table.shape[0] * n_cand
        elem, new_table, step_checks = extend_frontier(
            view,
            table,
            cand_arrays[next_depth],
            check_edges[next_depth],
            forbidden[next_depth],
        )
        echecks += step_checks
        pushes += int(elem.size)
        if new_table.shape[0] == 0:
            continue
        if next_depth == last_depth:
            if find_first:
                emit(new_table[:1])
                flush()
                return matches
            emit(new_table)
        else:
            stack.append((next_depth, new_table))
    flush()
    return matches
