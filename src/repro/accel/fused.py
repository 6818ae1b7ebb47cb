"""The fused whole-batch frontier join: one table for every pair.

Following Δ-Motif's whole-batch tabular-operations formulation, this
module runs the join of many (data graph, query graph) pairs through a
single frontier table whose leading **pair column** (the "slot") carries
every pair of a batch through the vectorized steps at once, so the
per-step NumPy overhead amortizes over the *batch*, not the pair.  A
forced ``join_backend="tabular"`` runs the same kernel with one pair per
table (:func:`tabular_join_pair`).

**Neighbour-driven extension.**  A row at depth ``p`` grows from its
**anchor**: the data node it matched at the earlier depth named by the
slot's first back-edge check at ``p``.  Following GSI's Prealloc-Combine
join, the kernel reads the anchor's CSR-GO neighbours from the cached
whole-batch view (:class:`repro.accel.local_view.LocalCSRView` over
``[0, n_nodes)``) and keeps a neighbour when its candidate-bitmap bit is
set for depth ``p``'s query node, the row does not use it yet, and its
edge label passes the first check.  Those are exactly the candidates that
survive the first check of the (row x candidate list) cross product, so
the kernel never builds the elements that check would discard.  CSR-GO
rows are sorted by global id, like candidate lists, so survivors come out
in candidate-list order.  Rows whose slot has no check at ``p`` (a later
component of a disconnected query) still cross their candidate list.

**Accounting parity.**  The scalar DFS scans a depth's whole candidate
list once per pushed prefix, so its counters decompose per (row,
candidate) element: one visit each; used candidates get no edge checks;
the others run the back-edge checks in plan order with early break, then
the induced probes; survivors are pushes.  The kernel accounts the same
totals without the elements: a row's visits are its candidate-list size,
its first-round checks that size minus the matched nodes that sit in the
list (one bitmap probe per earlier depth), and later rounds and induced
probes run on the built survivors exactly as the DFS would.  Survival
depends only on an element's own row, so per-slot totals are invariant
to how rows are blocked or interleaved across slots — ``visits`` /
``edge_checks`` / ``stack_pushes`` per slot come out *identical* to the
scalar DFS.  Rows are processed depth-first over LIFO element-bounded
blocks and every step preserves each slot's row order, so each slot's
full-depth rows also emit in DFS (lexicographic) order — embeddings match
the DFS row for row.

**Find First.**  The first full-depth row emitted for a slot *is* that
pair's DFS-first embedding (same order argument).  The driver retires a
matched slot's remaining rows at the next block boundary — the batched
early-exit — so one pair finding its match stops paying for the rest of
its subtree while other slots keep going.  Find First *results* are
bitwise-equal to DFS while the work counters are block-granular and
backend-specific (a vectorized pass pays for a whole block the scalar
DFS abandons mid-stream) — except on single-node slots, which count the
DFS's one visit and one push.

Heterogeneous plans ride the same table: per-slot candidate lists,
back-edge checks and induced non-adjacency probes are ragged arrays
indexed by the slot column, and a slot's rows retire automatically at
its own final depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import xp
from repro.analysis.markers import kernel
from repro.core.candidates import segment_counts, segment_ids
from repro.utils.bitops import ragged_at

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.accel.local_view import LocalCSRView
    from repro.core.candidates import CandidateBitmap
    from repro.core.join import PlanTable

#: Element bound per fused expansion block: a popped table is split into
#: row chunks whose (row, neighbour) elements stay under it, so peak
#: memory stays ~depth * FUSED_BLOCK_ELEMS rows even on pathological Find
#: All pairs — the tabular answer to the BFS blowup the paper rejects in
#: section 4.6.
FUSED_BLOCK_ELEMS = 1 << 15


def _ragged_take(
    flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(gathered, offsets) of the ragged runs ``flat[starts[i]:][:sizes[i]]``."""
    offsets = xp.zeros(sizes.size + 1, dtype=xp.int64)
    offsets[1:] = xp.cumsum(sizes)
    if int(offsets[-1]) == 0:
        return flat[:0], offsets
    return flat[ragged_at(starts, sizes)], offsets


@dataclass(frozen=True)
class FusedPlan:
    """Compiled slot-indexed layout of one fused table.

    Per (slot, depth) the plan holds the global query node (the bitmap
    row neighbours are tested against) and its candidate-list size; the
    sorted **global** candidate ids themselves are gathered only where
    the kernel crosses them — depth 0 and slots without a back-edge check
    at that depth.  The back-edge checks ``(earlier_depth, edge_label)``
    per (slot, depth) in each slot's own plan order and the induced
    non-adjacency depths are ragged (flat, offsets) pairs indexed by the
    slot column.  Slots whose plan is shorter than ``max_depth`` simply
    have empty ranges at the deeper levels.
    """

    depth_counts: np.ndarray  # int64[n_slots]: plan.n_nodes per slot
    query_nodes: tuple[np.ndarray, ...]  # per depth: int64[n_slots] bitmap row
    cand_size: tuple[np.ndarray, ...]  # per depth: int64[n_slots] list size
    cand_flat: tuple[np.ndarray, ...]  # per depth: int64 global candidate ids
    cand_off: tuple[np.ndarray, ...]  # per depth: int64[n_slots + 1]
    ck_depth: tuple[np.ndarray, ...]  # per depth: int64 earlier plan depth
    ck_label: tuple[np.ndarray, ...]  # per depth: int64 required label (-1 any)
    ck_off: tuple[np.ndarray, ...]  # per depth: int64[n_slots + 1]
    bn_depth: tuple[np.ndarray, ...]  # per depth: int64 banned earlier depth
    bn_off: tuple[np.ndarray, ...]  # per depth: int64[n_slots + 1]
    words: np.ndarray  # the candidate bitmap's words (query node x word)
    word_bits: int

    @property
    def n_slots(self) -> int:
        """Pairs fused into this table."""
        return int(self.depth_counts.size)

    @property
    def max_depth(self) -> int:
        """Deepest plan among the slots (frontier column bound)."""
        return int(self.depth_counts.max()) if self.depth_counts.size else 0

    def is_candidate(self, query_nodes: np.ndarray, data_nodes: np.ndarray) -> np.ndarray:
        """Whether each data node's bitmap bit is set for its query node."""
        bits = self.word_bits
        words = self.words[query_nodes, data_nodes // bits]
        shift = (data_nodes % bits).astype(words.dtype)
        return (xp.right_shift(words, shift) & 1).astype(xp.bool_)


def build_fused_plan(
    query_graphs: np.ndarray,
    data_graphs: np.ndarray,
    plans: "PlanTable",
    bitmap: "CandidateBitmap",
    graph_offsets: np.ndarray,
) -> FusedPlan:
    """Compile pairs into one :class:`FusedPlan`.

    Slot ``i`` is the pair (``query_graphs[i]``, ``data_graphs[i]``);
    ``graph_offsets`` are the data batch's CSR-GO graph offsets.  The
    (slot, depth) query nodes ``node_offsets[qg] + order[qg, d]`` give
    every list size in one :func:`~repro.core.candidates.segment_counts`
    call, and one :func:`~repro.core.candidates.segment_ids` call reads
    the sorted **global** candidate ids of only the lists the kernel
    crosses (depth 0 and check-less slots) straight from the bitmap
    words; the check and banned columns are ragged gathers of the plan
    table's (query graph, depth) rows.  Every candidate list must be
    non-empty — pairs with an empty depth are skipped before dispatch,
    exactly as on the DFS backend.
    """
    qg = xp.asarray(query_graphs, dtype=xp.int64)
    graphs = xp.asarray(data_graphs, dtype=xp.int64)
    depth_counts = plans.n_nodes[qg]
    max_depth = int(depth_counts.max()) if qg.size else 0
    # Depth-major (depth, slot) arrays, so each depth's columns are rows.
    order = xp.ascontiguousarray(plans.order[qg, :max_depth].T)
    live = order >= 0
    nodes = xp.where(live, plans.node_offsets[qg] + order, 0)
    sizes = xp.zeros(nodes.shape, dtype=xp.int64)
    sizes[live] = segment_counts(
        bitmap, graph_offsets, nodes[live], xp.broadcast_to(graphs, nodes.shape)[live]
    )
    # (depth, slot) rows of the plan table's ragged check / banned columns.
    rows = xp.arange(max_depth, dtype=xp.int64)[:, None] + qg * plans.max_nodes
    ck_starts = plans.ck_off[rows]
    ck_sizes = plans.ck_off[rows + 1] - ck_starts
    bn_starts = plans.bn_off[rows]
    bn_sizes = plans.bn_off[rows + 1] - bn_starts
    # Slots with a check grow from their anchor's neighbours instead, so
    # only check-less lists (depth 0 among them) are gathered; flat index
    # ``at = depth * n_slots + slot``.
    listed = xp.where(ck_sizes == 0, sizes, 0)
    at = xp.flatnonzero(listed)
    ids, _ = segment_ids(bitmap, graph_offsets, nodes.ravel()[at], graphs[at % qg.size])
    depth_end = xp.cumsum(listed.sum(axis=1)).tolist()
    query_nodes, cand_size, cand_flat, cand_off = [], [], [], []
    ck_depth, ck_label, ck_off = [], [], []
    bn_depth, bn_off = [], []
    for d in range(max_depth):
        query_nodes.append(nodes[d])
        cand_size.append(sizes[d])
        off = xp.zeros(qg.size + 1, dtype=xp.int64)
        off[1:] = xp.cumsum(listed[d])
        cand_flat.append(ids[depth_end[d] - int(off[-1]) : depth_end[d]])
        cand_off.append(off)
        flat, off = _ragged_take(plans.ck_depth, ck_starts[d], ck_sizes[d])
        ck_depth.append(flat)
        ck_off.append(off)
        ck_label.append(_ragged_take(plans.ck_label, ck_starts[d], ck_sizes[d])[0])
        flat, off = _ragged_take(plans.bn_depth, bn_starts[d], bn_sizes[d])
        bn_depth.append(flat)
        bn_off.append(off)
    return FusedPlan(
        depth_counts=depth_counts,
        query_nodes=tuple(query_nodes),
        cand_size=tuple(cand_size),
        cand_flat=tuple(cand_flat),
        cand_off=tuple(cand_off),
        ck_depth=tuple(ck_depth),
        ck_label=tuple(ck_label),
        ck_off=tuple(ck_off),
        bn_depth=tuple(bn_depth),
        bn_off=tuple(bn_off),
        words=bitmap.words,
        word_bits=bitmap.word_bits,
    )


@dataclass
class FusedOutcome:
    """Per-slot results of one fused table run.

    The driver accumulates into the ``int64[n_slots]`` arrays;
    :func:`repro.core.join.run_join` folds them into ``JoinStats`` /
    ``JoinResult`` in GMCR pair order, which is what keeps budget
    truncation bitwise-identical to a sequential run.
    """

    matches: np.ndarray
    visits: np.ndarray
    echecks: np.ndarray
    pushes: np.ndarray
    #: Per-slot recorded full-depth rows (global ids, plan order, DFS
    #: emission order), capped at ``max_record`` rows per slot.
    rows: dict[int, list[np.ndarray]] = field(default_factory=dict)
    #: Find First: depths at which a retirement event dropped rows.
    early_exit_depths: list[int] = field(default_factory=list)
    #: Largest total ``nbytes`` of the tables held at once: the stack,
    #: the block being extended and its new table.
    peak_table_bytes: int = 0
    #: ``level_rows[d]``: rows built at depth ``d`` over every block —
    #: what a level-synchronous (BFS) join of the same slots holds at
    #: level ``d``.
    level_rows: list[int] = field(default_factory=list)

    def level_table_bytes(self) -> int:
        """Bytes of the largest level table a level-synchronous join of
        these slots would hold: ``level_rows[d]`` rows of the slot column
        plus ``d + 1`` matched nodes, as ``int64``."""
        return max(
            (rows * (d + 2) * 8 for d, rows in enumerate(self.level_rows)),
            default=0,
        )

    @classmethod
    def empty(cls, n_slots: int) -> "FusedOutcome":
        return cls(
            matches=xp.zeros(n_slots, dtype=xp.int64),
            visits=xp.zeros(n_slots, dtype=xp.int64),
            echecks=xp.zeros(n_slots, dtype=xp.int64),
            pushes=xp.zeros(n_slots, dtype=xp.int64),
        )


def _anchors(fplan: FusedPlan, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows with a check at the next depth, each one's anchor node)."""
    depth = table.shape[1] - 1
    ck_off = fplan.ck_off[depth]
    slots = table[:, 0]
    rows = xp.flatnonzero(ck_off[slots + 1] > ck_off[slots])
    earlier = fplan.ck_depth[depth][ck_off[slots[rows]]]
    return rows, table[rows, 1 + earlier]


def _block_elements(
    view: "LocalCSRView", fplan: FusedPlan, table: np.ndarray
) -> np.ndarray:
    """Elements the kernel builds per row: anchor degree, else list size."""
    counts = fplan.cand_size[table.shape[1] - 1][table[:, 0]]
    rows, anchor = _anchors(fplan, table)
    counts[rows] = view.row_offsets[anchor + 1] - view.row_offsets[anchor]
    return counts


def _drop_used(
    table: np.ndarray, row_idx: np.ndarray, cand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elements whose candidate their own row has not matched yet.

    Column by column — 1-D gathers beat one 2-D advanced-index
    materialization.
    """
    dup = table[row_idx, 1] == cand
    for c in range(2, table.shape[1]):
        dup |= table[row_idx, c] == cand
    keep = ~dup
    return row_idx[keep], cand[keep]


@kernel(writes=("acc",))
def extend_fused_block(
    view: "LocalCSRView",
    fplan: FusedPlan,
    table: np.ndarray,
    acc: FusedOutcome,
) -> np.ndarray:
    """Extend one fused row block by one depth across every slot in it.

    ``table`` is ``int64[n_rows, 1 + depth]``: the slot column followed
    by the matched global data nodes of depths ``0..depth-1`` in plan
    order.  Returns the surviving rows extended to ``1 + depth + 1``
    columns.  Work is accounted per slot into ``acc`` with the DFS's
    element decomposition (see module docstring), so totals are
    bitwise-comparable.
    """
    depth = table.shape[1] - 1  # matched depths so far; extending to this one
    slots = table[:, 0]
    n_slots = fplan.n_slots
    size = fplan.cand_size[depth]
    acc.visits += xp.bincount(slots, minlength=n_slots) * size
    ck_off = fplan.ck_off[depth]
    rows, anchor = _anchors(fplan, table)
    # Round 0 on anchored rows: every unused candidate pays one check.  A
    # matched node sits in the row's list iff its bitmap bit is set (all
    # of a slot's nodes lie in its data graph).
    anchored_slots = slots[rows]
    qnode = fplan.query_nodes[depth][anchored_slots]
    in_list = fplan.is_candidate(xp.repeat(qnode, depth), table[rows, 1:].ravel())
    acc.echecks += xp.bincount(anchored_slots, minlength=n_slots) * size
    acc.echecks -= xp.bincount(
        xp.repeat(anchored_slots, depth)[in_list], minlength=n_slots
    )
    # Neighbour gather: the anchor's CSR-GO row, sorted by global id (the
    # batch view starts at node 0, so view-local ids are global).
    start = view.row_offsets[anchor]
    degree = view.row_offsets[anchor + 1] - start
    at = ragged_at(start, degree)
    width = xp.checked_flat_stride(view.width)
    cand = view.flat_keys[at] - xp.repeat(anchor * width, degree)
    label = xp.repeat(fplan.ck_label[depth][ck_off[anchored_slots]], degree)
    passed = (label == -1) | (view.edge_labels[at] == label)
    passed &= fplan.is_candidate(xp.repeat(qnode, degree), cand)
    row_idx, cand = _drop_used(table, xp.repeat(rows, degree)[passed], cand[passed])
    if rows.size < slots.size:
        # Check-less rows (a later component of a disconnected query)
        # cross their slot's candidate list.
        free = xp.flatnonzero(ck_off[slots + 1] == ck_off[slots])
        cand_off = fplan.cand_off[depth]
        counts = size[slots[free]]
        at = ragged_at(cand_off[slots[free]], counts)
        free_idx, free_cand = _drop_used(
            table, xp.repeat(free, counts), fplan.cand_flat[depth][at]
        )
        row_idx = xp.concatenate([row_idx, free_idx])
        order = xp.argsort(row_idx, kind="stable")
        row_idx = row_idx[order]
        cand = xp.concatenate([cand, free_cand])[order]
    # Later check rounds, round k = the k-th check of each element's own
    # plan — sequential early-break accounting: an element stops paying
    # after its first failed round, elements whose slot has fewer checks
    # sit rounds out but stay alive.
    eslot = slots[row_idx]
    n_checks = ck_off[eslot + 1] - ck_off[eslot]
    rounds = int(n_checks.max()) if n_checks.size else 0
    for k in range(1, rounds):
        active = xp.nonzero(n_checks > k)[0]
        if active.size == 0:
            break
        acc.echecks += xp.bincount(eslot[active], minlength=n_slots)
        at = ck_off[eslot[active]] + k
        earlier = fplan.ck_depth[depth][at]
        label = fplan.ck_label[depth][at]
        keys = cand[active] * width + table[row_idx[active], 1 + earlier]
        found, labels = view.probe_labels(keys)
        passed = found & ((label == -1) | (labels == label))
        if passed.all():
            continue
        alive = xp.ones(eslot.size, dtype=xp.bool_)
        alive[active[~passed]] = False
        row_idx = row_idx[alive]
        cand = cand[alive]
        eslot = eslot[alive]
        n_checks = n_checks[alive]
    # Induced non-adjacency probes, after all label checks (plan order).
    bn_off = fplan.bn_off[depth]
    if fplan.bn_depth[depth].size:
        n_banned = bn_off[eslot + 1] - bn_off[eslot]
        rounds = int(n_banned.max()) if n_banned.size else 0
        for k in range(rounds):
            active = xp.nonzero(n_banned > k)[0]
            if active.size == 0:
                break
            acc.echecks += xp.bincount(eslot[active], minlength=n_slots)
            at = bn_off[eslot[active]] + k
            earlier = fplan.bn_depth[depth][at]
            keys = cand[active] * width + table[row_idx[active], 1 + earlier]
            found, _ = view.probe_labels(keys)
            if not found.any():
                continue
            alive = xp.ones(eslot.size, dtype=xp.bool_)
            alive[active[found]] = False
            row_idx = row_idx[alive]
            cand = cand[alive]
            eslot = eslot[alive]
            n_banned = n_banned[alive]
    acc.pushes += xp.bincount(eslot, minlength=n_slots)
    new_table = xp.empty((eslot.size, table.shape[1] + 1), dtype=xp.int64)
    if eslot.size:
        new_table[:, :-1] = table[row_idx]
        new_table[:, -1] = cand
    return new_table


def _block_starts(counts: np.ndarray, bound: int) -> list[int]:
    """Row boundaries splitting a pop into <= ``bound`` element chunks.

    Greedy: rows join the current chunk until its element total would
    exceed the bound; a single row above the bound forms its own chunk
    (it cannot be split).  One ``searchsorted`` on the running totals
    finds each chunk's end.
    """
    n = int(counts.size)
    before = xp.zeros(n + 1, dtype=xp.int64)  # before[i]: elements of rows < i
    before[1:] = xp.cumsum(counts)
    starts = [0]
    while True:
        base = int(before[starts[-1]])
        # First row whose inclusion pushes the chunk past the bound.
        over = int(xp.searchsorted(before[1:], base + bound, side="right"))
        if int(before[over]) == base:
            over += 1  # the chunk holds only empty rows so far: row joins
        if over >= n:
            return starts
        starts.append(over)


@kernel(writes=("acc",))
def fused_join(
    view: "LocalCSRView",
    fplan: FusedPlan,
    find_first: bool,
    acc: FusedOutcome,
    record_rows: bool = False,
    max_record: int = 0,
) -> FusedOutcome:
    """Run one fused table to completion.

    Depth-first over LIFO element-bounded row blocks: a pop whose rows
    would build more than :data:`FUSED_BLOCK_ELEMS` elements (anchor
    degrees, or list sizes for check-less rows) is split, and sibling
    chunks are pushed in reverse so the lexicographically first chunk
    pops first, which keeps every slot's emission in DFS order.  Under
    ``find_first``, a slot is retired the moment its first full-depth
    row lands — subsequent pops drop its remaining rows before paying
    for them (the batched early-exit).

    ``record_rows`` keeps up to ``max_record`` full-depth rows per slot
    in ``acc.rows`` (global ids, plan order); the caller converts them
    to embeddings in GMCR pair order.
    """
    n_slots = fplan.n_slots
    if n_slots == 0:
        return acc
    depth_counts = fplan.depth_counts
    sizes0 = fplan.cand_size[0]
    # Depth 0: every candidate is one visit and one push on any backend.
    # A single-node plan's candidates are all full matches, and under
    # Find First the DFS stops at the first one: one visit, one push.
    single = depth_counts == 1
    roots = xp.where(single, 1, sizes0) if find_first else sizes0
    acc.visits += roots
    acc.pushes += roots
    acc.matches[single] = roots[single]
    if record_rows:
        trivial = xp.flatnonzero(single & (roots > 0))
        for s in trivial.tolist():
            lo = int(fplan.cand_off[0][s])
            stop = lo + min(int(roots[s]), max_record)
            acc.rows[s] = [fplan.cand_flat[0][lo:stop].reshape(-1, 1)]
    deep = xp.nonzero(depth_counts > 1)[0]
    if deep.size == 0:
        return acc
    counts0 = sizes0[deep]
    root = xp.empty((int(counts0.sum()), 2), dtype=xp.int64)
    root[:, 0] = xp.repeat(deep, counts0)
    root[:, 1] = fplan.cand_flat[0][ragged_at(fplan.cand_off[0][deep], counts0)]
    levels = acc.level_rows
    levels.extend([0] * (fplan.max_depth - len(levels)))
    levels[0] += root.shape[0]

    # Rows x the widest anchor row or crossed list bounds a pop's
    # elements, so most pops skip counting them exactly.
    degree = int(xp.max(xp.diff(view.row_offsets)))
    widest = [max(degree, int(xp.max(xp.diff(off)))) for off in fplan.cand_off]
    retired = xp.zeros(n_slots, dtype=xp.bool_)
    stack: list[np.ndarray] = [root]
    while stack:
        table = stack.pop()
        if find_first and retired.any():
            live = ~retired[table[:, 0]]
            if not live.all():
                acc.early_exit_depths.append(table.shape[1] - 1)
                table = table[live]
        if table.shape[0] == 0:
            continue
        depth = table.shape[1] - 1
        if table.shape[0] > 1 and table.shape[0] * widest[depth] > FUSED_BLOCK_ELEMS:
            counts = _block_elements(view, fplan, table)
            if int(counts.sum()) > FUSED_BLOCK_ELEMS:
                bounds = _block_starts(counts, FUSED_BLOCK_ELEMS)
                bounds.append(table.shape[0])
                for i in range(len(bounds) - 2, -1, -1):
                    stack.append(table[bounds[i] : bounds[i + 1]])
                continue
        new_table = extend_fused_block(view, fplan, table, acc)
        levels[depth] += new_table.shape[0]
        held = sum(t.nbytes for t in stack) + table.nbytes + new_table.nbytes
        acc.peak_table_bytes = max(acc.peak_table_bytes, held)
        if new_table.shape[0] == 0:
            continue
        done = depth_counts[new_table[:, 0]] == depth + 1
        if done.any():
            done_rows = new_table[done]
            done_slots = done_rows[:, 0]
            if find_first:
                first_of, first_at = xp.unique(done_slots, return_index=True)
                acc.matches[first_of] = 1
                retired[first_of] = True
                if record_rows:
                    for s, at in zip(first_of.tolist(), first_at.tolist()):
                        acc.rows[s] = [done_rows[at : at + 1, 1:]]
            else:
                acc.matches += xp.bincount(done_slots, minlength=n_slots)
                if record_rows:
                    for s in xp.unique(done_slots).tolist():
                        kept = acc.rows.setdefault(s, [])
                        have = sum(r.shape[0] for r in kept)
                        if have >= max_record:
                            continue
                        mine = done_rows[done_slots == s, 1:]
                        kept.append(mine[: max_record - have])
            new_table = new_table[~done]
        if new_table.shape[0]:
            stack.append(new_table)
    return acc


@kernel(writes=())
def tabular_join_pair(
    view: "LocalCSRView",
    plans: "PlanTable",
    bitmap: "CandidateBitmap",
    graph_offsets: np.ndarray,
    query_graph: int,
    data_graph: int,
    find_first: bool,
    record_rows: bool = False,
    max_record: int = 0,
) -> FusedOutcome:
    """Join one pair alone, as a one-slot table on the batch view.

    The forced ``join_backend="tabular"`` arm: the fused kernel with no
    cross-pair fusion, so each pair pays its own plan and table setup.
    Returns the one-slot :class:`FusedOutcome` (slot 0).
    """
    fplan = build_fused_plan(
        xp.full(1, query_graph, dtype=xp.int64),
        xp.full(1, data_graph, dtype=xp.int64),
        plans,
        bitmap,
        graph_offsets,
    )
    acc = FusedOutcome.empty(1)
    return fused_join(view, fplan, find_first, acc, record_rows, max_record)


def slot_rows(acc: FusedOutcome, slot: int) -> np.ndarray | None:
    """The recorded full-depth rows of one slot, concatenated (or None)."""
    kept = acc.rows.get(slot)
    if not kept:
        return None
    return kept[0] if len(kept) == 1 else xp.concatenate(kept, axis=0)
