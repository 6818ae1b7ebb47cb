"""The fused whole-batch frontier join: one table for every pair.

The per-pair tabular backend (:mod:`repro.accel.tabular`) already
vectorizes the join *within* one (data graph, query graph) pair, but each
pair still pays its own Python call, frontier setup and local-view
probes — which is exactly where the molecular and Find First suites lose
their speedup (many small pairs, little work per pair).  Following
Δ-Motif's whole-batch tabular-operations formulation, this module fuses
the join *across* pairs: a single frontier table whose leading **pair
column** (the "slot") carries every fused-dispatched pair of a batch
through the vectorized steps at once —

* one ragged candidate-gather per depth across all slots,
* one injectivity mask,
* one batched ``xp.searchsorted`` edge probe per check round against the
  whole-batch edge index (a :class:`repro.accel.local_view.LocalCSRView`
  over the batch's full node range ``[0, n_nodes)``),

so the per-step NumPy overhead amortizes over the *batch*, not the pair.

**Accounting parity.**  Find All work counters decompose per (prefix,
candidate) element exactly as in the per-pair tabular backend (see its
module docstring): each element is one visit; used-duplicates get no
edge checks; check rounds run in each slot's own plan order with
sequential early-break accounting; survivors are pushes.  Element
survival depends only on the element's own row, so the per-slot totals
are invariant to how rows are blocked or interleaved across slots —
``visits`` / ``edge_checks`` / ``stack_pushes`` per slot come out
*identical* to running that pair alone on either reference backend.
Rows are processed depth-first over LIFO element-bounded blocks and
every vectorized step preserves relative row order, so each slot's
full-depth rows also emit in DFS (lexicographic) order — embeddings
match the reference backends row for row.

**Find First.**  The first full-depth row emitted for a slot *is* that
pair's DFS-first embedding (same order argument).  The driver retires a
matched slot's remaining rows at the next block boundary — the batched
early-exit — so one pair finding its match stops paying for the rest of
its subtree while other slots keep going.  As with the per-pair tabular
backend, Find First *results* are bitwise-equal to DFS while the work
counters are backend-specific (a vectorized pass pays block-granular
work the scalar DFS abandons mid-stream).

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.accel.local_view import LocalCSRView
    from repro.core.candidates import CandidateIndex
    from repro.core.join import PlanTable

from repro.accel.tabular import BLOCK_ELEMS

#: Element bound per fused expansion block.  The fused table amortizes
#: per-step Python overhead over every slot in the block, so it prefers
#: blocks twice the per-pair bound — larger still loses to cache misses
#: on the gathered intermediates (measured on the hot-path suites).
FUSED_BLOCK_ELEMS = BLOCK_ELEMS * 2


def _ragged_take(
    flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(gathered, offsets) of the ragged runs ``flat[starts[i]:][:sizes[i]]``."""
    offsets = xp.zeros(sizes.size + 1, dtype=xp.int64)
    offsets[1:] = xp.cumsum(sizes)
    total = int(offsets[-1])
    if total == 0:
        return xp.empty(0, dtype=xp.int64), offsets
    at = xp.arange(total, dtype=xp.int64) + xp.repeat(starts - offsets[:-1], sizes)
    return flat[at], offsets


@dataclass(frozen=True)
class FusedPlan:
    """Compiled slot-indexed layout of one fused table.

    Everything the extension kernel gathers per element is flattened
    into ragged (flat, offsets) pairs indexed by the slot column: the
    sorted **global** candidate ids per (slot, depth), the back-edge
    checks ``(earlier_depth, edge_label)`` per (slot, depth) in each
    slot's own plan order, and the induced non-adjacency depths.  Slots
    whose plan is shorter than ``max_depth`` simply have empty ranges at
    the deeper levels.
    """

    depth_counts: np.ndarray  # int64[n_slots]: plan.n_nodes per slot
    cand_flat: tuple[np.ndarray, ...]  # per depth: int64 global candidate ids
    cand_off: tuple[np.ndarray, ...]  # per depth: int64[n_slots + 1]
    ck_depth: tuple[np.ndarray, ...]  # per depth: int64 earlier plan depth
    ck_label: tuple[np.ndarray, ...]  # per depth: int64 required label (-1 any)
    ck_off: tuple[np.ndarray, ...]  # per depth: int64[n_slots + 1]
    bn_depth: tuple[np.ndarray, ...]  # per depth: int64 banned earlier depth
    bn_off: tuple[np.ndarray, ...]  # per depth: int64[n_slots + 1]

    @property
    def n_slots(self) -> int:
        """Pairs fused into this table."""
        return int(self.depth_counts.size)

    @property
    def max_depth(self) -> int:
        """Deepest plan among the slots (frontier column bound)."""
        return int(self.depth_counts.max()) if self.depth_counts.size else 0


def build_fused_plan(
    query_graphs: np.ndarray,
    data_graphs: np.ndarray,
    plans: "PlanTable",
    index: "CandidateIndex",
) -> FusedPlan:
    """Compile fused-dispatched pairs into one :class:`FusedPlan`.

    Slot ``i`` is the pair (``query_graphs[i]``, ``data_graphs[i]``).
    Per depth, the slots' query nodes ``node_offsets[qg] + order[qg, d]``
    index the candidate index's cuts, and one ragged gather pulls their
    sorted **global** candidate ids (the whole-batch edge index keys on
    global ids, so no per-pair local re-slicing happens on this path);
    the check and banned columns are ragged gathers of the plan table's
    (query graph, depth) rows.  Every candidate list must be non-empty —
    pairs with an empty depth are skipped before dispatch, exactly as on
    the per-pair backends.
    """
    qg = xp.asarray(query_graphs, dtype=xp.int64)
    graphs = xp.asarray(data_graphs, dtype=xp.int64)
    depth_counts = plans.n_nodes[qg]
    max_depth = int(depth_counts.max()) if qg.size else 0
    first_node = plans.node_offsets[qg]
    rows = qg * plans.max_nodes
    cand_flat, cand_off = [], []
    ck_depth, ck_label, ck_off = [], [], []
    bn_depth, bn_off = [], []
    for d in range(max_depth):
        live = depth_counts > d
        nodes = xp.where(live, first_node + plans.order[qg, d], 0)
        starts = index.cuts[nodes, graphs]
        sizes = xp.where(live, index.cuts[nodes, graphs + 1] - starts, 0)
        flat, off = _ragged_take(index.positions, starts, sizes)
        cand_flat.append(flat)
        cand_off.append(off)
        # Rows past a slot's plan depth are empty in the table.
        row = rows + d
        starts = plans.ck_off[row]
        sizes = plans.ck_off[row + 1] - starts
        flat, off = _ragged_take(plans.ck_depth, starts, sizes)
        ck_depth.append(flat)
        ck_off.append(off)
        ck_label.append(_ragged_take(plans.ck_label, starts, sizes)[0])
        starts = plans.bn_off[row]
        flat, off = _ragged_take(plans.bn_depth, starts, plans.bn_off[row + 1] - starts)
        bn_depth.append(flat)
        bn_off.append(off)
    return FusedPlan(
        depth_counts=depth_counts,
        cand_flat=tuple(cand_flat),
        cand_off=tuple(cand_off),
        ck_depth=tuple(ck_depth),
        ck_label=tuple(ck_label),
        ck_off=tuple(ck_off),
        bn_depth=tuple(bn_depth),
        bn_off=tuple(bn_off),
    )


@dataclass
class FusedOutcome:
    """Per-slot results of one fused table run.

    The driver accumulates into the ``int64[n_slots]`` arrays; the
    replay loop in :func:`repro.core.join.run_join` folds them into
    ``JoinStats`` / ``JoinResult`` in GMCR pair order, which is what
    keeps budget truncation bitwise-identical to a sequential run.
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

    @classmethod
    def empty(cls, n_slots: int) -> "FusedOutcome":
        return cls(
            matches=xp.zeros(n_slots, dtype=xp.int64),
            visits=xp.zeros(n_slots, dtype=xp.int64),
            echecks=xp.zeros(n_slots, dtype=xp.int64),
            pushes=xp.zeros(n_slots, dtype=xp.int64),
        )


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
    columns.  Work is accounted per slot into ``acc`` with the same
    element decomposition as the per-pair backends (see module
    docstring), so totals are bitwise-comparable.
    """
    depth = table.shape[1] - 1  # matched depths so far; extending to this one
    slots = table[:, 0]
    n_slots = fplan.n_slots
    cand_off = fplan.cand_off[depth]
    counts = cand_off[slots + 1] - cand_off[slots]
    total = int(counts.sum())
    # Candidate gather: ragged cross product of rows x their slot's list.
    row_idx = xp.repeat(xp.arange(table.shape[0], dtype=xp.int64), counts)
    ends = xp.cumsum(counts)
    within = xp.arange(total, dtype=xp.int64) - xp.repeat(ends - counts, counts)
    cand = fplan.cand_flat[depth][xp.repeat(cand_off[slots], counts) + within]
    eslot = xp.repeat(slots, counts)
    acc.visits += xp.bincount(eslot, minlength=n_slots)
    # Injectivity mask: candidate already used by its own row.  Column
    # by column — 1-D gathers beat one 2-D advanced-index materialization.
    dup = table[row_idx, 1] == cand
    for c in range(2, table.shape[1]):
        dup |= table[row_idx, c] == cand
    keep = ~dup
    row_idx = row_idx[keep]
    cand = cand[keep]
    eslot = eslot[keep]
    # Back-edge label checks, round k = the k-th check of each element's
    # own plan — sequential early-break accounting: an element stops
    # paying after its first failed round, elements whose slot has fewer
    # checks sit rounds out but stay alive.
    width = xp.checked_flat_stride(view.width)
    ck_off = fplan.ck_off[depth]
    n_checks = ck_off[eslot + 1] - ck_off[eslot]
    rounds = int(n_checks.max()) if n_checks.size else 0
    for k in range(rounds):
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


def _block_starts(counts: np.ndarray, bound: int = FUSED_BLOCK_ELEMS) -> list[int]:
    """Row boundaries splitting a pop into <= ``bound`` element chunks.

    Greedy: rows join the current chunk until its element total would
    exceed the bound; a single row above the bound forms its own chunk
    (it cannot be split — same degenerate case as the per-pair backend's
    ``max(1, ...)`` rows-per-block floor).  One ``searchsorted`` on the
    running totals finds each chunk's end.
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

    Depth-first over LIFO element-bounded row blocks (the fused analogue
    of the per-pair backend's block stack): sibling chunks are pushed in
    reverse so the lexicographically first chunk pops first, which keeps
    every slot's emission in DFS order.  Under ``find_first``, a slot is
    retired the moment its first full-depth row lands — subsequent pops
    drop its remaining rows before paying for them (the batched
    early-exit).

    ``record_rows`` keeps up to ``max_record`` full-depth rows per slot
    in ``acc.rows`` (global ids, plan order); the caller converts them
    to embeddings in GMCR replay order.
    """
    n_slots = fplan.n_slots
    if n_slots == 0:
        return acc
    depth_counts = fplan.depth_counts
    sizes0 = fplan.cand_off[0][1:] - fplan.cand_off[0][:-1]
    # Depth 0: every candidate is one visit and one push on any backend.
    acc.visits += sizes0
    acc.pushes += sizes0
    # Single-node plans: every root candidate is a full match.
    trivial = xp.nonzero(depth_counts == 1)[0]
    for s in trivial.tolist():
        lo, hi = int(fplan.cand_off[0][s]), int(fplan.cand_off[0][s + 1])
        n_found = 1 if find_first else hi - lo
        acc.matches[s] = n_found
        if record_rows and n_found:
            stop = lo + min(n_found, max_record)
            acc.rows[s] = [
                fplan.cand_flat[0][lo:stop].reshape(-1, 1)
            ]
    deep = xp.nonzero(depth_counts > 1)[0]
    if deep.size == 0:
        return acc
    counts0 = sizes0[deep]
    root = xp.empty((int(counts0.sum()), 2), dtype=xp.int64)
    root[:, 0] = xp.repeat(deep, counts0)
    starts = fplan.cand_off[0][deep]
    ends = xp.cumsum(counts0)
    within = xp.arange(root.shape[0], dtype=xp.int64) - xp.repeat(
        ends - counts0, counts0
    )
    root[:, 1] = fplan.cand_flat[0][xp.repeat(starts, counts0) + within]

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
        cand_off = fplan.cand_off[depth]
        slots = table[:, 0]
        counts = cand_off[slots + 1] - cand_off[slots]
        if int(counts.sum()) > FUSED_BLOCK_ELEMS and table.shape[0] > 1:
            bounds = _block_starts(counts)
            bounds.append(table.shape[0])
            for i in range(len(bounds) - 2, -1, -1):
                stack.append(table[bounds[i] : bounds[i + 1]])
            continue
        new_table = extend_fused_block(view, fplan, table, acc)
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


def slot_rows(acc: FusedOutcome, slot: int) -> np.ndarray | None:
    """The recorded full-depth rows of one slot, concatenated (or None)."""
    kept = acc.rows.get(slot)
    if not kept:
        return None
    return kept[0] if len(kept) == 1 else xp.concatenate(kept, axis=0)
