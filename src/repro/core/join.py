"""Join phase: stack-based DFS backtracking over filtered candidates.

GPUs do not support recursion, so the paper simulates it with an explicit
stack in private memory, one stack per work-item, bounded by the query size
(section 4.6).  This module reproduces that design faithfully: the inner
search is an iterative loop over preallocated integer arrays — a stack of
candidate cursors — with no recursion and no per-step allocation.

Execution model (paper section 4.6): each *data graph* is a work-group;
the work-items of the group iterate over the query graphs GMCR mapped to
that data graph, one query per work-item at a time.  The join folds its
per-pair work counts in the same GMCR order (data graph outer, query
graph inner), so the device simulator can replay it with real per-pair
work counts.

Matching semantics are paper Def. 2.1: injective, label-preserving, every
query edge present in the data graph, and edge labels must agree
(section 3: "edge labels are evaluated to prevent invalid matches").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro import xp
from repro.accel.dispatch import (
    BACKEND_DFS,
    BACKEND_FUSED,
    BACKEND_TABULAR,
    estimate_elements,
    packing_order,
    resolve_backend,
)
from repro.accel.fused import (
    FusedOutcome,
    build_fused_plan,
    fused_join,
    slot_rows,
    tabular_join_pair,
)
from repro.accel.local_view import LocalCSRView, get_batch_view, get_local_view
from repro.accel.memo import array_hash, plan_memo
from repro.analysis.markers import kernel
from repro.core.candidates import CandidateBitmap, segment_counts, segment_ids
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.mapping import GMCR
from repro.obs.trace import get_tracer

if TYPE_CHECKING:
    import numpy as np

#: Join execution modes.
FIND_ALL = "find-all"
FIND_FIRST = "find-first"


@dataclass(frozen=True)
class JoinBudget:
    """Per-run work budget for the join phase (the runtime watchdog).

    A Find All on a pathological (data, query) batch can produce orders of
    magnitude more embeddings than expected (the paper caps query size at
    30 partly for this reason).  A budget lets the chunked/resilient
    drivers stop such a run *cleanly*: the join finishes the in-flight
    pair, tags the result ``truncated`` and reports ``resume_pair`` — the
    GMCR pair index to restart from — so completed work is never
    discarded.  Budgets are checked at pair boundaries, which keeps
    truncation deterministic and resumable (pairs are processed in GMCR
    order).

    Attributes
    ----------
    max_matches:
        Stop once at least this many embeddings were found.
    max_visits:
        Stop once at least this many candidate visits were spent (the
        dominant stack-DFS work counter).
    max_pushes:
        Stop once at least this many stack pushes (partial matches) were
        made.
    """

    max_matches: int | None = None
    max_visits: int | None = None
    max_pushes: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_matches", "max_visits", "max_pushes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (or None)")

    def exceeded(self, total_matches: int, stats: "JoinStats") -> str | None:
        """The budget dimension that is exhausted, or ``None``."""
        if self.max_matches is not None and total_matches >= self.max_matches:
            return f"matches >= {self.max_matches}"
        if self.max_visits is not None and stats.candidate_visits >= self.max_visits:
            return f"candidate_visits >= {self.max_visits}"
        if self.max_pushes is not None and stats.stack_pushes >= self.max_pushes:
            return f"stack_pushes >= {self.max_pushes}"
        return None

    def cut(
        self,
        total_matches: int,
        stats: "JoinStats",
        matches: np.ndarray,
        visits: np.ndarray,
        pushes: np.ndarray,
    ) -> int:
        """How many of the next pairs a run under this budget joins.

        ``matches`` / ``visits`` / ``pushes`` are the next pairs' work in
        GMCR order, and ``total_matches`` / ``stats`` the totals so far.
        The count runs through the first pair after which
        :meth:`exceeded` fires (all pairs when none does): one prefix-sum
        search per dimension.
        """
        n = int(matches.size)
        for limit, spent, work in (
            (self.max_matches, total_matches, matches),
            (self.max_visits, stats.candidate_visits, visits),
            (self.max_pushes, stats.stack_pushes, pushes),
        ):
            if limit is not None:
                n = min(n, int(xp.searchsorted(xp.cumsum(work), limit - spent)) + 1)
        return n


@dataclass(frozen=True)
class QueryPlan:
    """Precompiled matching order for one query graph.

    Attributes
    ----------
    query_graph:
        Query graph index within the query batch.
    order:
        ``order[p]`` is the *local* query node matched at DFS depth ``p``.
        Every node after the first is adjacent to an earlier node, so
        partial mappings stay connected.
    check_edges:
        ``check_edges[p]`` lists ``(earlier_depth, edge_label)`` pairs: the
        query edges from ``order[p]`` back into the already-mapped prefix.
        The candidate at depth ``p`` is valid only if the data graph has an
        equally-labeled edge to each of those mapped nodes.
    forbidden:
        Only populated in induced mode: ``forbidden[p]`` lists earlier
        depths that are *non-adjacent* to ``order[p]`` in the query — the
        data graph must have no edge there.
    """

    query_graph: int
    order: np.ndarray
    check_edges: tuple[tuple[tuple[int, int], ...], ...]
    forbidden: tuple[tuple[int, ...], ...] = ()

    @property
    def n_nodes(self) -> int:
        """Query size — also the DFS stack bound (paper: <= 30)."""
        return int(self.order.size)


@dataclass
class JoinStats:
    """Work counters the device simulator consumes.

    Attributes
    ----------
    pairs_joined:
        (data graph, query graph) pairs actually searched.
    stack_pushes:
        Total DFS extensions (partial-match constructions).
    candidate_visits:
        Candidate cursor advances, including rejected candidates.
    edge_checks:
        Back-edge existence/label probes.
    """

    pairs_joined: int = 0
    stack_pushes: int = 0
    candidate_visits: int = 0
    edge_checks: int = 0


@dataclass
class JoinResult:
    """Output of the join phase.

    Attributes
    ----------
    total_matches:
        Number of embeddings found (Find All) or of matched pairs
        (Find First) — the paper's throughput numerator.
    pair_matches:
        Parallel to ``gmcr.query_graph_indices``: embeddings found per
        viable pair.
    pair_visits:
        Candidate visits spent per viable pair — the per-work-item work
        distribution the SIMT divergence model consumes.
    embeddings:
        Recorded embeddings when ``config.record_embeddings`` — tuples
        ``(data_graph, query_graph, mapping)`` with ``mapping[i]`` the
        *local* data node (atom index within the data graph) matched to
        local query node ``i``.
    stats:
        Work counters.
    truncated:
        A :class:`JoinBudget` stopped the run before every pair was
        joined; results cover exactly the pairs ``< resume_pair``.
    resume_pair:
        First *unprocessed* GMCR pair index — pass it back as
        ``start_pair`` to continue the run; ``None`` when complete.
    truncate_reason:
        Human-readable budget dimension that fired (telemetry).
    backend_pairs:
        Pairs joined per backend (``"dfs"`` / ``"tabular"`` /
        ``"fused"``) — the observability split ``repro profile``
        surfaces.
    backend_visits:
        Candidate visits spent per backend.
    fused_tables:
        Fused frontier tables executed (one per wave).
    fused_pairs_per_table:
        Pairs packed into each fused table, in execution order (the
        ``join.fused.pairs_per_table`` histogram source).
    fused_early_exit_depths:
        Find First only: frontier depths at which the fused batched
        early-exit retired a matched pair's remaining rows.
    pair_cost_estimates:
        Parallel to ``gmcr.query_graph_indices``: the pre-join work
        estimate per pair (:func:`repro.accel.dispatch.estimate_elements`)
        that fused packing orders by and budgeted fused waves are sized
        with.
    fused_peak_table_bytes:
        Largest bytes of frontier tables one fused wave held at once
        (:attr:`repro.accel.fused.FusedOutcome.peak_table_bytes`), over
        waves.
    fused_level_table_bytes:
        Largest level table a level-synchronous (BFS) join of one fused
        wave would hold
        (:meth:`repro.accel.fused.FusedOutcome.level_table_bytes`), over
        waves — the memory the paper's section 4.6 rejects BFS for.
    """

    total_matches: int = 0
    pair_matches: np.ndarray | None = None
    pair_visits: np.ndarray | None = None
    embeddings: list[tuple[int, int, np.ndarray]] = field(default_factory=list)
    stats: JoinStats = field(default_factory=JoinStats)
    truncated: bool = False
    resume_pair: int | None = None
    truncate_reason: str = ""
    backend_pairs: dict[str, int] = field(default_factory=dict)
    backend_visits: dict[str, int] = field(default_factory=dict)
    fused_tables: int = 0
    fused_pairs_per_table: list[int] = field(default_factory=list)
    fused_early_exit_depths: list[int] = field(default_factory=list)
    pair_cost_estimates: np.ndarray | None = None
    fused_peak_table_bytes: int = 0
    fused_level_table_bytes: int = 0


class PlanTable:
    """Compiled matching orders of a whole query batch, as arrays.

    The batch form of :class:`QueryPlan`: row ``qg`` of ``order`` is query
    graph ``qg``'s matching order, and (query graph, depth) row
    ``k = qg * max_nodes + p`` of the ragged ``ck_*`` / ``bn_*`` columns
    holds depth ``p``'s back-edge checks and induced non-adjacency
    depths, in the order :class:`QueryPlan` lists them.  The join reads
    the arrays directly; ``table[qg]`` builds (once) the
    :class:`QueryPlan` the scalar DFS and recording paths use.

    Attributes
    ----------
    node_offsets:
        ``int64[n_graphs + 1]``: first query node of each graph (the
        query CSR-GO ``graph_offsets``).
    order:
        ``int32[n_graphs, max_nodes]``: local query node matched at each
        depth, padded with -1.
    ck_off / ck_depth / ck_label:
        ``int64`` CSR over (query graph, depth) rows: the checks
        ``(earlier_depth, edge_label)`` (-1 = any bond).
    bn_off / bn_depth:
        ``int64`` CSR over the same rows: the forbidden earlier depths
        (empty unless induced).
    """

    __slots__ = (
        "node_offsets",
        "order",
        "ck_off",
        "ck_depth",
        "ck_label",
        "bn_off",
        "bn_depth",
        "n_nodes",
        "_plans",
    )

    def __init__(
        self,
        node_offsets: np.ndarray,
        order: np.ndarray,
        ck_off: np.ndarray,
        ck_depth: np.ndarray,
        ck_label: np.ndarray,
        bn_off: np.ndarray,
        bn_depth: np.ndarray,
    ) -> None:
        self.node_offsets = node_offsets
        self.order = order
        self.ck_off = ck_off
        self.ck_depth = ck_depth
        self.ck_label = ck_label
        self.bn_off = bn_off
        self.bn_depth = bn_depth
        #: ``int64[n_graphs]``: query size (plan depth) per graph.
        self.n_nodes = xp.diff(node_offsets)
        self._plans: dict[int, QueryPlan] = {}

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The constructor arguments (what the plan memo stores)."""
        return (
            self.node_offsets,
            self.order,
            self.ck_off,
            self.ck_depth,
            self.ck_label,
            self.bn_off,
            self.bn_depth,
        )

    @property
    def max_nodes(self) -> int:
        """Largest query size (the padded width of ``order``)."""
        return int(self.order.shape[1])

    def __len__(self) -> int:
        return int(self.order.shape[0])

    def __getitem__(self, query_graph: int) -> QueryPlan:
        qg = int(query_graph)
        plan = self._plans.get(qg)
        if plan is None:
            n = int(self.n_nodes[qg])
            rows = slice(qg * self.max_nodes, qg * self.max_nodes + n + 1)
            ck = self.ck_off[rows].tolist()
            bn = self.bn_off[rows].tolist()
            checks = list(
                zip(
                    self.ck_depth[ck[0] : ck[-1]].tolist(),
                    self.ck_label[ck[0] : ck[-1]].tolist(),
                )
            )
            banned = self.bn_depth[bn[0] : bn[-1]].tolist()
            plan = QueryPlan(
                query_graph=qg,
                order=self.order[qg, :n].copy(),
                check_edges=tuple(
                    tuple(checks[ck[p] - ck[0] : ck[p + 1] - ck[0]])
                    for p in range(n)
                ),
                forbidden=tuple(
                    tuple(banned[bn[p] - bn[0] : bn[p + 1] - bn[0]])
                    for p in range(n)
                ),
            )
            self._plans[qg] = plan
        return plan


def build_plan_table(
    query: CSRGO,
    candidate_counts: np.ndarray | None = None,
    heuristic: str = "fewest-candidates",
    wildcard_edge_label: int | None = None,
    induced: bool = False,
    graphs: tuple[int, int] | None = None,
) -> PlanTable:
    """Compile the matching orders of query graphs ``graphs`` (all by default).

    ``fewest-candidates`` starts from the query node with the smallest
    candidate set and greedily extends with the connected node having the
    smallest set — prioritizing selective nodes shrinks the search tree.
    ``bfs`` uses plain breadth-first order from local node 0.  The greedy
    order runs for every graph at once (:func:`_greedy_order`); the
    checks come from one stable sort of the adjacency slots that point
    back into the matched prefix.

    Parameters
    ----------
    candidate_counts:
        Global per-query-node candidate counts (from the bitmap); required
        by the ``fewest-candidates`` heuristic.
    wildcard_edge_label:
        Query edge label meaning "any bond"; such checks are compiled to
        the sentinel -1 and the join only requires edge *existence*.
    induced:
        Compile non-adjacency checks for induced matching.
    graphs:
        Half-open range of query graphs to compile; the table is indexed
        from 0 at its first graph.
    """
    lo, hi = graphs if graphs is not None else (0, query.n_graphs)
    node_lo, node_hi = int(query.graph_offsets[lo]), int(query.graph_offsets[hi])
    node_offsets = query.graph_offsets[lo : hi + 1] - node_lo
    sizes = xp.diff(node_offsets)
    empty = xp.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(f"query graph {lo + int(empty[0])} is empty")
    slot_lo, slot_hi = (
        int(query.row_offsets[node_lo]),
        int(query.row_offsets[node_hi]),
    )
    row_offsets = query.row_offsets[node_lo : node_hi + 1] - slot_lo
    neighbors = (
        query.column_indices[slot_lo:slot_hi].astype(xp.int64) - node_lo
    )
    n_graphs = hi - lo
    max_n = int(sizes.max()) if n_graphs else 0

    if heuristic == "bfs":
        order = xp.full((n_graphs, max_n), -1, dtype=xp.int32)
        for i in range(n_graphs):
            order[i, : int(sizes[i])] = _bfs_order(query, lo + i)
    else:
        counts = None
        if heuristic == "fewest-candidates" and candidate_counts is not None:
            counts = xp.asarray(candidate_counts[node_lo:node_hi], dtype=xp.int64)
        order = _greedy_order(node_offsets, row_offsets, neighbors, counts)

    # Depth of every query node within its own graph's order.
    n_total = node_hi - node_lo
    depths = xp.arange(max_n, dtype=xp.int64)
    placed = order >= 0
    depth_of = xp.empty(n_total, dtype=xp.int64)
    depth_of[(node_offsets[:-1, None] + order)[placed]] = xp.broadcast_to(
        depths, order.shape
    )[placed]
    graph_of = xp.repeat(xp.arange(n_graphs, dtype=xp.int64), sizes)

    # Back-edge checks: adjacency slots from a node to an earlier depth,
    # grouped by the source's (graph, depth) row.  A stable sort keeps
    # each row in CSR neighbor order.
    source = xp.repeat(
        xp.arange(n_total, dtype=xp.int64), xp.diff(row_offsets)
    )
    src_depth = depth_of[source]
    nbr_depth = depth_of[neighbors]
    back = xp.flatnonzero(nbr_depth < src_depth)
    n_rows = n_graphs * max_n
    row_of = graph_of[source[back]] * max_n + src_depth[back]
    by_row = xp.argsort(row_of, kind="stable")
    ck_depth = nbr_depth[back][by_row]
    ck_label = query.adj_edge_labels[slot_lo:slot_hi][back][by_row].astype(xp.int64)
    if wildcard_edge_label is not None:
        ck_label[ck_label == wildcard_edge_label] = -1
    ck_off = _row_offsets(row_of, n_rows)

    if induced:
        # Every earlier depth of every row, minus the adjacent ones.
        row_depth = xp.where(placed, depths[None, :], 0).ravel()
        row_ids = xp.repeat(xp.arange(n_rows, dtype=xp.int64), row_depth)
        starts = xp.cumsum(row_depth) - row_depth
        earlier = xp.arange(row_ids.size, dtype=xp.int64) - xp.repeat(
            starts, row_depth
        )
        adjacent = row_of * max_n + nbr_depth[back]
        keep = ~xp.isin(row_ids * max_n + earlier, adjacent)
        bn_depth = earlier[keep]
        bn_off = _row_offsets(row_ids[keep], n_rows)
    else:
        bn_depth = xp.empty(0, dtype=xp.int64)
        bn_off = xp.zeros(n_rows + 1, dtype=xp.int64)
    return PlanTable(
        node_offsets, order, ck_off, ck_depth, ck_label, bn_off, bn_depth
    )


def _row_offsets(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR offsets of a ragged column from each entry's row id."""
    off = xp.zeros(n_rows + 1, dtype=xp.int64)
    off[1:] = xp.cumsum(xp.bincount(rows, minlength=n_rows))
    return off


def build_query_plan(
    query: CSRGO,
    query_graph: int,
    candidate_counts: np.ndarray | None = None,
    heuristic: str = "fewest-candidates",
    wildcard_edge_label: int | None = None,
    induced: bool = False,
) -> QueryPlan:
    """Compile the matching order of one query graph.

    A one-graph :func:`build_plan_table` call (see there for the
    parameters).
    """
    if not 0 <= query_graph < query.n_graphs:
        raise ValueError(f"graph index {query_graph} out of range")
    table = build_plan_table(
        query,
        candidate_counts,
        heuristic,
        wildcard_edge_label,
        induced,
        graphs=(query_graph, query_graph + 1),
    )
    return replace(table[0], query_graph=query_graph)


def _greedy_order(
    node_offsets: np.ndarray,
    row_offsets: np.ndarray,
    neighbors: np.ndarray,
    counts: np.ndarray | None,
) -> np.ndarray:
    """Fewest-candidates greedy order of every graph (highest degree first
    without counts), as ``int32[n_graphs, max_nodes]`` padded with -1.

    Each graph starts from its best node and repeatedly extends with the
    best node adjacent to its order so far, jumping to the best remaining
    node when the graph is disconnected.  One masked ``argmin`` per depth
    places the next node of every graph; ``argmin`` takes the first
    minimum, so ties go to the lowest local node id.
    """
    sizes = xp.diff(node_offsets)
    n_graphs = int(sizes.size)
    max_n = int(sizes.max()) if n_graphs else 0
    if counts is None:
        counts = -xp.diff(row_offsets)  # fall back to highest degree first
    local = xp.arange(max_n, dtype=xp.int64)
    valid = local[None, :] < sizes[:, None]
    node = xp.where(valid, node_offsets[:-1, None] + local[None, :], 0)
    unused = xp.iinfo(xp.int64).max
    cost = xp.where(valid, counts[node], unused)
    order = xp.full((n_graphs, max_n), -1, dtype=xp.int32)
    free = valid.copy()
    adjacent = xp.zeros((n_graphs, max_n), dtype=xp.bool_)
    for p in range(max_n):
        live = xp.flatnonzero(sizes > p)
        frontier = adjacent[live] & free[live]
        jump = ~frontier.any(axis=1)
        frontier[jump] = free[live][jump]
        pick = xp.argmin(xp.where(frontier, cost[live], unused), axis=1)
        order[live, p] = pick
        free[live, pick] = False
        first = node_offsets[live] + pick
        start = row_offsets[first]
        degree = row_offsets[first + 1] - start
        base = xp.cumsum(degree) - degree
        slots = xp.arange(int(degree.sum()), dtype=xp.int64) + xp.repeat(
            start - base, degree
        )
        owner = xp.repeat(live, degree)
        adjacent[owner, neighbors[slots] - node_offsets[owner]] = True
    return order


def _bfs_order(query: CSRGO, query_graph: int) -> list[int]:
    """Plain BFS order from local node 0 (secondary heuristic)."""
    from collections import deque

    start_node, stop_node = query.graph_node_range(query_graph)
    n = stop_node - start_node
    seen = xp.zeros(n, dtype=xp.bool_)
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in query.neighbors(start_node + v) - start_node:
                if not seen[u]:
                    seen[u] = True
                    queue.append(int(u))
    return order


def compile_plans(
    query: CSRGO,
    bitmap,
    config: "SigmoConfig",
) -> PlanTable:
    """Compile (or recall) the :class:`PlanTable` of a whole batch.

    Plan tables are memoized by the active array backend, query-batch
    content hash, the candidate counts the ``fewest-candidates`` heuristic
    consumed, and every config field that changes compilation (heuristic,
    wildcard edge label, induced mode) — so chunked runs, iteration sweeps
    and resilient retries over the same queries skip recompilation, while
    flipping any influencing knob (or switching backends) rebuilds.  The
    memo holds the table's arrays only; each call wraps them in a fresh
    table whose :class:`QueryPlan` objects are built on demand.
    """
    counts = bitmap.row_counts()
    key = (
        "plans",
        xp.backend_name(),
        query.content_hash(),
        array_hash(xp.ascontiguousarray(counts)),
        config.candidate_order,
        config.wildcard_edge_label,
        config.induced,
    )

    def build() -> tuple[np.ndarray, ...]:
        table = build_plan_table(
            query,
            counts,
            config.candidate_order,
            config.wildcard_edge_label,
            config.induced,
        )
        arrays = table.arrays()
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    return PlanTable(*plan_memo().get_or_build(key, build))


@kernel(writes=("stats", "record"))
def join_pair(
    view: LocalCSRView,
    plan: QueryPlan,
    cand_lists: list[np.ndarray],
    n_graph_nodes: int,
    find_first: bool,
    stats: JoinStats,
    record: list | None = None,
    record_meta: tuple[int, int] | None = None,
    max_record: int = 0,
) -> int:
    """Join one (data graph, query graph) pair with an explicit DFS stack.

    Parameters
    ----------
    view:
        Local adjacency of the data graph.
    plan:
        Matching order of the query graph.
    cand_lists:
        Per-depth candidate arrays (*local* data node ids inside the graph),
        already restricted by the filter.
    n_graph_nodes:
        Node count of the data graph (sizes the used-flags array).
    find_first:
        Stop after the first embedding.
    record / record_meta / max_record:
        Optional embedding recording (global-id conversion is the caller's
        job via ``view.start``).

    Returns
    -------
    int
        Number of embeddings found (1 max under ``find_first``).
    """
    depth_count = plan.n_nodes
    # Explicit stack: cursor per depth + assignment per depth, the private-
    # memory layout of the paper's work-item stack.  Plain Python lists —
    # per-element NumPy indexing is far slower in this scalar hot loop.
    cursor = [0] * depth_count
    assigned = [-1] * depth_count
    cand_sizes = [len(c) for c in cand_lists]
    used = bytearray(n_graph_nodes)
    matches = 0
    depth = 0
    visits = 0
    echecks = 0
    pushes = 0
    check_edges = plan.check_edges
    forbidden = plan.forbidden or ((),) * depth_count
    edge_label_of = view.edge_label_of
    width = view.width
    last_depth = depth_count - 1
    while depth >= 0:
        cands = cand_lists[depth]
        size = cand_sizes[depth]
        pos = cursor[depth]
        checks = check_edges[depth]
        banned = forbidden[depth]
        found = False
        while pos < size:
            candidate = cands[pos]
            pos += 1
            visits += 1
            if used[candidate]:
                continue
            ok = True
            for earlier_depth, elab in checks:
                echecks += 1
                lbl = edge_label_of.get(
                    candidate * width + assigned[earlier_depth], -2
                )
                # elab == -1 means any-bond: existence suffices.
                if lbl != elab and not (elab == -1 and lbl != -2):
                    ok = False
                    break
            if ok and banned:
                for earlier_depth in banned:
                    echecks += 1
                    if candidate * width + assigned[earlier_depth] in edge_label_of:
                        ok = False
                        break
            if ok:
                found = True
                break
        cursor[depth] = pos
        if not found:
            # Exhausted this depth: backtrack.
            cursor[depth] = 0
            depth -= 1
            if depth >= 0:
                prev = assigned[depth]
                if prev >= 0:
                    used[prev] = 0
                    assigned[depth] = -1
            continue
        # Place the candidate.
        assigned[depth] = candidate
        used[candidate] = 1
        pushes += 1
        if depth == last_depth:
            matches += 1
            if record is not None and len(record) < max_record and record_meta:
                mapping = xp.empty(depth_count, dtype=xp.int64)
                mapping[plan.order] = assigned
                record.append((record_meta[0], record_meta[1], mapping))
            if find_first:
                stats.candidate_visits += visits
                stats.edge_checks += echecks
                stats.stack_pushes += pushes
                return matches
            # Stay at this depth and try the next candidate.
            used[candidate] = 0
            assigned[depth] = -1
        else:
            depth += 1
    stats.candidate_visits += visits
    stats.edge_checks += echecks
    stats.stack_pushes += pushes
    return matches


def run_join(
    query: CSRGO,
    data: CSRGO,
    bitmap: CandidateBitmap,
    gmcr: GMCR,
    config: SigmoConfig | None = None,
    mode: str = FIND_ALL,
    budget: JoinBudget | None = None,
    start_pair: int = 0,
) -> JoinResult:
    """Stage 6 of the pipeline: join every viable pair.

    The engine's single join entry point.  One backend joins every pair
    of the run (:func:`repro.accel.dispatch.resolve_backend`: ``"auto"``
    is the fused table), in two passes:

    1. **Planning** — array operations over the whole batch.
       :func:`compile_plans` yields the :class:`PlanTable` (every query
       graph's order and checks as padded/ragged arrays).  The (pair,
       depth) query nodes ``node_offsets[qg] + order[qg, p]`` and the
       pairs' data graphs are the points of one
       :func:`~repro.core.candidates.segment_counts` call, which reads
       every per-depth candidate count straight from the bitmap words:
       the empty-depth skip and the work estimates.  The pairs to join
       are one GMCR-ordered index array.
    2. **Join and fold** — the backend joins the pairs in waves, each a
       GMCR-order run of them, and every wave folds into the result
       through one fold, in GMCR order:

       * ``fused``: one wave of every pair runs as one frontier table
         against the cached whole-batch edge view
         (:func:`repro.accel.local_view.get_batch_view`), packed in
         descending estimate order; :func:`build_fused_plan` gathers the
         table's query-node, list-size and check columns, and candidate
         ids only for the lists the kernel crosses.  Each wave reports
         its peak table bytes and the level-table bytes a BFS join
         would hold.  Under a :class:`JoinBudget`, waves are instead
         sized lazily by the remaining budget headroom, so a truncated
         run never pays for far-future pairs.
       * ``tabular`` (forced): one-pair waves through
         :func:`repro.accel.fused.tabular_join_pair`.
       * ``dfs`` (forced): one :func:`join_pair` per wave, over
         candidate lists gathered for every pair by one
         :func:`~repro.core.candidates.segment_ids` call.

       Under a budget the fold takes the wave's pairs up to and
       including the first after which the budget is exceeded
       (:meth:`JoinBudget.cut`) and names the next pair as
       ``resume_pair`` — the point a check before every pair finds,
       since the totals change only at joined pairs.  Because per-pair
       stats are equal across backends in Find All, truncation points,
       resume tokens, ``gmcr.matched`` and recorded embeddings are
       bitwise-identical to the DFS; plain, budgeted, recording and
       traced runs execute the same fold.

    Parameters
    ----------
    budget:
        Optional work watchdog; when a dimension is exhausted the join
        stops at the next pair boundary with ``truncated=True`` and a
        ``resume_pair`` token (see :class:`JoinBudget`).
    start_pair:
        First GMCR pair index to process (resume token from a previous
        truncated run); pairs before it are skipped untouched.
    """
    if mode not in (FIND_ALL, FIND_FIRST):
        raise ValueError(f"mode must be '{FIND_ALL}' or '{FIND_FIRST}'")
    if start_pair < 0 or start_pair > gmcr.n_pairs:
        raise ValueError(f"start_pair must be in [0, {gmcr.n_pairs}]")
    config = config or SigmoConfig()
    backend = resolve_backend(config.join_backend)
    find_first = mode == FIND_FIRST
    n_pairs = gmcr.n_pairs
    result = JoinResult(
        pair_matches=xp.zeros(n_pairs, dtype=xp.int64),
        pair_visits=xp.zeros(n_pairs, dtype=xp.int64),
        backend_pairs={BACKEND_DFS: 0, BACKEND_TABULAR: 0, BACKEND_FUSED: 0},
        backend_visits={BACKEND_DFS: 0, BACKEND_TABULAR: 0, BACKEND_FUSED: 0},
        pair_cost_estimates=xp.zeros(n_pairs, dtype=xp.int64),
    )
    recording = config.record_embeddings
    max_record = config.max_embeddings_recorded

    tracer = get_tracer()
    with tracer.span(
        "stage:join", category="stage", mode=mode, pairs=n_pairs
    ) as stage_sp, tracer.span(
        "kernel:join", category="kernel", work_items=n_pairs
    ):
        plans = compile_plans(query, bitmap, config)
        pair_qg = xp.asarray(gmcr.query_graph_indices, dtype=xp.int64)
        pair_graph = xp.repeat(
            xp.arange(gmcr.n_data_graphs, dtype=xp.int64),
            xp.diff(gmcr.data_graph_offsets),
        )

        # -- pass 1: plan every pair (candidate counts, viability, estimates) --
        tail = xp.arange(start_pair, n_pairs, dtype=xp.int64)
        tail_qg = pair_qg[tail]
        order = plans.order[tail_qg]
        placed = order >= 0
        nodes = xp.where(placed, plans.node_offsets[tail_qg, None] + order, 0)
        depths = plans.n_nodes[tail_qg]
        # Placed depths are a prefix of each row, so ``repeat`` lines the
        # pairs' graphs up with ``nodes[placed]``.
        counts = xp.ones(nodes.shape, dtype=xp.int64)
        counts[placed] = segment_counts(
            bitmap, data.graph_offsets, nodes[placed], xp.repeat(pair_graph[tail], depths)
        )
        viable = (counts > 0).all(axis=1)
        for n in xp.unique(depths[viable]).tolist():
            group = xp.flatnonzero(viable & (depths == n))
            result.pair_cost_estimates[tail[group]] = estimate_elements(
                n, counts[group, :n].T
            )
        joined = tail[viable]  # the pairs to join, in GMCR order
        slot_ids = xp.arange(joined.size, dtype=xp.int64)
        if backend == BACKEND_DFS:
            # Every pair's per-depth candidate lists in one gather, pair
            # after pair in plan order; pair ``i``'s first segment in
            # ``dfs_off`` is ``dfs_seg[i]``.
            depths = depths[viable]
            dfs_ids, dfs_off = segment_ids(
                bitmap,
                data.graph_offsets,
                nodes[viable][placed[viable]],
                xp.repeat(pair_graph[joined], depths),
            )
            dfs_off = dfs_off.tolist()
            dfs_seg = (xp.cumsum(depths) - depths).tolist()
        del order, placed, nodes, counts  # free before the join

        def fold(pairs: np.ndarray, acc: FusedOutcome, slots: np.ndarray) -> None:
            """Fold a GMCR-order run of joined pairs into the result.

            ``acc`` slot ``slots[i]`` holds pair ``pairs[i]``'s outcome.
            Under a budget only the pairs through :meth:`JoinBudget.cut`
            fold, and the run truncates after them unless nothing
            follows.
            """
            matches = acc.matches[slots]
            visits = acc.visits[slots]
            pushes = acc.pushes[slots]
            if budget is not None:
                n = budget.cut(result.total_matches, result.stats, matches, visits, pushes)
                pairs, slots = pairs[:n], slots[:n]
                matches, visits, pushes = matches[:n], visits[:n], pushes[:n]
            n_visits = int(visits.sum())
            result.pair_matches[pairs] = matches
            result.pair_visits[pairs] = visits
            result.stats.pairs_joined += pairs.size
            result.stats.candidate_visits += n_visits
            result.stats.edge_checks += int(acc.echecks[slots].sum())
            result.stats.stack_pushes += int(pushes.sum())
            result.backend_pairs[backend] += pairs.size
            result.backend_visits[backend] += n_visits
            gmcr.matched[pairs[matches > 0]] = True
            result.total_matches += int(matches.sum())
            record = result.embeddings
            for i in xp.flatnonzero(matches).tolist() if acc.rows else ():
                if len(record) >= max_record:
                    break
                rows = slot_rows(acc, int(slots[i]))
                if rows is None:
                    continue
                d, qg = int(pair_graph[pairs[i]]), int(pair_qg[pairs[i]])
                mapping = xp.empty(rows.shape, dtype=xp.int64)
                mapping[:, plans.order[qg, : rows.shape[1]]] = (
                    rows - data.graph_offsets[d]
                )
                record.extend((d, qg, m) for m in mapping[: max_record - len(record)])
            if budget is None:
                return
            reason = budget.exceeded(result.total_matches, result.stats)
            if reason is not None and int(pairs[-1]) + 1 < n_pairs:
                result.truncated = True
                result.resume_pair = int(pairs[-1]) + 1
                result.truncate_reason = reason

        batch_view = (
            get_batch_view(data) if joined.size and backend != BACKEND_DFS else None
        )
        # Running estimate totals along the joined pairs, for wave sizing.
        queue_est = xp.cumsum(result.pair_cost_estimates[joined])

        def wave_size(pos: int) -> int:
            """Pairs the next wave, from ``joined[pos]``, takes.

            The forced arms join one pair per wave, the fused table every
            remaining pair.  Under a budget fused waves are bounded by the
            remaining visit/push headroom (the cost estimates approximate
            visits): pairs join the wave up to and including the first
            whose running estimate exceeds the headroom, so a run about to
            truncate fuses only as far as the budget could plausibly reach
            — never the whole remaining batch.
            """
            if backend != BACKEND_FUSED:
                return 1
            remaining = joined.size - pos
            if budget is None:
                return remaining
            headroom: int | None = None
            if budget.max_visits is not None:
                headroom = budget.max_visits - result.stats.candidate_visits
            if budget.max_pushes is not None:
                left = budget.max_pushes - result.stats.stack_pushes
                headroom = left if headroom is None else min(headroom, left)
            if headroom is None:
                return remaining
            spent = int(queue_est[pos - 1]) if pos else 0
            over = int(
                xp.searchsorted(queue_est[pos:], spent + headroom, side="right")
            )
            return max(min(over + 1, remaining), 1)

        def fused_wave(wave: np.ndarray) -> tuple[FusedOutcome, np.ndarray]:
            """Join ``wave`` as one fused table; (outcome, slot of each pair)."""
            packing = packing_order(result.pair_cost_estimates[wave])
            packed = wave[packing]
            fplan = build_fused_plan(
                pair_qg[packed], pair_graph[packed], plans, bitmap, data.graph_offsets
            )
            acc = FusedOutcome.empty(packed.size)
            with tracer.span(
                "kernel:accel:join-fused",
                category="kernel",
                pairs=packed.size,
            ) as fused_sp, tracer.span(
                "wg:fused", category="workgroup", pairs=packed.size
            ) as fused_wg:
                fused_join(
                    batch_view,
                    fplan,
                    find_first,
                    acc,
                    record_rows=recording,
                    max_record=max_record,
                )
                wave_matches = int(acc.matches.sum())
                level_bytes = acc.level_table_bytes()
                fused_wg.set(matches=wave_matches)
                fused_sp.set(
                    matches=wave_matches,
                    peak_table_bytes=acc.peak_table_bytes,
                    level_table_bytes=level_bytes,
                )
            result.fused_peak_table_bytes = max(
                result.fused_peak_table_bytes, acc.peak_table_bytes
            )
            result.fused_level_table_bytes = max(
                result.fused_level_table_bytes, level_bytes
            )
            result.fused_tables += 1
            result.fused_pairs_per_table.append(packed.size)
            result.fused_early_exit_depths.extend(acc.early_exit_depths)
            slots = xp.empty_like(packing)
            slots[packing] = slot_ids[: packed.size]
            return acc, slots

        def tabular_wave(wave: np.ndarray) -> tuple[FusedOutcome, np.ndarray]:
            """Join the one pair of ``wave`` as its own one-slot table."""
            p = int(wave[0])
            qg, d = int(pair_qg[p]), int(pair_graph[p])
            with tracer.span(
                "kernel:accel:join-tabular", category="kernel", pair=p, query=qg
            ) as pair_sp:
                acc = tabular_join_pair(
                    batch_view,
                    plans,
                    bitmap,
                    data.graph_offsets,
                    qg,
                    d,
                    find_first,
                    record_rows=recording,
                    max_record=max_record,
                )
                pair_sp.set(matches=int(acc.matches[0]))
            return acc, slot_ids[:1]

        dfs_acc = FusedOutcome.empty(joined.size if backend == BACKEND_DFS else 0)
        dfs_views: dict[int, LocalCSRView] = {}

        def dfs_wave(wave: np.ndarray, pos: int) -> tuple[FusedOutcome, np.ndarray]:
            """Join the one pair of ``wave`` with the scalar DFS.

            Its counters land in slot ``pos`` of one outcome for every
            pair; the DFS records its embeddings itself.
            """
            p = int(wave[0])
            qg, d = int(pair_qg[p]), int(pair_graph[p])
            view = dfs_views.get(d)
            if view is None:
                view = dfs_views[d] = get_local_view(data, d)
            d_start, d_stop = data.graph_node_range(d)
            plan = plans[qg]
            cuts = dfs_off[dfs_seg[pos] : dfs_seg[pos] + plan.n_nodes + 1]
            local = (dfs_ids[cuts[0] : cuts[-1]] - d_start).tolist()
            stats = JoinStats()
            with tracer.span(
                "kernel:join-dfs", category="kernel", pair=p, query=qg
            ) as pair_sp:
                found = join_pair(
                    view,
                    plan,
                    [
                        local[a - cuts[0] : b - cuts[0]]
                        for a, b in zip(cuts[:-1], cuts[1:])
                    ],
                    d_stop - d_start,
                    find_first,
                    stats,
                    record=result.embeddings if recording else None,
                    record_meta=(d, qg),
                    max_record=max_record,
                )
                pair_sp.set(matches=found)
            dfs_acc.matches[pos] = found
            dfs_acc.visits[pos] = stats.candidate_visits
            dfs_acc.echecks[pos] = stats.edge_checks
            dfs_acc.pushes[pos] = stats.stack_pushes
            return dfs_acc, slot_ids[pos : pos + 1]

        # -- pass 2: join and fold, wave after wave -------------------------------
        pos = 0
        while pos < joined.size and not result.truncated:
            wave = joined[pos : pos + wave_size(pos)]
            if backend == BACKEND_FUSED:
                acc, slots = fused_wave(wave)
            elif backend == BACKEND_TABULAR:
                acc, slots = tabular_wave(wave)
            else:
                acc, slots = dfs_wave(wave, pos)
            fold(wave, acc, slots)
            pos += wave.size
        stage_sp.set(
            matches=result.total_matches,
            candidate_visits=result.stats.candidate_visits,
            edge_checks=result.stats.edge_checks,
            stack_pushes=result.stats.stack_pushes,
            truncated=result.truncated,
            backend_pairs_dfs=result.backend_pairs[BACKEND_DFS],
            backend_pairs_tabular=result.backend_pairs[BACKEND_TABULAR],
            backend_pairs_fused=result.backend_pairs[BACKEND_FUSED],
        )
    return result
