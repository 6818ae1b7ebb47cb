"""Join phase: stack-based DFS backtracking over filtered candidates.

GPUs do not support recursion, so the paper simulates it with an explicit
stack in private memory, one stack per work-item, bounded by the query size
(section 4.6).  This module reproduces that design faithfully: the inner
search is an iterative loop over preallocated integer arrays — a stack of
candidate cursors — with no recursion and no per-step allocation.

Execution model (paper section 4.6): each *data graph* is a work-group;
the work-items of the group iterate over the query graphs GMCR mapped to
that data graph, one query per work-item at a time.  The driver loop here
follows the same nesting (data graph outer, query graph inner) so the
device simulator can replay it with real per-pair work counts.

Matching semantics are paper Def. 2.1: injective, label-preserving, every
query edge present in the data graph, and edge labels must agree
(section 3: "edge labels are evaluated to prevent invalid matches").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import xp
from repro.accel.dispatch import (
    BACKEND_DFS,
    BACKEND_FUSED,
    BACKEND_TABULAR,
    PlanCostModel,
    get_cost_model,
)
from repro.accel.fused import FusedOutcome, build_fused_plan, fused_join, slot_rows
from repro.accel.local_view import LocalCSRView, get_batch_view, get_local_view
from repro.accel.memo import array_hash, plan_memo
from repro.accel.tabular import tabular_join_pair
from repro.analysis.markers import kernel
from repro.core.candidates import CandidateBitmap
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.mapping import GMCR
from repro.obs.trace import get_tracer
from repro.utils.timing import StageTimer

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
        Parallel to ``gmcr.query_graph_indices``: the plan-cost model's
        pre-dispatch work estimate per pair (``repro calibrate``
        regresses wall-clock on these).
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


def build_query_plan(
    query: CSRGO,
    query_graph: int,
    candidate_counts: np.ndarray | None = None,
    heuristic: str = "fewest-candidates",
    wildcard_edge_label: int | None = None,
    induced: bool = False,
) -> QueryPlan:
    """Compile the matching order of one query graph.

    ``fewest-candidates`` starts from the query node with the smallest
    candidate set and greedily extends with the connected node having the
    smallest set — prioritizing selective nodes shrinks the search tree.
    ``bfs`` uses plain breadth-first order from local node 0.

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
    """
    start_node, stop_node = query.graph_node_range(query_graph)
    n = stop_node - start_node
    if n == 0:
        raise ValueError(f"query graph {query_graph} is empty")

    if heuristic == "bfs":
        order = _bfs_order(query, query_graph)
    else:
        order = _greedy_order(
            query,
            query_graph,
            candidate_counts if heuristic == "fewest-candidates" else None,
        )

    position = {node: p for p, node in enumerate(order)}
    check_edges: list[tuple[tuple[int, int], ...]] = []
    forbidden: list[tuple[int, ...]] = []
    for p, node in enumerate(order):
        checks = []
        global_node = start_node + node
        nbrs = query.neighbors(global_node)
        elabs = query.neighbor_edge_labels(global_node)
        adjacent_depths = set()
        for nbr, elab in zip(nbrs, elabs):
            p2 = position[int(nbr) - start_node]
            if p2 < p:
                adjacent_depths.add(p2)
                code = int(elab)
                if wildcard_edge_label is not None and code == wildcard_edge_label:
                    code = -1  # any-bond sentinel
                checks.append((p2, code))
        check_edges.append(tuple(checks))
        if induced:
            forbidden.append(
                tuple(p2 for p2 in range(p) if p2 not in adjacent_depths)
            )
        else:
            forbidden.append(())
    return QueryPlan(
        query_graph=query_graph,
        order=xp.asarray(order, dtype=xp.int32),
        check_edges=tuple(check_edges),
        forbidden=tuple(forbidden),
    )


def _greedy_order(
    query: CSRGO, query_graph: int, candidate_counts: np.ndarray | None
) -> list[int]:
    """Fewest-candidates greedy order (highest degree first without counts).

    Starts from the best node and repeatedly extends with the best node
    adjacent to the order so far, jumping to the best remaining node when
    the query graph is disconnected.
    """
    start_node, stop_node = query.graph_node_range(query_graph)
    n = stop_node - start_node

    def local_neighbors(local: int) -> np.ndarray:
        return query.neighbors(start_node + local) - start_node

    if candidate_counts is not None:
        counts = xp.asarray(candidate_counts[start_node:stop_node], dtype=xp.int64)
    else:
        counts = xp.diff(
            query.row_offsets[start_node : stop_node + 1]
        ).astype(xp.int64) * -1  # fall back to highest degree first
    order: list[int] = [int(xp.argmin(counts))]
    in_order = xp.zeros(n, dtype=xp.bool_)
    in_order[order[0]] = True
    adjacent = xp.zeros(n, dtype=xp.bool_)
    adjacent[local_neighbors(order[0])] = True
    while len(order) < n:
        frontier = xp.nonzero(adjacent & ~in_order)[0]
        if frontier.size == 0:
            # Disconnected query graph: jump to the best remaining node.
            frontier = xp.nonzero(~in_order)[0]
        pick = int(frontier[xp.argmin(counts[frontier])])
        order.append(pick)
        in_order[pick] = True
        adjacent[local_neighbors(pick)] = True
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
) -> list[QueryPlan]:
    """Compile (or recall) the query plans of a whole batch.

    Plan lists are memoized by the active array backend, query-batch
    content hash, the candidate counts the ``fewest-candidates`` heuristic
    consumed, and every config field that changes compilation (heuristic,
    wildcard edge label, induced mode) — so chunked runs, iteration sweeps
    and resilient retries over the same queries skip recompilation, while
    flipping any influencing knob (or switching backends) rebuilds.
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
    return plan_memo().get_or_build(
        key,
        lambda: [
            build_query_plan(
                query,
                qg,
                counts,
                config.candidate_order,
                config.wildcard_edge_label,
                config.induced,
            )
            for qg in range(query.n_graphs)
        ],
    )


#: Back-compat alias: the historical per-run dict-building view is now the
#: cached sorted-CSR view of :mod:`repro.accel.local_view`, which exposes
#: the same ``start`` / ``width`` / ``edge_label_of`` interface for the
#: scalar backends (the dict is built lazily, at most once per batch and
#: graph) plus the vectorized ``lookup_edge_labels`` the tabular backend
#: uses.
_LocalGraphView = LocalCSRView


@kernel(writes=("stats", "record"))
def join_pair(
    view: _LocalGraphView,
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
    timer: StageTimer | None = None,
    plans: list[QueryPlan] | None = None,
    budget: JoinBudget | None = None,
    start_pair: int = 0,
    cost_model: "PlanCostModel | None" = None,
) -> JoinResult:
    """Stage 6 of the pipeline: join every viable pair.

    The engine's single join dispatch point, in three passes:

    1. **Planning** — slice every pair's candidate lists from the bitmap
       (binary-search views, no copies) and let the plan-cost model
       (:class:`repro.accel.dispatch.PlanCostModel`) pick each pair's
       backend under ``config.join_backend``: scalar DFS
       (:func:`join_pair`), per-pair tabular
       (:func:`repro.accel.tabular.tabular_join_pair`), or the fused
       whole-batch table (:mod:`repro.accel.fused`).
    2. **Fused waves** — all fused-dispatched pairs of the batch run as
       one frontier table (one wave) against the cached whole-batch edge
       index (:func:`repro.accel.local_view.get_batch_view`), packed in
       the cost model's ordering.  Under a :class:`JoinBudget`, waves
       are instead sized lazily by the remaining budget headroom so a
       truncated run never pays for far-future pairs.
    3. **Replay** — pairs are accounted in GMCR order: DFS/tabular pairs
       execute in place, fused pairs fold in their precomputed per-slot
       results, and the budget is checked before *every* pair.  Because
       the fused per-pair stats equal the sequential backends' stats in
       Find All, truncation points, resume tokens, ``gmcr.matched`` and
       recorded embeddings come out bitwise-identical to a pure
       sequential run, whatever mix of backends dispatch chose.

    Parameters
    ----------
    budget:
        Optional work watchdog; when a dimension is exhausted the join
        stops at the next pair boundary with ``truncated=True`` and a
        ``resume_pair`` token (see :class:`JoinBudget`).
    start_pair:
        First GMCR pair index to process (resume token from a previous
        truncated run); pairs before it are skipped untouched.
    cost_model:
        Dispatch cost model override; the process-wide model
        (:func:`repro.accel.dispatch.get_cost_model`) by default.
    """
    if mode not in (FIND_ALL, FIND_FIRST):
        raise ValueError(f"mode must be '{FIND_ALL}' or '{FIND_FIRST}'")
    if start_pair < 0 or start_pair > gmcr.n_pairs:
        raise ValueError(f"start_pair must be in [0, {gmcr.n_pairs}]")
    config = config or SigmoConfig()
    timer = timer or StageTimer()
    find_first = mode == FIND_FIRST
    model = cost_model if cost_model is not None else get_cost_model()
    result = JoinResult(
        pair_matches=xp.zeros(gmcr.n_pairs, dtype=xp.int64),
        pair_visits=xp.zeros(gmcr.n_pairs, dtype=xp.int64),
        backend_pairs={BACKEND_DFS: 0, BACKEND_TABULAR: 0, BACKEND_FUSED: 0},
        backend_visits={BACKEND_DFS: 0, BACKEND_TABULAR: 0, BACKEND_FUSED: 0},
        pair_cost_estimates=xp.zeros(gmcr.n_pairs, dtype=xp.int64),
    )
    record = result.embeddings if config.record_embeddings else None
    max_record = config.max_embeddings_recorded

    tracer = get_tracer()
    with timer.stage("join"), tracer.span(
        "stage:join", category="stage", mode=mode, pairs=gmcr.n_pairs
    ) as stage_sp, tracer.span(
        "kernel:join", category="kernel", work_items=gmcr.n_pairs
    ):
        if plans is None:
            plans = compile_plans(query, bitmap, config)
        # Unpack each query node's candidate row once (sorted global ids)
        # and cut it at every data-graph boundary in one vectorized
        # searchsorted; per-pair restriction is then two cached offset
        # lookups instead of a per-(pair, depth) binary search.
        from repro.utils.bitops import bit_positions

        graph_cuts = data.graph_offsets
        row_slices: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def slices_of(global_q: int) -> tuple[np.ndarray, np.ndarray]:
            cached = row_slices.get(global_q)
            if cached is None:
                positions = bit_positions(bitmap.words[global_q], bitmap.word_bits)
                cached = (positions, xp.searchsorted(positions, graph_cuts))
                row_slices[global_q] = cached
            return cached

        # -- pass 1: plan every pair (candidate slices + backend choice) -------
        # Candidate arrays are *global*-id views into the bitmap's position
        # rows; DFS/tabular pairs localize them at execution time, the
        # fused table consumes them directly (its edge index is global).
        pair_data: list[tuple[int, str, list[np.ndarray]] | None] = [
            None
        ] * gmcr.n_pairs
        fused_queue: list[int] = []  # fused-dispatched pair indices, GMCR order

        # All pairs of one query graph share a plan, and each plan-order
        # node's candidate row is already cut at every data-graph
        # boundary — so backend choice and cost estimate for *all* of a
        # query graph's pairs collapse into one vectorized
        # ``choose_batch`` call, cached here per query graph.
        qg_plan_cache: dict[
            int,
            tuple[
                list[tuple[np.ndarray, np.ndarray]],
                np.ndarray,
                np.ndarray,
                list[str],
            ],
        ] = {}

        def qg_info(qg: int):
            cached = qg_plan_cache.get(qg)
            if cached is None:
                plan = plans[qg]
                q_start, _ = query.graph_node_range(plan.query_graph)
                rows = [slices_of(q_start + int(lq)) for lq in plan.order]
                counts = xp.stack([cuts[1:] - cuts[:-1] for _, cuts in rows])
                nonempty = (counts > 0).all(axis=0)
                estimates = model.estimate_elements_batch(plan.n_nodes, counts)
                choices = model.choose_batch(
                    find_first, plan.n_nodes, counts, config.join_backend
                )
                cached = (rows, nonempty, estimates, choices)
                qg_plan_cache[qg] = cached
            return cached

        for d in range(gmcr.n_data_graphs):
            pair_lo = int(gmcr.data_graph_offsets[d])
            pair_hi = int(gmcr.data_graph_offsets[d + 1])
            if pair_hi == pair_lo or pair_hi <= start_pair:
                continue
            for pair_idx in range(max(pair_lo, start_pair), pair_hi):
                qg = int(gmcr.query_graph_indices[pair_idx])
                rows, nonempty, estimates, choices = qg_info(qg)
                if not nonempty[d]:
                    continue
                cand_arrays = [
                    positions[cuts[d] : cuts[d + 1]] for positions, cuts in rows
                ]
                chosen = choices[d]
                result.pair_cost_estimates[pair_idx] = estimates[d]
                pair_data[pair_idx] = (qg, chosen, cand_arrays)
                if chosen == BACKEND_FUSED:
                    fused_queue.append(pair_idx)

        # -- pass 2: fused waves ------------------------------------------------
        fused_acc: dict[int, tuple[FusedOutcome, int]] = {}
        batch_view = get_batch_view(data) if fused_queue else None
        fused_pos = 0  # next unexecuted index into fused_queue
        traced = tracer.enabled
        # With no budget to police, no embeddings to record and no spans
        # to attribute, per-pair replay of fused slots is pure bookkeeping
        # — fold the whole wave into the result arrays vectorized instead.
        fast_fold = budget is None and record is None and not traced
        prefolded = xp.zeros(gmcr.n_pairs, dtype=xp.bool_)

        def run_wave(n_wave_pairs: int) -> None:
            """Execute the next ``n_wave_pairs`` fused pairs as one table."""
            nonlocal fused_pos
            wave = fused_queue[fused_pos : fused_pos + n_wave_pairs]
            fused_pos += len(wave)
            order = model.ordering(
                [int(result.pair_cost_estimates[p]) for p in wave]
            )
            packed = [wave[i] for i in order]
            fplan = build_fused_plan(
                [(plans[pair_data[p][0]], pair_data[p][2]) for p in packed]
            )
            acc = FusedOutcome.empty(len(packed))
            with tracer.span(
                "kernel:accel:join-fused",
                category="kernel",
                pairs=len(packed),
            ) as fused_sp, tracer.span(
                "wg:fused", category="workgroup", pairs=len(packed)
            ) as fused_wg:
                fused_join(
                    batch_view,
                    fplan,
                    find_first,
                    acc,
                    record_rows=record is not None,
                    max_record=max_record,
                )
                wave_matches = int(acc.matches.sum())
                fused_wg.set(matches=wave_matches)
                fused_sp.set(matches=wave_matches)
            result.fused_tables += 1
            result.fused_pairs_per_table.append(len(packed))
            result.fused_early_exit_depths.extend(acc.early_exit_depths)
            if fast_fold:
                pair_arr = xp.asarray(packed, dtype=xp.int64)
                wave_visits = int(acc.visits.sum())
                result.pair_matches[pair_arr] = acc.matches
                result.pair_visits[pair_arr] = acc.visits
                result.stats.pairs_joined += len(packed)
                result.stats.candidate_visits += wave_visits
                result.stats.edge_checks += int(acc.echecks.sum())
                result.stats.stack_pushes += int(acc.pushes.sum())
                result.backend_pairs[BACKEND_FUSED] += len(packed)
                result.backend_visits[BACKEND_FUSED] += wave_visits
                gmcr.matched[pair_arr[acc.matches > 0]] = True
                result.total_matches += wave_matches
                prefolded[pair_arr] = True
            else:
                for slot, p in enumerate(packed):
                    fused_acc[p] = (acc, slot)

        def wave_size() -> int:
            """Fused pairs the next lazily-sized wave may take.

            Bounded by the remaining visit/push budget headroom (the
            cost estimates approximate visits), so a run about to
            truncate fuses only as far as the budget could plausibly
            reach — never the whole remaining batch.
            """
            headroom: int | None = None
            if budget.max_visits is not None:
                headroom = budget.max_visits - result.stats.candidate_visits
            if budget.max_pushes is not None:
                left = budget.max_pushes - result.stats.stack_pushes
                headroom = left if headroom is None else min(headroom, left)
            if headroom is None:
                return len(fused_queue) - fused_pos
            taken = 0
            total_est = 0
            for p in fused_queue[fused_pos:]:
                taken += 1
                total_est += int(result.pair_cost_estimates[p])
                if total_est > headroom:
                    break
            return max(taken, 1)

        if fused_queue and budget is None:
            run_wave(len(fused_queue))

        # -- pass 3: replay in GMCR order ----------------------------------------
        for d in range(gmcr.n_data_graphs):
            pair_lo = int(gmcr.data_graph_offsets[d])
            pair_hi = int(gmcr.data_graph_offsets[d + 1])
            if pair_hi == pair_lo or pair_hi <= start_pair:
                continue
            if result.truncated:
                break
            d_start, d_stop = data.graph_node_range(d)
            n_graph_nodes = d_stop - d_start
            view: LocalCSRView | None = None
            # One work-group per data graph (paper section 4.6).
            with tracer.span(
                f"wg:data-{d}", category="workgroup", pairs=pair_hi - pair_lo
            ) as wg:
                group_matches = result.total_matches
                for pair_idx in range(max(pair_lo, start_pair), pair_hi):
                    if budget is not None:
                        reason = budget.exceeded(result.total_matches, result.stats)
                        if reason is not None:
                            result.truncated = True
                            result.resume_pair = pair_idx
                            result.truncate_reason = reason
                            break
                    if prefolded[pair_idx]:
                        continue
                    planned = pair_data[pair_idx]
                    if planned is None:
                        continue
                    qg, chosen, cand_arrays = planned
                    plan = plans[qg]
                    result.stats.pairs_joined += 1
                    if chosen == BACKEND_FUSED:
                        if pair_idx not in fused_acc:
                            run_wave(wave_size())
                        acc, slot = fused_acc[pair_idx]
                        found = int(acc.matches[slot])
                        pair_visits = int(acc.visits[slot])
                        result.stats.candidate_visits += pair_visits
                        result.stats.edge_checks += int(acc.echecks[slot])
                        result.stats.stack_pushes += int(acc.pushes[slot])
                        if record is not None and found:
                            rows = slot_rows(acc, slot)
                            order = xp.asarray(plan.order, dtype=xp.int64)
                            for r in range(0 if rows is None else rows.shape[0]):
                                if len(record) >= max_record:
                                    break
                                mapping = xp.empty(plan.n_nodes, dtype=xp.int64)
                                mapping[order] = rows[r] - d_start
                                record.append((d, qg, mapping))
                    else:
                        if view is None:
                            view = get_local_view(data, d)
                        visits_before = result.stats.candidate_visits
                        if chosen == BACKEND_TABULAR:
                            span_name = "kernel:accel:join-tabular"
                        else:
                            span_name = "kernel:join-dfs"
                        pair_span = (
                            tracer.span(
                                span_name, category="kernel", pair=pair_idx, query=qg
                            )
                            if traced
                            else None
                        )
                        if pair_span is not None:
                            pair_span.__enter__()
                        try:
                            if chosen == BACKEND_TABULAR:
                                found = tabular_join_pair(
                                    view,
                                    plan,
                                    [a - d_start for a in cand_arrays],
                                    find_first,
                                    result.stats,
                                    record=record,
                                    record_meta=(d, qg),
                                    max_record=max_record,
                                )
                            else:
                                found = join_pair(
                                    view,
                                    plan,
                                    [(a - d_start).tolist() for a in cand_arrays],
                                    n_graph_nodes,
                                    find_first,
                                    result.stats,
                                    record=record,
                                    record_meta=(d, qg),
                                    max_record=max_record,
                                )
                        finally:
                            if pair_span is not None:
                                pair_span.set(matches=found)
                                pair_span.__exit__(None, None, None)
                        pair_visits = result.stats.candidate_visits - visits_before
                    result.backend_pairs[chosen] += 1
                    result.backend_visits[chosen] += pair_visits
                    result.pair_matches[pair_idx] = found
                    result.pair_visits[pair_idx] = pair_visits
                    if found:
                        gmcr.matched[pair_idx] = True
                    result.total_matches += found
                wg.set(matches=result.total_matches - group_matches)
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
