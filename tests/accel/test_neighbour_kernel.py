"""The neighbour-driven frontier kernel against the cross-product kernels.

The oracles below are the two kernels the neighbour-driven extension
replaced: the fused table's cross-product ``extend_fused_block`` (every
row crossed with its slot's whole candidate list, then the injectivity
mask and every check round on the elements) and the per-pair
``tabular_join_pair`` built on ``extend_frontier``.  On random batches —
dense and binary-search probes, induced mode, wildcard edge labels,
disconnected and single-node queries — the new kernel must return the
same rows in the same order and account the same per-slot work, block
by block, and the forced ``"tabular"`` arm must equal the old per-pair
kernel pair by pair.
"""

import numpy as np
import pytest

from repro.accel import fused, local_view
from repro.accel.fused import (
    FusedOutcome,
    _ragged_take,
    build_fused_plan,
    extend_fused_block,
    slot_rows,
)
from repro.accel.local_view import get_batch_view
from repro.core import join
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.filtering import IterativeFilter
from repro.core.join import FIND_ALL, FIND_FIRST, JoinStats, compile_plans
from repro.core.mapping import build_gmcr
from repro.graph.generators import random_connected_graph, random_subgraph_pattern
from repro.graph.labeled_graph import LabeledGraph
from repro.utils.bitops import ragged_at
from tests.accel.test_parity import _embeddings, _run, assert_find_all_parity

pytestmark = pytest.mark.perf_accel

#: Element bound of the oracle per-pair kernel's blocks.
ORACLE_BLOCK_ELEMS = 1 << 14


# -- oracle: the cross-product fused kernel -------------------------------------


def _dense_index(bitmap, graph_offsets):
    """(positions, cuts) of every row's set bits cut at every data-graph
    boundary, from the unpacked bitmap: row ``q``'s candidates inside
    graph ``g`` are ``positions[cuts[q, g] : cuts[q, g + 1]]``."""
    keys = np.flatnonzero(bitmap.to_bool())
    n_bits = bitmap.n_data_nodes
    bounds = np.arange(bitmap.n_query_nodes)[:, None] * n_bits + graph_offsets[None, :]
    cuts = np.searchsorted(keys, bounds.ravel()).reshape(bounds.shape)
    return keys % max(n_bits, 1), cuts


def _lists_of(index, nodes, graph):
    """Candidate arrays (global ids) of ``nodes`` in one data graph."""
    positions, cuts = index
    return [positions[cuts[q, graph] : cuts[q, graph + 1]] for q in nodes]


def _full_lists(query_graphs, data_graphs, plans, index):
    """Every (slot, depth) candidate list: the columns the old plan held."""
    positions, cuts = index
    qg = np.asarray(query_graphs, dtype=np.int64)
    graphs = np.asarray(data_graphs, dtype=np.int64)
    depth_counts = plans.n_nodes[qg]
    flat_lists, offsets = [], []
    for d in range(int(depth_counts.max())):
        live = depth_counts > d
        nodes = np.where(live, plans.node_offsets[qg] + plans.order[qg, d], 0)
        starts = cuts[nodes, graphs]
        sizes = np.where(live, cuts[nodes, graphs + 1] - starts, 0)
        flat, off = _ragged_take(positions, starts, sizes)
        flat_lists.append(flat)
        offsets.append(off)
    return flat_lists, offsets


def oracle_extend_fused_block(view, fplan, lists, table, acc):
    """The cross-product kernel: rows x their slot's list, then checks."""
    cand_flat, cand_offsets = lists
    depth = table.shape[1] - 1
    slots = table[:, 0]
    n_slots = fplan.n_slots
    cand_off = cand_offsets[depth]
    counts = cand_off[slots + 1] - cand_off[slots]
    total = int(counts.sum())
    row_idx = np.repeat(np.arange(table.shape[0], dtype=np.int64), counts)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    cand = cand_flat[depth][np.repeat(cand_off[slots], counts) + within]
    eslot = np.repeat(slots, counts)
    acc.visits += np.bincount(eslot, minlength=n_slots)
    dup = np.zeros(total, dtype=bool)
    for c in range(1, table.shape[1]):
        dup |= table[row_idx, c] == cand
    row_idx, cand, eslot = row_idx[~dup], cand[~dup], eslot[~dup]
    width = np.int64(view.width)
    ck_off = fplan.ck_off[depth]
    n_checks = ck_off[eslot + 1] - ck_off[eslot]
    for k in range(int(n_checks.max()) if n_checks.size else 0):
        active = np.nonzero(n_checks > k)[0]
        acc.echecks += np.bincount(eslot[active], minlength=n_slots)
        at = ck_off[eslot[active]] + k
        earlier = fplan.ck_depth[depth][at]
        label = fplan.ck_label[depth][at]
        keys = cand[active] * width + table[row_idx[active], 1 + earlier]
        found, labels = view.probe_labels(keys)
        alive = np.ones(eslot.size, dtype=bool)
        alive[active[~(found & ((label == -1) | (labels == label)))]] = False
        row_idx, cand, eslot = row_idx[alive], cand[alive], eslot[alive]
        n_checks = n_checks[alive]
    bn_off = fplan.bn_off[depth]
    n_banned = bn_off[eslot + 1] - bn_off[eslot]
    for k in range(int(n_banned.max()) if n_banned.size else 0):
        active = np.nonzero(n_banned > k)[0]
        acc.echecks += np.bincount(eslot[active], minlength=n_slots)
        at = bn_off[eslot[active]] + k
        keys = cand[active] * width + table[row_idx[active], 1 + fplan.bn_depth[depth][at]]
        found, _ = view.probe_labels(keys)
        alive = np.ones(eslot.size, dtype=bool)
        alive[active[found]] = False
        row_idx, cand, eslot = row_idx[alive], cand[alive], eslot[alive]
        n_banned = n_banned[alive]
    acc.pushes += np.bincount(eslot, minlength=n_slots)
    new_table = np.empty((eslot.size, table.shape[1] + 1), dtype=np.int64)
    new_table[:, :-1] = table[row_idx]
    new_table[:, -1] = cand
    return new_table


# -- oracle: the per-pair cross-product tabular kernel ------------------------------


def oracle_extend_frontier(view, table, cands, checks, banned):
    """The per-pair extension: (surviving elements, new table, edge checks)."""
    n_rows, n_cand, depth = table.shape[0], cands.size, table.shape[1]
    dup = np.zeros((n_rows, n_cand), dtype=bool)
    for j in range(depth):
        col = table[:, j]
        pos = np.minimum(np.searchsorted(cands, col), n_cand - 1)
        hit = np.nonzero(cands[pos] == col)[0]
        dup[hit, pos[hit]] = True
    elem = np.nonzero(~dup.ravel())[0]
    rows, cols = np.divmod(elem, n_cand)
    echecks = 0
    width = np.int64(view.width)

    def probe(earlier):
        return view.probe_labels(cands[cols] * width + table[rows, earlier])

    for earlier, elab in checks:
        echecks += int(elem.size)
        found, labels = probe(earlier)
        keep = found if elab == -1 else found & (labels == elab)
        elem, rows, cols = elem[keep], rows[keep], cols[keep]
    for earlier in banned:
        echecks += int(elem.size)
        found, _ = probe(earlier)
        elem, rows, cols = elem[~found], rows[~found], cols[~found]
    new_table = np.empty((elem.size, depth + 1), dtype=np.int64)
    new_table[:, :depth] = table[rows]
    new_table[:, depth] = cands[cols]
    return elem, new_table, echecks


def oracle_tabular_join_pair(view, plan, cand_arrays, find_first, stats):
    """The per-pair kernel: (matches, full-depth rows in emission order)."""
    n = plan.n_nodes
    forbidden = plan.forbidden or ((),) * n
    sizes = [int(a.size) for a in cand_arrays]
    root = np.asarray(cand_arrays[0], dtype=np.int64)[:, None]
    stats.candidate_visits += sizes[0]
    stats.stack_pushes += sizes[0]
    if n == 1:
        rows = root[:1] if find_first else root
        return rows.shape[0], [rows]
    emitted = []
    stack = [(0, root)]
    while stack:
        depth, table = stack.pop()
        nxt = depth + 1
        max_rows = max(1, ORACLE_BLOCK_ELEMS // max(sizes[nxt], 1))
        if table.shape[0] > max_rows:
            for s in reversed(range(0, table.shape[0], max_rows)):
                stack.append((depth, table[s : s + max_rows]))
            continue
        stats.candidate_visits += table.shape[0] * sizes[nxt]
        elem, new_table, checks = oracle_extend_frontier(
            view, table, cand_arrays[nxt], plan.check_edges[nxt], forbidden[nxt]
        )
        stats.edge_checks += checks
        stats.stack_pushes += int(elem.size)
        if new_table.shape[0] == 0:
            continue
        if nxt == n - 1:
            if find_first:
                return 1, [new_table[:1]]
            emitted.append(new_table)
        else:
            stack.append((nxt, new_table))
    return sum(r.shape[0] for r in emitted), emitted


# -- random batches -----------------------------------------------------------------

#: (config fields, build kwargs) of each parity case.
CASES = {
    "dense": ({}, {}),
    "binary-search": ({}, {"dense_cap": 0}),
    "induced": ({"induced": True}, {}),
    "wildcard-edges": ({"wildcard_edge_label": 0}, {"n_edge_labels": 3}),
    "disconnected": ({}, {"disconnected": True}),
    "induced-binary-search": ({"induced": True}, {"dense_cap": 0}),
}


def random_batch(seed, n_edge_labels=2, disconnected=False):
    """(queries, data): planted patterns on random connected graphs.

    Every third query is extended by a stray component (a copy of another
    pattern) when ``disconnected``; one query is a single node.
    """
    rng = np.random.default_rng(seed)
    data, queries = [], []
    for _ in range(8):
        g = random_connected_graph(
            int(rng.integers(6, 24)),
            int(rng.integers(0, 8)),
            int(rng.integers(1, 4)),
            rng,
            n_edge_labels=n_edge_labels,
        )
        data.append(g)
        q, _ = random_subgraph_pattern(g, int(rng.integers(2, min(6, g.n_nodes) + 1)), rng)
        queries.append(q)
    queries.append(LabeledGraph([int(data[0].labels[0])], []))
    if disconnected:
        for i in range(0, len(queries) - 1, 3):
            a, b = queries[i], queries[i + 1]
            edges = [tuple(map(int, e)) for e in a.edges] + [
                (int(u) + a.n_nodes, int(v) + a.n_nodes) for u, v in b.edges
            ]
            queries[i] = LabeledGraph(
                np.concatenate([a.labels, b.labels]),
                edges,
                np.concatenate([a.edge_labels, b.edge_labels]),
            )
    return queries, data


def _case(name, seed, monkeypatch):
    fields, build = CASES[name]
    if "dense_cap" in build:
        monkeypatch.setattr(local_view, "DENSE_CELL_CAP", build["dense_cap"])
    queries, data = random_batch(
        seed,
        n_edge_labels=build.get("n_edge_labels", 2),
        disconnected=build.get("disconnected", False),
    )
    return queries, data, fields


class TestBlockParity:
    """Block by block: same rows, same order, same per-slot counters."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_block_equals_cross_product(self, name, seed, monkeypatch):
        queries, graphs, fields = _case(name, seed, monkeypatch)
        config = SigmoConfig(refinement_iterations=2, **fields)
        query, data = CSRGO.from_graphs(queries), CSRGO.from_graphs(graphs)
        bitmap = IterativeFilter(query, data, config).run().bitmap
        plans = compile_plans(query, bitmap, config)
        index = _dense_index(bitmap, data.graph_offsets)
        cuts = index[1]
        gmcr = build_gmcr(bitmap, query, data)
        qg = gmcr.query_graph_indices.astype(np.int64)
        dg = np.repeat(np.arange(gmcr.n_data_graphs), np.diff(gmcr.data_graph_offsets))
        nodes = plans.node_offsets[qg, None] + np.maximum(plans.order[qg], 0)
        sizes = cuts[nodes, dg[:, None] + 1] - cuts[nodes, dg[:, None]]
        viable = ((sizes > 0) | (plans.order[qg] < 0)).all(axis=1)
        qg, dg = qg[viable], dg[viable]
        if qg.size == 0:
            pytest.skip("no viable pair")
        fplan = build_fused_plan(qg, dg, plans, bitmap, data.graph_offsets)
        lists = _full_lists(qg, dg, plans, index)
        view = get_batch_view(data)
        deep = np.flatnonzero(fplan.depth_counts > 1)
        off0 = lists[1][0]
        counts = off0[deep + 1] - off0[deep]
        table = np.column_stack(
            [np.repeat(deep, counts), lists[0][0][ragged_at(off0[deep], counts)]]
        )
        blocks = 0
        while table.shape[0]:
            got, want = FusedOutcome.empty(fplan.n_slots), FusedOutcome.empty(fplan.n_slots)
            new = extend_fused_block(view, fplan, table, got)
            ref = oracle_extend_fused_block(view, fplan, lists, table, want)
            assert np.array_equal(new, ref)
            for counter in ("visits", "echecks", "pushes"):
                assert np.array_equal(getattr(got, counter), getattr(want, counter))
            blocks += 1
            table = new[fplan.depth_counts[new[:, 0]] > new.shape[1] - 1]
        assert blocks >= 1

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_engine_parity(self, name, seed, monkeypatch):
        queries, data, fields = _case(name, seed, monkeypatch)
        ref = _run(queries, data, "dfs", **fields)
        for backend in ("fused", "tabular", "auto"):
            assert_find_all_parity(ref, _run(queries, data, backend, **fields))
        ref = _run(queries, data, "dfs", mode=FIND_FIRST, **fields)
        for backend in ("fused", "tabular", "auto"):
            got = _run(queries, data, backend, mode=FIND_FIRST, **fields)
            assert np.array_equal(
                got.join_result.pair_matches, ref.join_result.pair_matches
            )
            assert _embeddings(got) == _embeddings(ref)


class TestTabularArmParity:
    """The forced ``"tabular"`` arm equals the old per-pair kernel, pair by pair."""

    @pytest.mark.parametrize("mode", [FIND_ALL, FIND_FIRST])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pairs_equal_old_kernel(self, name, mode, monkeypatch):
        queries, data, fields = _case(name, 5, monkeypatch)
        find_first = mode == FIND_FIRST
        compared = []

        def checked(view, plans, bitmap, offsets, qg, d, ff, record_rows=False, max_record=0):
            acc = fused.tabular_join_pair(
                view, plans, bitmap, offsets, qg, d, ff, record_rows, max_record
            )
            plan = plans[qg]
            stats = JoinStats()
            cands = _lists_of(
                _dense_index(bitmap, offsets), plans.node_offsets[qg] + plan.order, d
            )
            found, rows = oracle_tabular_join_pair(view, plan, cands, ff, stats)
            assert int(acc.matches[0]) == found
            want = np.concatenate(rows)[:max_record] if rows else None
            got = slot_rows(acc, 0)
            if want is None or want.shape[0] == 0:
                assert got is None
            else:
                assert np.array_equal(got, want)
            if not find_first:
                assert int(acc.visits[0]) == stats.candidate_visits
                assert int(acc.echecks[0]) == stats.edge_checks
                assert int(acc.pushes[0]) == stats.stack_pushes
            compared.append(qg)
            return acc

        monkeypatch.setattr(join, "tabular_join_pair", checked)
        _run(queries, data, "tabular", mode=mode, **fields)
        assert compared
