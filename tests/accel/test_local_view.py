"""Sorted-CSR edge views: correctness, oracle parity and the view memos."""

import numpy as np
import pytest

from repro.accel import local_view
from repro.accel.local_view import (
    VIEW_MEMO_BYTES,
    LocalCSRView,
    batch_view_cache,
    get_batch_view,
    get_local_view,
    local_view_cache,
)
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.graph.generators import path_graph, random_connected_graph
from repro.graph.labeled_graph import LabeledGraph
from tests.conftest import random_case

pytestmark = pytest.mark.perf_accel


# -- oracle: the two view classes the merged LocalCSRView replaced -------------


def _oracle_dense(width, flat_keys, edge_labels):
    cells = width * width
    if cells > local_view.DENSE_CELL_CAP or (
        edge_labels.size and int(edge_labels.max()) > local_view._DENSE_LABEL_MAX
    ):
        return False
    dense = np.full(cells, -2, dtype=np.int8)
    dense[flat_keys] = edge_labels.astype(np.int8)
    return dense


class OracleLocalView:
    """The former per-graph view: local CSR slice rebased to local ids."""

    def __init__(self, data, data_graph):
        start, stop = data.graph_node_range(data_graph)
        self.start, self.width = start, stop - start
        adj_lo, adj_hi = int(data.row_offsets[start]), int(data.row_offsets[stop])
        row_offsets = (data.row_offsets[start : stop + 1] - adj_lo).astype(np.int64)
        neighbors = data.column_indices[adj_lo:adj_hi].astype(np.int64) - start
        self.edge_labels = np.ascontiguousarray(
            data.adj_edge_labels[adj_lo:adj_hi], dtype=np.int32
        )
        rows = np.repeat(np.arange(self.width, dtype=np.int64), np.diff(row_offsets))
        self.flat_keys = rows * np.int64(self.width) + neighbors
        self.edge_label_of = dict(
            zip(self.flat_keys.tolist(), self.edge_labels.tolist())
        )

    def probe_labels(self, keys):
        dense = _oracle_dense(self.width, self.flat_keys, self.edge_labels)
        if dense is not False:
            labels = dense[keys]
            return labels != -2, labels
        if self.flat_keys.size == 0:
            return np.zeros(keys.shape, bool), np.zeros(keys.shape, np.int64)
        clipped = np.minimum(
            np.searchsorted(self.flat_keys, keys), self.flat_keys.size - 1
        )
        return self.flat_keys[clipped] == keys, self.edge_labels[clipped]


class OracleBatchView:
    """The former whole-batch view: global ids, slot-returning probe."""

    def __init__(self, data):
        n = int(data.n_nodes)
        self.width = n
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(data.row_offsets))
        self.flat_keys = rows * np.int64(n) + data.column_indices.astype(np.int64)
        self.edge_labels = np.ascontiguousarray(data.adj_edge_labels, dtype=np.int32)

    def probe(self, keys):
        size = self.flat_keys.size
        if size == 0:
            return np.zeros(keys.shape, bool), np.zeros(keys.shape, np.int64)
        slot = np.minimum(np.searchsorted(self.flat_keys, keys), size - 1)
        return self.flat_keys[slot] == keys, slot

    def probe_labels(self, keys):
        dense = _oracle_dense(self.width, self.flat_keys, self.edge_labels)
        if dense is not False:
            labels = dense[keys]
            return labels != -2, labels
        found, slot = self.probe(keys)
        return found, self.edge_labels[slot]


#: ``DENSE_CELL_CAP`` values selecting the dense path, then the search path.
_DENSE_THEN_SEARCH = (local_view.DENSE_CELL_CAP, 0)


def _all_keys(width):
    # Every flat key of the range, present or absent.
    return np.arange(width * width, dtype=np.int64)


def _shifted(data, shift):
    """Same adjacency (so same view weight), fresh node labels and hash."""
    return CSRGO(
        data.graph_offsets,
        data.row_offsets,
        data.column_indices,
        data.labels + shift,
        data.adj_edge_labels,
    )


def _assert_probes_equal(view, oracle):
    keys = _all_keys(view.width)
    found, labels = view.probe_labels(keys)
    want_found, want_labels = oracle.probe_labels(keys)
    np.testing.assert_array_equal(found, want_found)
    np.testing.assert_array_equal(labels[found], want_labels[want_found])


class TestViewCorrectness:
    def test_matches_csrgo_edge_labels(self, rng):
        for _ in range(10):
            _, d, _ = random_case(rng, n_edge_labels=3)
            data = CSRGO.from_graphs([d])
            view = LocalCSRView(data, 0, data.n_nodes)
            n = data.n_nodes
            for u in range(n):
                for v in range(n):
                    label = view.edge_label_of.get(u * view.width + v, -1)
                    if data.has_edge(u, v):
                        assert label == data.edge_label(u, v)
                    else:
                        assert label == -1

    def test_vectorized_lookup_matches_scalar(self, rng, monkeypatch):
        _, d, _ = random_case(rng, max_data_nodes=15, n_edge_labels=3)
        data = CSRGO.from_graphs([d])
        for cap in _DENSE_THEN_SEARCH:
            monkeypatch.setattr(local_view, "DENSE_CELL_CAP", cap)
            view = LocalCSRView(data, 0, data.n_nodes)
            keys = _all_keys(view.width)
            found, labels = view.probe_labels(keys)
            for key, hit, label in zip(keys.tolist(), found, labels):
                expected = view.edge_label_of.get(key)
                assert hit == (expected is not None)
                if hit:
                    assert label == expected

    def test_flat_keys_globally_sorted(self, rng):
        for _ in range(5):
            _, d, _ = random_case(rng)
            data = CSRGO.from_graphs([d])
            view = LocalCSRView(data, 0, data.n_nodes)
            assert np.all(np.diff(view.flat_keys) > 0)

    def test_empty_graph_lookup(self, monkeypatch):
        data = CSRGO.from_graphs([LabeledGraph([1, 2], [])])
        for cap in _DENSE_THEN_SEARCH:
            monkeypatch.setattr(local_view, "DENSE_CELL_CAP", cap)
            view = LocalCSRView(data, 0, 2)
            assert view.flat_keys.size == 0
            found, _ = view.probe_labels(np.array([1], dtype=np.int64))
            assert found.tolist() == [False]


class TestOracleParity:
    """Every view holds the arrays of the class it replaced, probed alike."""

    @pytest.fixture
    def batches(self, rng):
        out = []
        for _ in range(6):
            graphs = [
                random_connected_graph(
                    int(rng.integers(1, 30)),
                    int(rng.integers(0, 6)),
                    3,
                    rng,
                    n_edge_labels=int(rng.integers(1, 5)),
                )
                for _ in range(int(rng.integers(1, 6)))
            ]
            out.append(CSRGO.from_graphs(graphs))
        # Labels above int8 force the binary search even when dense fits.
        out.append(CSRGO.from_graphs([path_graph([0, 1, 2], [200, 7])]))
        return out

    @pytest.mark.parametrize("dense", [True, False])
    def test_per_graph_views_match_oracle(self, batches, monkeypatch, dense):
        if not dense:
            monkeypatch.setattr(local_view, "DENSE_CELL_CAP", 0)
        for data in batches:
            for g in range(data.n_graphs):
                view = get_local_view(data, g)
                oracle = OracleLocalView(data, g)
                assert (view.start, view.width) == (oracle.start, oracle.width)
                np.testing.assert_array_equal(view.flat_keys, oracle.flat_keys)
                np.testing.assert_array_equal(view.edge_labels, oracle.edge_labels)
                assert view.edge_label_of == oracle.edge_label_of
                _assert_probes_equal(view, oracle)

    @pytest.mark.parametrize("dense", [True, False])
    def test_batch_views_match_oracle(self, batches, monkeypatch, dense):
        if not dense:
            monkeypatch.setattr(local_view, "DENSE_CELL_CAP", 0)
        for data in batches:
            view = get_batch_view(data)
            oracle = OracleBatchView(data)
            assert (view.start, view.width) == (0, oracle.width)
            np.testing.assert_array_equal(view.flat_keys, oracle.flat_keys)
            np.testing.assert_array_equal(view.edge_labels, oracle.edge_labels)
            _assert_probes_equal(view, oracle)


class TestViewCache:
    def test_second_access_hits(self, bench):
        data = CSRGO.from_graphs(bench.data)
        cache = local_view_cache()
        v1 = get_local_view(data, 3)
        assert cache.stats.misses == 1
        v2 = get_local_view(data, 3)
        assert v2 is v1
        assert cache.stats.hits == 1

    def test_content_identity_not_object_identity(self, bench):
        # A rebuilt-but-identical batch (chunked/resilient re-runs) hits.
        data1 = CSRGO.from_graphs(bench.data)
        data2 = CSRGO.from_graphs(bench.data)
        assert data1 is not data2
        v1 = get_local_view(data1, 0)
        v2 = get_local_view(data2, 0)
        assert v2 is v1
        assert len(local_view_cache()) == 1

    def test_different_batch_misses(self, bench):
        data1 = CSRGO.from_graphs(bench.data[:10])
        data2 = CSRGO.from_graphs(bench.data[10:20])
        get_local_view(data1, 0)
        get_local_view(data2, 0)
        cache = local_view_cache()
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_lru_eviction(self, bench, monkeypatch):
        base = CSRGO.from_graphs(bench.data[:3])
        batches = [_shifted(base, i) for i in range(4)]
        cache = local_view_cache()
        weight = local_view._view_bytes(get_local_view(batches[0], 0))
        cache.clear()
        monkeypatch.setattr(cache, "capacity", 2 * weight)
        for b in batches:
            get_local_view(b, 0)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        # Oldest entries gone: re-fetching the first batch misses again.
        before = cache.stats.misses
        get_local_view(batches[0], 0)
        assert cache.stats.misses == before + 1

    def test_default_capacity(self):
        assert local_view_cache().capacity == VIEW_MEMO_BYTES
        assert batch_view_cache().capacity == VIEW_MEMO_BYTES


class TestViewBudget:
    """Both view tables are byte-bounded LRUs over the view arrays."""

    def test_weight_is_view_arrays_plus_dense_table(self, bench):
        data = CSRGO.from_graphs(bench.data)
        view = get_batch_view(data)
        assert batch_view_cache().weight == (
            view.flat_keys.nbytes
            + view.edge_labels.nbytes
            + view.row_offsets.nbytes
            + view.width**2
        )

    def test_fresh_batches_stay_within_budget(self, rng):
        graphs = [random_connected_graph(300, 60, 4, rng) for _ in range(4)]
        base = CSRGO.from_graphs(graphs)
        for shift in range(12):
            data = _shifted(base, shift)
            get_batch_view(data)
            for g in range(data.n_graphs):
                get_local_view(data, g)
            assert local_view_cache().weight <= VIEW_MEMO_BYTES
            assert batch_view_cache().weight <= VIEW_MEMO_BYTES
        assert local_view_cache().stats.evictions > 0
        assert batch_view_cache().stats.evictions > 0

    def test_view_heavier_than_budget_returned_not_stored(self):
        # 2100 nodes: the dense table alone (2100**2 bytes) tops the budget.
        data = CSRGO.from_graphs([path_graph([0] * 2100, [1] * 2099)])
        view = get_batch_view(data)
        assert local_view._view_bytes(view) > VIEW_MEMO_BYTES
        found, labels = view.probe_labels(np.array([1, 2100, 2], dtype=np.int64))
        assert found.tolist() == [True, True, False]
        assert labels[:2].tolist() == [1, 1]
        assert len(batch_view_cache()) == 0
        assert get_batch_view(data) is not view
        assert batch_view_cache().stats.misses == 2


class TestRunJoinHoisting:
    """View construction is hoisted out of ``run_join``.

    Pinned to the DFS backend, the one per-graph view reader — under
    ``auto`` the dispatch routes multi-node pairs to the fused table,
    which reads the *batch*-level view instead (covered below).
    """

    def test_second_run_builds_no_views(self, bench):
        config = SigmoConfig(join_backend="dfs")
        engine = SigmoEngine(bench.queries, bench.data, config)
        cache = local_view_cache()
        engine.run()
        misses_after_first = cache.stats.misses
        assert misses_after_first > 0
        engine.run()
        assert cache.stats.misses == misses_after_first
        assert cache.stats.hits >= misses_after_first

    def test_sweep_shares_views(self, bench):
        config = SigmoConfig(join_backend="dfs")
        engine = SigmoEngine(bench.queries, bench.data, config)
        cache = local_view_cache()
        engine.run_iteration_sweep([2, 4, 6])
        # All three sweep points share one batch's views: one build each.
        assert {key[0] for key in cache._entries} == {
            CSRGO.from_graphs(bench.data).content_hash()
        }
        assert cache.stats.misses == len(cache)

    def test_batch_change_invalidates(self, bench):
        config = SigmoConfig(join_backend="dfs")
        SigmoEngine(bench.queries, bench.data[:20], config).run()
        first_misses = local_view_cache().stats.misses
        SigmoEngine(bench.queries, bench.data[20:40], config).run()
        assert local_view_cache().stats.misses > first_misses


class TestBatchViewCorrectness:
    def test_probe_matches_csrgo_edges(self, rng, monkeypatch):
        graphs = [
            random_case(rng, max_data_nodes=12, n_edge_labels=3)[1] for _ in range(3)
        ]
        data = CSRGO.from_graphs(graphs)
        n = data.n_nodes
        for cap in _DENSE_THEN_SEARCH:
            monkeypatch.setattr(local_view, "DENSE_CELL_CAP", cap)
            found, labels = LocalCSRView(data, 0, n).probe_labels(_all_keys(n))
            for key, hit, label in zip(range(n * n), found, labels):
                u, v = divmod(key, n)
                if data.has_edge(u, v):
                    assert hit
                    assert label == data.edge_label(u, v)
                else:
                    assert not hit

    def test_row_offsets_read_neighbours(self, bench):
        data = CSRGO.from_graphs(bench.data)
        for view, start in (
            (get_batch_view(data), 0),
            (get_local_view(data, 3), data.graph_node_range(3)[0]),
        ):
            assert view.row_offsets.size == view.width + 1
            for u in range(view.width):
                at = np.arange(view.row_offsets[u], view.row_offsets[u + 1])
                nbrs = view.flat_keys[at] - u * view.width + start
                assert nbrs.tolist() == data.neighbors(start + u).tolist()
                assert (
                    view.edge_labels[at].tolist()
                    == data.neighbor_edge_labels(start + u).tolist()
                )

    def test_flat_keys_globally_sorted_across_graphs(self, bench):
        data = CSRGO.from_graphs(bench.data)
        view = get_batch_view(data)
        assert np.all(np.diff(view.flat_keys) > 0)
        assert view.flat_keys.size == data.column_indices.size

    def test_empty_batch_probe(self, monkeypatch):
        data = CSRGO.from_graphs([LabeledGraph([1, 2], [])])
        keys = np.array([0, 1], dtype=np.int64)
        for cap in _DENSE_THEN_SEARCH:
            monkeypatch.setattr(local_view, "DENSE_CELL_CAP", cap)
            found, _ = LocalCSRView(data, 0, data.n_nodes).probe_labels(keys)
            assert not found.any()


class TestBatchViewHoisting:
    """One batch-view build per (batch contents), ever."""

    def test_fused_runs_build_one_view_per_batch(self, bench):
        engine = SigmoEngine(bench.queries, bench.data)
        cache = batch_view_cache()
        engine.run()  # auto -> fused tables probe the batch view
        assert cache.stats.misses == 1
        engine.run()
        engine.run(mode="find-first")
        assert cache.stats.misses == 1
        assert cache.stats.hits >= 2

    def test_content_identity_not_object_identity(self, bench):
        data1 = CSRGO.from_graphs(bench.data)
        data2 = CSRGO.from_graphs(bench.data)
        assert data1 is not data2
        v1 = get_batch_view(data1)
        v2 = get_batch_view(data2)
        assert v2 is v1
        assert batch_view_cache().stats.misses == 1

    def test_batch_change_builds_again(self, bench):
        SigmoEngine(bench.queries, bench.data[:20]).run()
        assert batch_view_cache().stats.misses == 1
        SigmoEngine(bench.queries, bench.data[20:40]).run()
        assert batch_view_cache().stats.misses == 2

    def test_lru_eviction(self, bench, monkeypatch):
        base = CSRGO.from_graphs(bench.data[:3])
        batches = [_shifted(base, i) for i in range(4)]
        cache = batch_view_cache()
        monkeypatch.setattr(
            cache, "capacity", 2 * local_view._view_bytes(get_batch_view(base))
        )
        cache.clear()
        for b in batches:
            get_batch_view(b)
        assert cache.stats.evictions == 2
        before = cache.stats.misses
        get_batch_view(batches[0])
        assert cache.stats.misses == before + 1
