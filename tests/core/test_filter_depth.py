"""Unit tests for the filter's depth rule and its first stop."""

import numpy as np
import pytest

from repro.analysis import contracts
from repro.analysis.contracts import ContractViolation
from repro.core import edge_signatures, filtering
from repro.core.candidates import CandidateBitmap, segment_counts
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.edge_signatures import PAIR_COUNT_CAP, subsumes_radius_one
from repro.core.filtering import (
    CLEARED_SHARE,
    STOP_CAP,
    STOP_FEW_LIVE,
    IterativeFilter,
    few_live,
)
from repro.core.mapping import live_count, viable_query_matrix
from repro.graph.generators import path_graph, random_connected_graph, star_graph


def _batch(graphs):
    return CSRGO.from_graphs(graphs)


class TestSubsumption:
    def test_plain_molecules_are_subsumed(self, small_dataset):
        assert subsumes_radius_one(_batch(small_dataset.queries))

    def test_wildcard_edge_label_is_not_subsumed(self):
        query = _batch([path_graph([1, 2, 1], [0, 1])])
        assert subsumes_radius_one(query)
        assert subsumes_radius_one(query, wildcard_edge_label=2)  # absent
        assert not subsumes_radius_one(query, wildcard_edge_label=0)

    def test_wildcard_atom_is_not_subsumed(self):
        query = _batch([path_graph([1, 2, 1])])
        assert not subsumes_radius_one(query, wildcard_label=2)

    def test_degree_above_pair_count_cap_is_not_subsumed(self):
        hub = star_graph(1, [2] * PAIR_COUNT_CAP)
        assert subsumes_radius_one(_batch([hub]))
        wider = star_graph(1, [2] * (PAIR_COUNT_CAP + 1))
        assert not subsumes_radius_one(_batch([wider]))

    @pytest.mark.parametrize(
        ("query", "wildcard_edge_label", "depth"),
        [
            (path_graph([1, 2, 1], [0, 1]), None, 1),
            (path_graph([1, 2, 1], [0, 1]), 0, 2),
            (star_graph(1, [2] * (PAIR_COUNT_CAP + 1)), None, 2),
        ],
        ids=["subsumed", "wildcard-edge", "high-degree"],
    )
    def test_first_stop_follows_the_radius_one_refine_unless_subsumed(
        self, query, wildcard_edge_label, depth, monkeypatch
    ):
        radii = []
        original = filtering.IterativeFilter._signatures_at

        def signatures_at(self, radius):
            radii.append(radius)
            return original(self, radius)

        monkeypatch.setattr(filtering.IterativeFilter, "_signatures_at", signatures_at)
        monkeypatch.setattr(filtering, "few_live", lambda *args: True)
        data = _batch([star_graph(1, [2] * (PAIR_COUNT_CAP + 2))])
        config = SigmoConfig(
            refinement_iterations=4, wildcard_edge_label=wildcard_edge_label
        )
        result = IterativeFilter(_batch([query]), data, config).run()
        assert (result.depth, result.stop_reason) == (depth, STOP_FEW_LIVE)
        assert radii == list(range(1, depth))  # the radius-1 refine ran iff depth 2
        assert [s.live_candidates is not None for s in result.iterations] == [
            i == depth for i in range(1, depth + 1)
        ]

    def test_depth_one_stop_is_checked(self, small_dataset, monkeypatch):
        # REPRO_CHECK runs the omitted radius-1 refine on a copy; it must
        # clear nothing here.
        monkeypatch.setattr(filtering, "few_live", lambda *args: True)
        checked = []
        original = contracts.check_refine_clears_nothing
        monkeypatch.setattr(
            contracts,
            "check_refine_clears_nothing",
            lambda *args, **kw: checked.append(1) or original(*args, **kw),
        )
        q = _batch(small_dataset.queries[:10])
        d = _batch(small_dataset.data[:25])
        with contracts.forced(True):
            result = IterativeFilter(q, d, SigmoConfig(refinement_iterations=3)).run()
        assert result.depth == 1
        assert checked == [1]

    def test_contract_catches_a_wrong_depth_one_stop(self, monkeypatch):
        # A wildcard bond hides the bond from the pass but not the
        # neighbour from the node refine: stopping before it loses pruning.
        monkeypatch.setattr(edge_signatures, "subsumes_radius_one", lambda *a: True)
        monkeypatch.setattr(filtering, "few_live", lambda *args: True)
        query = _batch([path_graph([1, 2], [0])])
        data = _batch([path_graph([1, 3, 2], [0, 0])])
        config = SigmoConfig(refinement_iterations=2, wildcard_edge_label=0)
        with contracts.forced(True), pytest.raises(ContractViolation, match="subsume"):
            IterativeFilter(query, data, config).run()


class TestFewLive:
    def test_compares_the_clearable_share_with_the_work(self):
        work = 100 + 50
        assert few_live(int(work / CLEARED_SHARE), 100, 50)
        assert not few_live(int(work / CLEARED_SHARE) + 1, 100, 50)

    def test_no_live_bits_stops(self):
        assert few_live(0, 0, 0)


class TestLiveCount:
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_and_viability_match_a_recount(self, seed):
        rng = np.random.default_rng(seed)
        data_graphs = [random_connected_graph(12, 4, 3, rng) for _ in range(5)]
        query_graphs = [random_connected_graph(3, 1, 3, rng) for _ in range(4)]
        query, data = _batch(query_graphs), _batch(data_graphs)
        bools = rng.random((query.n_nodes, data.n_nodes)) < 0.6
        owner = np.repeat(np.arange(query.n_graphs), np.diff(query.graph_offsets))
        for _ in range(4):
            bitmap = CandidateBitmap.from_bool(bools, 16)
            viable = viable_query_matrix(bitmap, query, data)
            counts = segment_counts(bitmap, data.graph_offsets)
            live, got = live_count(bitmap, query, data)
            assert live == int((counts * viable[owner]).sum())
            np.testing.assert_array_equal(got, viable)
            bools &= rng.random(bools.shape) < 0.7


class TestFilterResult:
    def test_node_only_filter_runs_to_its_cap(self, small_dataset):
        q = _batch(small_dataset.queries[:8])
        d = _batch(small_dataset.data[:20])
        config = SigmoConfig(refinement_iterations=5, edge_signatures=False)
        result = IterativeFilter(q, d, config).run()
        assert (result.depth, result.cap, result.stop_reason) == (5, 5, STOP_CAP)
        assert result.viable is None
        assert all(s.live_candidates is None for s in result.iterations)

    def test_rule_stop_hands_viability_to_the_mapping(self, small_dataset):
        q = _batch(small_dataset.queries[:8])
        d = _batch(small_dataset.data[:20])
        result = IterativeFilter(q, d, SigmoConfig()).run()
        assert result.stop_reason == STOP_FEW_LIVE
        np.testing.assert_array_equal(
            result.viable, viable_query_matrix(result.bitmap, q, d)
        )

    def test_single_iteration_counts_nothing(self, small_dataset):
        q = _batch(small_dataset.queries[:8])
        d = _batch(small_dataset.data[:20])
        result = IterativeFilter(q, d, SigmoConfig(refinement_iterations=1)).run()
        assert (result.depth, result.stop_reason) == (1, STOP_CAP)
        assert result.iterations[0].live_candidates is None
        assert result.viable is None
