"""Unit tests for the edge-aware signature extension."""

import numpy as np
import pytest

from repro.accel import clear_accel_caches
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.edge_signatures import (
    PAIR_COUNT_CAP,
    data_pair_counts,
    edge_pair_histograms,
    group_count_rows,
    query_pair_groups,
    refine_candidates_edge_aware,
)
from repro.core.engine import SigmoEngine, find_all
from repro.core import filtering
from repro.core.filtering import IterativeFilter
from repro.graph.generators import path_graph, random_connected_graph, star_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.xp import use_backend
from tests.conftest import random_case

BACKENDS = ("numpy", "instrumented")


def assert_same_grouping(sat, first, inverse):
    """``(first, inverse)`` partitions the rows of ``sat`` exactly as
    ``np.unique(sat, axis=0)`` does (group order may differ)."""
    ref_groups, ref_inverse = np.unique(sat, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    assert first.shape[0] == ref_groups.shape[0]
    np.testing.assert_array_equal(sat[first][inverse], sat)
    pairs = set(zip(ref_inverse.reshape(-1).tolist(), inverse.tolist()))
    assert len(pairs) == ref_groups.shape[0]  # a bijection between groups


def _wide_query_batch(rng, n_labels=8, n_edge_labels=4):
    """Graphs whose (bond, neighbour label) pairs use well over 16 columns,
    with wildcard atoms (label ``n_labels``) and bonds (label 0), and one
    hub whose counts saturate at the cap."""
    graphs = [
        random_connected_graph(
            int(rng.integers(4, 12)),
            int(rng.integers(0, 6)),
            n_labels + 1,
            rng,
            n_edge_labels=n_edge_labels,
        )
        for _ in range(12)
    ]
    leaves = PAIR_COUNT_CAP + 3
    graphs.append(
        LabeledGraph(
            [0] + [1] * leaves,
            [(0, i) for i in range(1, leaves + 1)],
            [2] * leaves,
        )
    )
    return CSRGO.from_graphs(graphs)


class TestHistograms:
    def test_counts_pairs(self):
        # node 0: neighbors (label 1, bond 2) and (label 2, bond 1)
        g = CSRGO.from_graphs([star_graph(0, [1, 2])])
        # star_graph uses default edge labels (0); rebuild with orders
        from repro.graph.labeled_graph import LabeledGraph

        g = CSRGO.from_graphs([LabeledGraph([0, 1, 2], [(0, 1), (0, 2)], [2, 1])])
        hist = edge_pair_histograms(g, n_labels=3, n_edge_labels=3)
        assert hist[0, 2 * 3 + 1] == 1  # bond 2, label 1
        assert hist[0, 1 * 3 + 2] == 1  # bond 1, label 2
        assert hist[0].sum() == 2

    def test_empty_graph(self):
        from repro.graph.labeled_graph import LabeledGraph

        g = CSRGO.from_graphs([LabeledGraph([0, 1])])
        hist = edge_pair_histograms(g, 2, 2)
        assert hist.sum() == 0

    def test_wildcards_ignored(self):
        from repro.chem.smarts import ANY_BOND_LABEL, WILDCARD_ATOM_LABEL
        from repro.graph.labeled_graph import LabeledGraph

        g = CSRGO.from_graphs(
            [LabeledGraph([0, WILDCARD_ATOM_LABEL, 1], [(0, 1), (0, 2)],
                          [1, ANY_BOND_LABEL])]
        )
        hist = edge_pair_histograms(
            g, n_labels=2, n_edge_labels=2,
            ignore_label=WILDCARD_ATOM_LABEL,
            ignore_edge_label=ANY_BOND_LABEL,
        )
        assert hist[0].sum() == 0  # both incident pairs involve a wildcard

    def test_wildcard_node_counts_its_own_neighbours(self):
        from repro.chem.smarts import ANY_BOND_LABEL, WILDCARD_ATOM_LABEL
        from repro.graph.labeled_graph import LabeledGraph

        g = CSRGO.from_graphs(
            [LabeledGraph([WILDCARD_ATOM_LABEL, 0, 1], [(0, 1), (0, 2)], [1, 1])]
        )
        hist = edge_pair_histograms(
            g, n_labels=2, n_edge_labels=2,
            ignore_label=WILDCARD_ATOM_LABEL,
            ignore_edge_label=ANY_BOND_LABEL,
        )
        # (bond 1, label 0) and (bond 1, label 1): a `*` still needs both.
        assert hist[0, 2] == 1 and hist[0, 3] == 1 and hist[0].sum() == 2


class TestEngineIntegration:
    def test_results_invariant(self, rng):
        for _ in range(12):
            q, d, _ = random_case(rng)
            base = find_all(
                [q], [d], SigmoConfig(edge_signatures=False)
            ).total_matches
            with_edges = find_all(
                [q], [d], SigmoConfig(edge_signatures=True)
            ).total_matches
            assert base == with_edges

    def test_prunes_bond_order_mismatch_in_filter(self):
        # query needs a double bond to a label-1 node; data node 0 has only
        # a single bond to its label-1 neighbor.  Plain label signatures
        # cannot distinguish them; the edge-aware pass can.
        q = path_graph([0, 1], [2])
        d = path_graph([0, 1], [1])
        plain = SigmoEngine(
            [q], [d], SigmoConfig(refinement_iterations=2, edge_signatures=False)
        )
        aware = SigmoEngine(
            [q], [d], SigmoConfig(refinement_iterations=2, edge_signatures=True)
        )
        r_plain = plain.run()
        r_aware = aware.run()
        assert r_plain.total_matches == r_aware.total_matches == 0
        # the plain filter keeps the spurious candidate; edge-aware kills it
        assert r_plain.filter_result.total_candidates > 0
        assert r_aware.filter_result.total_candidates == 0

    def test_never_prunes_more_matches(self, small_dataset):
        queries = small_dataset.queries[:8]
        data = small_dataset.data[:20]
        aware = SigmoEngine(
            queries, data, SigmoConfig(edge_signatures=True)
        ).run()
        # Compared at the depth the edge-aware filter stopped at.
        base = SigmoEngine(
            queries,
            data,
            SigmoConfig(
                refinement_iterations=aware.filter_result.depth,
                edge_signatures=False,
            ),
        ).run()
        assert aware.total_matches == base.total_matches
        assert (
            aware.filter_result.total_candidates
            <= base.filter_result.total_candidates
        )

    def test_wildcard_compatibility(self):
        from repro.chem.smarts import pattern_from_smarts, wildcard_config
        from repro.chem.smiles import mol_from_smiles

        mols = [mol_from_smiles("CC(=O)Oc1ccccc1").graph()]
        pattern = pattern_from_smarts("C~*")
        base = SigmoEngine(
            [pattern], mols, wildcard_config(edge_signatures=False)
        ).run().total_matches
        aware = SigmoEngine(
            [pattern], mols, wildcard_config(edge_signatures=True)
        ).run().total_matches
        assert base == aware


class TestPackedGrouping:
    @pytest.mark.parametrize("n_cols", [0, 1, 15, 16, 17, 33, 48])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_unique_rows(self, n_cols, backend):
        rng = np.random.default_rng(n_cols)
        sat = rng.integers(0, 3, size=(300, n_cols)).astype(np.uint8)
        sat[::5] = 0  # wildcard rows count no pair
        sat[::7] = PAIR_COUNT_CAP  # saturated rows
        sat[::11, ::2] = PAIR_COUNT_CAP
        with use_backend(backend):
            first, inverse = group_count_rows(sat)
        assert_same_grouping(sat, first, inverse)

    def test_empty_batch(self):
        first, inverse = group_count_rows(np.zeros((0, 20), dtype=np.uint8))
        assert first.shape == inverse.shape == (0,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_groups_match_full_histograms(self, backend):
        clear_accel_caches()
        rng = np.random.default_rng(3)
        query = _wide_query_batch(rng)
        n_labels, n_edge_labels = 8, 4
        full = np.minimum(
            edge_pair_histograms(
                query, n_labels, n_edge_labels, ignore_label=n_labels,
                ignore_edge_label=0,
            ),
            PAIR_COUNT_CAP,
        ).astype(np.uint8)
        used = np.flatnonzero(full.any(axis=0))
        assert used.size > 16
        assert (full == PAIR_COUNT_CAP).any()
        assert (~full.any(axis=1)).any()  # rows that count no pair
        with use_backend(backend):
            sigs, inverse, columns = query_pair_groups(
                query, n_labels, n_edge_labels, n_labels, 0
            )
            np.testing.assert_array_equal(columns, used)
            np.testing.assert_array_equal(sigs[inverse], full[:, used])
            assert_same_grouping(full[:, used], np.unique(inverse, return_index=True)[1], inverse)
            data = CSRGO.from_graphs(
                [random_connected_graph(30, 10, n_labels, rng, n_edge_labels=n_edge_labels)]
            )
            sat_d = data_pair_counts(data, n_labels, n_edge_labels, columns)
        d_full = np.minimum(
            edge_pair_histograms(data, n_labels, n_edge_labels), PAIR_COUNT_CAP
        )
        np.testing.assert_array_equal(sat_d, d_full[:, used])

    def test_query_groups_are_memoized(self):
        from repro.accel.memo import signature_memo

        clear_accel_caches()
        query = _wide_query_batch(np.random.default_rng(4))
        a = query_pair_groups(query, 8, 4, 8, 0)
        b = query_pair_groups(query, 8, 4, 8, 0)
        assert all(x is y for x, y in zip(a, b))
        assert not a[0].flags.writeable
        misses = signature_memo().stats.misses
        query_pair_groups(query, 8, 5, 8, 0)  # another edge vocabulary
        assert signature_memo().stats.misses == misses + 1


class TestPassOrder:
    """The pass commutes with the node iterations: running it before them
    gives the same bitmap, bit for bit, as running it after the last —
    and so does the default filter, which runs it in iteration 1."""

    @pytest.mark.parametrize("iterations", [1, 2, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_before_equals_inside_last_iteration(
        self, small_dataset, iterations, backend, monkeypatch
    ):
        q = CSRGO.from_graphs(small_dataset.queries[:10])
        d = CSRGO.from_graphs(small_dataset.data[:25])
        node_only = SigmoConfig(refinement_iterations=iterations, edge_signatures=False)
        edge_aware = SigmoConfig(refinement_iterations=iterations)
        # Run the default filter to its cap: no depth rule.
        monkeypatch.setattr(filtering, "few_live", lambda *args: False)
        with use_backend(backend):
            filt = IterativeFilter(q, d, node_only)
            before = filt.initialize()
            refine_candidates_edge_aware(before.bitmap, q, d, filt.n_labels)
            filt.refine(before)
            filt = IterativeFilter(q, d, node_only)
            plain = filt.run()
            after = plain.bitmap.copy()
            refine_candidates_edge_aware(after, q, d, filt.n_labels)
            default = IterativeFilter(q, d, edge_aware).run()
        np.testing.assert_array_equal(before.bitmap.words, after.words)
        np.testing.assert_array_equal(default.bitmap.words, after.words)
        assert default.depth == iterations
        # The pass runs in iteration 1; the radius-1 refine (iteration 2)
        # clears nothing after it.
        totals = [s.total_candidates for s in default.iterations]
        plain_totals = [s.total_candidates for s in plain.iterations]
        assert totals[0] < plain_totals[0]
        if iterations >= 2:
            assert totals[1] == totals[0]
