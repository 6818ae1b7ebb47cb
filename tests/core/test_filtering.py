"""Unit tests for the iterative filter (paper Alg. 1)."""

import os

import numpy as np
import pytest

import repro.core.filtering as filtering
from repro.core.candidates import CandidateBitmap
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.edge_signatures import (
    PAIR_COUNT_CAP,
    edge_pair_histograms,
    refine_candidates_edge_aware,
)
from repro.core.filtering import (
    IterativeFilter,
    initialize_candidates,
    refine_candidates,
)
from repro.core.signatures import SignaturePacking
from repro.graph.generators import path_graph, ring_graph
from repro.utils.bitops import pack_bool_rows
from repro.xp import get_backend, use_backend
from tests.conftest import random_case


def dense_refine(words, sat_q, sat_d, word_bits):
    """The historical dense refine loop, kept as the oracle.

    One full ``sat_d >= sig`` comparison against every data node per
    distinct query signature, ANDed into that signature's rows.
    """
    words = words.copy()
    unique_sigs, inverse = np.unique(sat_q, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    for sig_idx in range(unique_sigs.shape[0]):
        ok = np.all(sat_d >= unique_sigs[sig_idx], axis=1)
        packed = pack_bool_rows(ok[None, :], word_bits)[0]
        words[np.nonzero(inverse == sig_idx)[0]] &= packed
    return words


def group_unions(words, sat_q):
    """Each signature group's rows OR-ed into one row of words."""
    groups, inverse = np.unique(sat_q, axis=0, return_inverse=True)
    unions = np.zeros((groups.shape[0], words.shape[1]), dtype=words.dtype)
    np.bitwise_or.at(unions, inverse.reshape(-1), words)
    return unions


def union_pairs(words, sat_q):
    """Pairs the candidate-sparse kernel compares: the set bits of each
    signature group's union, padding bits included."""
    return int(np.bitwise_count(group_unions(words, sat_q)).sum())


def set_padding_bits(bitmap):
    """Set every bit past ``n_data_nodes`` in the last word of each row."""
    pad = bitmap.words.shape[1] * bitmap.word_bits - bitmap.n_data_nodes
    if pad and bitmap.words.size:
        dtype = bitmap.words.dtype.type
        high = ~dtype(0) << dtype(bitmap.word_bits - pad)
        bitmap.words[:, -1] |= high
    return pad


class TestInitializeCandidates:
    def test_label_equality(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 2, 1, 3])])
        b = initialize_candidates(q, d)
        np.testing.assert_array_equal(b.row_bool(0), [True, False, True, False])
        np.testing.assert_array_equal(b.row_bool(1), [False, True, False, False])

    def test_no_shared_labels(self):
        q = CSRGO.from_graphs([path_graph([5])])
        d = CSRGO.from_graphs([path_graph([1, 2])])
        assert initialize_candidates(q, d).total_candidates() == 0


class TestRefineCandidates:
    def test_domination_prunes(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 2, 1, 3])])
        bitmap = initialize_candidates(q, d)
        packing = SignaturePacking.uniform(4)
        # radius-1 signatures
        q_counts = np.array([[0, 0, 1, 0], [0, 1, 0, 0]])
        d_counts = np.array([[0, 0, 1, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]])
        refine_candidates(bitmap, q_counts, d_counts, packing)
        # data node 0 and 2 both have an adjacent label-2 node; both stay.
        np.testing.assert_array_equal(bitmap.row_bool(0), [True, False, True, False])

    def test_monotone_never_adds(self, rng):
        q = CSRGO.from_graphs([ring_graph(3, [0, 1, 2])])
        d = CSRGO.from_graphs([ring_graph(6, [0, 1, 2, 0, 1, 2])])
        bitmap = initialize_candidates(q, d)
        before = bitmap.to_bool()
        packing = SignaturePacking.uniform(3)
        refine_candidates(
            bitmap, np.ones((3, 3), dtype=int), np.zeros((6, 3), dtype=int), packing
        )
        after = bitmap.to_bool()
        assert not (after & ~before).any()

    def test_shape_validation(self):
        bitmap = CandidateBitmap(2, 3)
        packing = SignaturePacking.uniform(2)
        with pytest.raises(ValueError):
            refine_candidates(bitmap, np.zeros((1, 2)), np.zeros((3, 2)), packing)
        with pytest.raises(ValueError):
            refine_candidates(bitmap, np.zeros((2, 2)), np.zeros((4, 2)), packing)


#: Every word width ``SigmoConfig`` accepts.
WORD_BITS = (8, 16, 32, 64)

#: Seeds per differential case; ``make fuzz`` widens them through
#: ``REPRO_FUZZ_SEEDS``.
FUZZ_SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "3")))


class TestRefineDifferential:
    """The candidate-sparse kernel against the dense oracle, bit for bit."""

    N_LABELS = 6

    def _case(self, seed, n_q, n_d, word_bits, density):
        rng = np.random.default_rng(seed)
        packing = SignaturePacking.from_frequencies(
            rng.integers(1, 1000, self.N_LABELS).astype(float), min_bits=2
        )
        # Few distinct query signatures (so groups hold several rows);
        # counts up to past every field's capacity exercise saturation.
        def counts(n_rows, high_frac):
            out = rng.integers(0, 6, (n_rows, self.N_LABELS))
            high = rng.random(out.shape) < high_frac
            out[high] = rng.integers(6, 300, int(high.sum()))
            return out

        proto = counts(max(n_q // 3, 1), 0.1)
        q_counts = proto[rng.integers(0, proto.shape[0], n_q)]
        d_counts = counts(n_d, 0.3)
        bitmap = CandidateBitmap.from_bool(rng.random((n_q, n_d)) < density, word_bits)
        if n_q > 2:
            bitmap.words[0] = ~bitmap.words.dtype.type(0)  # wildcard row
            bitmap.words[1] = 0  # empty row
        return bitmap, q_counts, d_counts, packing

    def _check(self, bitmap, q_counts, d_counts, packing):
        sat_q = packing.saturate(q_counts)
        expected = dense_refine(
            bitmap.words, sat_q, packing.saturate(d_counts), bitmap.word_bits
        )
        expected_pairs = union_pairs(bitmap.words, sat_q)
        pairs = refine_candidates(bitmap, q_counts, d_counts, packing)
        assert bitmap.words.dtype == expected.dtype
        np.testing.assert_array_equal(bitmap.words, expected)
        # few_live reads the count, so it must match too.
        assert pairs == expected_pairs

    @pytest.mark.parametrize("backend", ["numpy", "instrumented"])
    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("n_d", [64, 150, 1])
    @pytest.mark.parametrize("density", [0.02, 0.5])
    def test_bitwise_equal_to_dense_loop(self, backend, word_bits, n_d, density):
        for seed in FUZZ_SEEDS:
            case = self._case(seed, 40, n_d, word_bits, density)
            with use_backend(backend):
                self._check(*case)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunk_bound_smaller_than_a_group(self, monkeypatch, chunk):
        # A chunk bound below one word's set bits repeats chunk cuts.
        monkeypatch.setattr(filtering, "REFINE_CHUNK_PAIRS", chunk)
        for backend in ("numpy", "instrumented"):
            for word_bits in WORD_BITS:
                case = self._case(11, 30, 333, word_bits, 0.4)
                with use_backend(backend):
                    self._check(*case)

    @pytest.mark.parametrize("word_bits", WORD_BITS)
    def test_one_pack_per_chunk(self, monkeypatch, word_bits):
        # A one-pair bound makes every nonzero union word its own chunk;
        # words holding more set bits than that add no empty chunks.
        monkeypatch.setattr(filtering, "REFINE_CHUNK_PAIRS", 1)
        bitmap, q_counts, d_counts, packing = self._case(11, 30, 333, word_bits, 0.4)
        unions = group_unions(bitmap.words, packing.saturate(q_counts))
        assert np.bitwise_count(unions).max() > 1
        backend = get_backend("instrumented")
        backend.reset()
        with use_backend("instrumented"):
            refine_candidates(bitmap, q_counts, d_counts, packing)
        assert backend.op_counts()["pack_bits"][0] == np.count_nonzero(unions)

    def test_padding_bits_cleared(self):
        # Set bits past n_data_nodes never survive (the dense loop's
        # packed masks are zero there).
        for backend in ("numpy", "instrumented"):
            for word_bits in WORD_BITS:
                bitmap, q_counts, d_counts, packing = self._case(
                    5, 12, 70, word_bits, 0.3
                )
                # The last node dominates every group: a padding bit the
                # kernel tests against it would pass.
                d_counts[-1] = 300
                assert set_padding_bits(bitmap)
                with use_backend(backend):
                    self._check(bitmap, q_counts, d_counts, packing)

    def test_empty_inputs(self):
        packing = SignaturePacking.uniform(self.N_LABELS)
        for n_q, n_d in ((0, 10), (4, 0), (0, 0)):
            bitmap = CandidateBitmap(n_q, n_d)
            self._check(
                bitmap,
                np.zeros((n_q, self.N_LABELS), dtype=np.int64),
                np.zeros((n_d, self.N_LABELS), dtype=np.int64),
                packing,
            )

    @pytest.mark.parametrize("backend", ["numpy", "instrumented"])
    def test_edge_aware_pass_matches_dense_loop(self, backend):
        for i in range(4 * len(FUZZ_SEEDS)):
            rng = np.random.default_rng(i)
            qg, dg, _ = random_case(rng, max_data_nodes=40, n_edge_labels=3)
            q = CSRGO.from_graphs([qg])
            d = CSRGO.from_graphs([dg])
            n_labels = int(max(q.labels.max(), d.labels.max())) + 1
            bitmap = initialize_candidates(q, d, WORD_BITS[i % len(WORD_BITS)])
            if i % 2:
                set_padding_bits(bitmap)

            def sat(g):
                return np.minimum(
                    edge_pair_histograms(g, n_labels, 3), PAIR_COUNT_CAP
                ).astype(np.uint8)

            expected = dense_refine(
                bitmap.words, sat(q), sat(d), bitmap.word_bits
            )
            expected_pairs = union_pairs(bitmap.words, sat(q))
            with use_backend(backend):
                pairs = refine_candidates_edge_aware(bitmap, q, d, n_labels)
            np.testing.assert_array_equal(bitmap.words, expected)
            assert pairs == expected_pairs


def summed_lanes(sat):
    """The historical lane packer, kept as the oracle: a ``uint64``
    ``.sum(axis=2)`` over shifted lanes plus a transposed copy."""
    n_rows, n_cols = sat.shape
    n_words = -(-n_cols // 4)
    lanes = np.zeros((n_rows, 4 * n_words), dtype=np.uint64)
    lanes[:, :n_cols] = sat
    shifts = np.arange(4, dtype=np.uint64) * np.uint64(16)
    words = (lanes.reshape(n_rows, n_words, 4) << shifts).sum(axis=2, dtype=np.uint64)
    return np.ascontiguousarray(words.T)


class TestSignatureLanes:
    @pytest.mark.parametrize("n_cols", [0, 1, 2, 3, 5, 7, 12, 13, 50])
    @pytest.mark.parametrize("n_rows", [0, 1, 37])
    @pytest.mark.parametrize("backend", ["numpy", "instrumented"])
    def test_bitwise_equal_to_summed_lanes(self, n_cols, n_rows, backend):
        rng = np.random.default_rng(n_cols * 100 + n_rows)
        sat = rng.integers(0, 256, size=(n_rows, n_cols)).astype(np.uint8)
        with use_backend(backend):
            got = filtering.signature_lanes(sat)
        expected = summed_lanes(sat)
        assert got.dtype == np.uint64 and got.shape == expected.shape
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, expected)


class TestIterativeFilter:
    def test_iteration_one_is_label_only(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 3, 2])])
        # The paper's filter: node-only signatures, no edge-aware pass.
        config = SigmoConfig(refinement_iterations=1, edge_signatures=False)
        result = IterativeFilter(q, d, config).run()
        # label-only: data node 0 is candidate for query node 0 even though
        # its neighborhood (label 3) cannot support the match
        assert result.bitmap.test(0, 0)

    def test_deeper_iterations_prune_more(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 3, 2])])
        filt = IterativeFilter(q, d, SigmoConfig(refinement_iterations=2))
        result = filt.run()
        assert not result.bitmap.test(0, 0)

    def test_candidate_counts_monotone_nonincreasing(self, small_dataset):
        from repro.core.csrgo import CSRGO as C

        q = C.from_graphs(small_dataset.queries[:8])
        d = C.from_graphs(small_dataset.data[:20])
        result = IterativeFilter(q, d, SigmoConfig(refinement_iterations=6)).run()
        totals = [s.total_candidates for s in result.iterations]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_stats_structure(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1, 2])])
        config = SigmoConfig(refinement_iterations=3, edge_signatures=False)
        result = IterativeFilter(q, d, config).run()
        assert [s.iteration for s in result.iterations] == [1, 2, 3]
        assert [s.radius for s in result.iterations] == [0, 1, 2]
        assert all(s.candidates_per_node.shape == (2,) for s in result.iterations)

    def test_filter_soundness_never_prunes_true_match(self, rng):
        """Core invariant: a filtered-out node can never be part of a match."""
        from tests.conftest import random_case
        from repro.baselines.networkx_ref import networkx_count_matches

        for _ in range(10):
            qg, dg, _ = random_case(rng)
            q = CSRGO.from_graphs([qg])
            d = CSRGO.from_graphs([dg])
            result = IterativeFilter(q, d, SigmoConfig(refinement_iterations=5)).run()
            # collect all embeddings via oracle and check every mapped node
            # survived the filter
            import networkx as nx
            from networkx.algorithms.isomorphism import GraphMatcher

            gm = GraphMatcher(
                dg.to_networkx(),
                qg.to_networkx(),
                node_match=lambda a, b: a["label"] == b["label"],
                edge_match=lambda a, b: a["label"] == b["label"],
            )
            for mapping in gm.subgraph_monomorphisms_iter():
                for d_node, q_node in mapping.items():
                    assert result.bitmap.test(q_node, d_node)

    def test_packing_derived_from_data_frequencies(self):
        q = CSRGO.from_graphs([path_graph([1, 2])])
        d = CSRGO.from_graphs([path_graph([1] * 6 + [2])])
        filt = IterativeFilter(q, d)
        assert filt.packing.bits[1] >= filt.packing.bits[2]
