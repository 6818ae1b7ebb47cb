"""Unit tests for signatures: packing and batched BFS computation."""

import numpy as np
import pytest

from repro.core.csrgo import CSRGO
from repro.core.signatures import (
    SignaturePacking,
    SignatureState,
    reference_signatures,
)
from repro.graph.generators import path_graph, random_connected_graph, ring_graph


class TestPackingConstruction:
    def test_uniform(self):
        p = SignaturePacking.uniform(8)
        assert p.n_labels == 8
        assert p.bits.sum() == 64

    def test_over_budget_raises(self):
        with pytest.raises(ValueError, match="64-bit"):
            SignaturePacking(np.array([33, 33]))

    def test_zero_bits_raises(self):
        with pytest.raises(ValueError, match="at least 1 bit"):
            SignaturePacking(np.array([0, 4]))

    def test_from_frequencies_skew(self):
        freqs = np.array([1000.0, 1000.0, 10.0, 1.0])
        p = SignaturePacking.from_frequencies(freqs)
        # frequent labels get at least as many bits as rare ones
        assert p.bits[0] >= p.bits[3]
        assert p.bits.sum() <= 64

    def test_from_frequencies_budget_respected(self):
        p = SignaturePacking.from_frequencies(np.ones(20), total_bits=64)
        assert p.bits.sum() <= 64
        assert p.n_labels == 20

    def test_from_frequencies_rejects_negative(self):
        with pytest.raises(ValueError):
            SignaturePacking.from_frequencies(np.array([-1.0]))

    def test_too_many_labels(self):
        with pytest.raises(ValueError):
            SignaturePacking.from_frequencies(np.ones(100), total_bits=64)

    def test_shifts_are_cumulative(self):
        p = SignaturePacking(np.array([4, 8, 2]))
        np.testing.assert_array_equal(p.shifts, [0, 4, 12])


class TestPackUnpack:
    def test_roundtrip_under_capacity(self):
        p = SignaturePacking(np.array([4, 4, 8]))
        counts = np.array([[3, 15, 200], [0, 0, 0]])
        np.testing.assert_array_equal(p.unpack(p.pack(counts)), counts)

    def test_saturation(self):
        p = SignaturePacking(np.array([2, 4]))
        counts = np.array([[100, 3]])
        sat = p.unpack(p.pack(counts))
        np.testing.assert_array_equal(sat, [[3, 3]])  # 2-bit field caps at 3

    def test_saturate_shape_check(self):
        p = SignaturePacking(np.array([4, 4]))
        with pytest.raises(ValueError):
            p.saturate(np.zeros((3, 5)))

    def test_pack_is_uint64(self):
        p = SignaturePacking.uniform(4)
        assert p.pack(np.zeros((2, 4), dtype=int)).dtype == np.uint64


class TestDomination:
    def test_dominates_basic(self):
        p = SignaturePacking(np.array([4, 4]))
        q = p.pack(np.array([[1, 2]]))[0]
        d_yes = p.pack(np.array([[1, 3]]))[0]
        d_no = p.pack(np.array([[0, 5]]))[0]
        assert p.dominates(d_yes, q)
        assert not p.dominates(d_no, q)

    def test_saturation_keeps_filter_sound(self):
        # Query count saturates to the cap; any data count >= cap passes.
        p = SignaturePacking(np.array([2, 4]))
        q = p.pack(np.array([[7, 0]]))[0]  # saturates to 3
        d = p.pack(np.array([[5, 0]]))[0]  # saturates to 3
        assert p.dominates(d, q)

    def test_dominates_broadcasts(self):
        p = SignaturePacking(np.array([4, 4]))
        q = p.pack(np.array([[1, 1]]))[0]
        data = p.pack(np.array([[1, 1], [0, 9], [2, 2]]))
        np.testing.assert_array_equal(p.dominates(data, q), [True, False, True])


class TestSignatureState:
    def test_matches_reference_on_random_graphs(self, rng):
        for _ in range(5):
            g = random_connected_graph(int(rng.integers(4, 15)), 4, 3, rng)
            c = CSRGO.from_graphs([g])
            state = SignatureState(c, 3)
            for radius in range(1, 4):
                state.run_to(radius)
                np.testing.assert_array_equal(
                    state.counts, reference_signatures(c, radius, 3)
                )

    def test_batch_is_per_graph(self):
        c = CSRGO.from_graphs([path_graph([0, 1]), path_graph([1, 0])])
        state = SignatureState(c, 2)
        state.run_to(3)
        # node 0 of graph 0 sees only its own graph's node
        np.testing.assert_array_equal(state.counts[0], [0, 1])
        np.testing.assert_array_equal(state.counts[2], [1, 0])

    def test_radius_zero_counts_empty(self):
        c = CSRGO.from_graphs([ring_graph(4, [0, 1, 0, 1])])
        state = SignatureState(c, 2)
        assert state.counts.sum() == 0 and state.radius == 0

    def test_convergence_detection(self):
        c = CSRGO.from_graphs([path_graph([0, 1, 0])])
        state = SignatureState(c, 2)
        state.run_to(10)
        assert state.converged
        before = state.counts.copy()
        state.step()
        np.testing.assert_array_equal(state.counts, before)

    def test_cannot_rewind(self):
        c = CSRGO.from_graphs([path_graph([0, 1])])
        state = SignatureState(c, 2)
        state.run_to(2)
        with pytest.raises(ValueError):
            state.run_to(1)

    def test_label_out_of_range_rejected(self):
        c = CSRGO.from_graphs([path_graph([0, 5])])
        with pytest.raises(ValueError):
            SignatureState(c, 2)

    def test_negative_label_rejected(self):
        # The constructor rejects negative labels; the filter still guards
        # against arrays mutated after validation.
        c = CSRGO([0, 2], [0, 1, 2], [1, 0], [0, 1])
        c.labels[1] = -1
        with pytest.raises(ValueError, match="outside"):
            SignatureState(c, 2)

    def test_edge_across_graphs_rejected(self):
        # Bitsets are over each graph's local ids; a raw CSR-GO whose edge
        # joins two graphs has no meaning there.  The constructor rejects
        # such an edge first, so mutate a validated batch (graph 0 = edge
        # 0-1, graph 1 = node 2) to reach the filter's own guard.
        c = CSRGO([0, 2, 3], [0, 1, 2, 2], [1, 0], [0, 1, 0])
        c.column_indices[0] = 2
        with pytest.raises(ValueError, match="joins two graphs"):
            SignatureState(c, 2)

    def test_reachable_counts(self):
        c = CSRGO.from_graphs([path_graph([0, 0, 0])])
        state = SignatureState(c, 1)
        state.run_to(1)
        np.testing.assert_array_equal(state.reachable_counts(), [1, 2, 1])

    def test_ring_sizes_tracked(self):
        c = CSRGO.from_graphs([path_graph([0, 0, 0, 0])])
        state = SignatureState(c, 1)
        state.step()
        np.testing.assert_array_equal(state.last_ring_sizes, [1, 2, 2, 1])
