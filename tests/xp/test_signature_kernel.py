"""Bitset signature BFS vs. the scipy-sparse oracle, on every backend.

:class:`ScipySignatureKernel` is the sparse-matrix signature BFS the
numpy backend used to run: frontier and visited sets as boolean CSR
matrices, one ``frontier @ adjacency`` product per ring.  It is kept
here as the oracle of :class:`repro.core.signatures.SignatureState`,
whose masked-bitset kernel must reproduce its counts, ring sizes,
reachable counts and convergence bit for bit at every radius, on both
registered backends.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chem.generator import MoleculeGenerator
from repro.core import signatures
from repro.core.csrgo import CSRGO
from repro.core.signatures import SignatureCapacityError, SignatureState
from repro.graph.generators import random_connected_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.xp import use_backend

sparse = pytest.importorskip("scipy.sparse")

pytestmark = pytest.mark.xp

BACKENDS = ("numpy", "instrumented")
RADII = 6


class ScipySignatureKernel:
    """Sparse signature-BFS state: the historical ``SignatureState``
    internals (one CSR product per ring over the block-diagonal batch
    adjacency)."""

    def __init__(
        self, row_offsets, column_indices, n_nodes, labels, mask, n_labels
    ) -> None:
        n = int(n_nodes)
        adjacency = sparse.csr_matrix(
            (
                np.ones(np.asarray(column_indices).size, dtype=bool),
                np.asarray(column_indices),
                np.asarray(row_offsets),
            ),
            shape=(n, n),
        )
        self._adjacency = adjacency.astype(np.int32)
        labels = np.asarray(labels)
        mask = np.asarray(mask)
        rows = np.flatnonzero(mask)
        onehot_cols = labels[rows].astype(np.int64)
        self._label_onehot = sparse.csr_matrix(
            (
                np.ones(rows.size, dtype=np.int64),
                (rows, onehot_cols),
            ),
            shape=(n, n_labels),
        )
        self._visited = sparse.identity(n, dtype=bool, format="csr")
        self._frontier = sparse.identity(n, dtype=bool, format="csr")

    @property
    def frontier_count(self) -> int:
        """Nodes discovered at the latest ring, summed over the batch."""
        return int(self._frontier.nnz)

    def step(self):
        """One BFS ring for every node: (ring sizes, label-count delta)."""
        expanded = (self._frontier.astype(np.int32) @ self._adjacency).tocsr()
        expanded.data = np.ones_like(expanded.data)
        overlap = self._visited.astype(np.int32).multiply(expanded).tocsr()
        new_ring = (expanded - overlap).tocsr()
        new_ring.eliminate_zeros()
        new_ring = new_ring.astype(bool)
        self._visited = self._visited.maximum(new_ring).tocsr()
        self._frontier = new_ring
        ring_sizes = np.asarray(new_ring.sum(axis=1), dtype=np.int64).ravel()
        if not new_ring.nnz:
            return ring_sizes, None
        delta = (new_ring.astype(np.int64) @ self._label_onehot).toarray()
        return ring_sizes, delta

    def reachable_counts(self):
        """Nodes within the current radius of each node (excluding self)."""
        totals = np.asarray(self._visited.sum(axis=1), dtype=np.int64)
        return totals.ravel() - 1


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def assert_matches_oracle(batch, n_labels, backend, ignore_label=None):
    """Step both kernels to :data:`RADII` and compare every output."""
    labels = np.asarray(batch.labels)
    mask = (
        np.ones(labels.size, dtype=bool)
        if ignore_label is None
        else labels != ignore_label
    )
    oracle = ScipySignatureKernel(
        batch.row_offsets,
        batch.column_indices,
        batch.n_nodes,
        labels,
        mask,
        n_labels,
    )
    want_counts = np.zeros((batch.n_nodes, n_labels), dtype=np.int64)
    with use_backend(backend):
        state = SignatureState(batch, n_labels, ignore_label=ignore_label)
        assert not state.converged
        for radius in range(1, RADII + 1):
            state.step()
            ring_sizes, delta = oracle.step()
            if delta is not None:
                want_counts += delta
            assert state.radius == radius
            assert_bitwise(state.counts, want_counts)
            assert_bitwise(state.last_ring_sizes, ring_sizes)
            assert_bitwise(state.reachable_counts(), oracle.reachable_counts())
            assert state.converged == (oracle.frontier_count == 0)
    return state


def graphs_of(sizes, rng, n_labels=4, extra_edges=6):
    return [
        random_connected_graph(size, extra_edges, n_labels, rng)
        for size in sizes
    ]


def n_labels_of(batch):
    return int(batch.labels.max()) + 1 if batch.n_nodes else 1


@pytest.mark.parametrize("backend", BACKENDS)
class TestOracleParity:
    def test_generated_molecules(self, backend):
        mols = MoleculeGenerator(seed=7).generate_batch(30)
        batch = CSRGO.from_graphs([m.graph() for m in mols])
        assert_matches_oracle(batch, n_labels_of(batch), backend)

    def test_random_labeled_graphs(self, backend, rng):
        sizes = [int(s) for s in rng.integers(2, 40, size=12)]
        batch = CSRGO.from_graphs(graphs_of(sizes, rng, n_labels=5))
        assert_matches_oracle(batch, 5, backend)

    def test_empty_batch(self, backend):
        batch = CSRGO.from_graphs([])
        state = assert_matches_oracle(batch, 3, backend)
        assert state.counts.shape == (0, 3)
        assert state.converged

    def test_single_nodes_and_isolated_nodes(self, backend):
        graphs = [
            LabeledGraph([2]),
            LabeledGraph([0, 1, 2, 1], [(0, 1), (1, 2)]),  # node 3 isolated
            LabeledGraph([1]),
            LabeledGraph([0, 0, 0]),  # three degree-0 rows
        ]
        batch = CSRGO.from_graphs(graphs)
        state = assert_matches_oracle(batch, 3, backend)
        assert state.converged

    @pytest.mark.parametrize("size", [63, 64, 65, 128, 129])
    def test_word_edges(self, backend, size, rng):
        batch = CSRGO.from_graphs(graphs_of([size, size], rng, extra_edges=10))
        assert_matches_oracle(batch, 4, backend)

    def test_mixed_graph_sizes(self, backend, rng):
        graphs = graphs_of([3, 64, 1, 129, 70, 2, 65], rng, extra_edges=8)
        assert_matches_oracle(CSRGO.from_graphs(graphs), 4, backend)

    def test_wildcard_ignore_label(self, backend, rng):
        # The wildcard label sits outside the counted vocabulary.
        graphs = graphs_of([12, 30, 7], rng, n_labels=4)
        graphs = [
            LabeledGraph(np.where(g.labels == 3, 9, g.labels), g.edges)
            for g in graphs
        ]
        batch = CSRGO.from_graphs(graphs)
        assert_matches_oracle(batch, 3, backend, ignore_label=9)

    def test_ignored_label_inside_vocabulary(self, backend, rng):
        batch = CSRGO.from_graphs(graphs_of([20, 33], rng, n_labels=4))
        assert_matches_oracle(batch, 4, backend, ignore_label=0)

    def test_last_label_is_counted(self, backend, rng):
        n_labels = 6
        graphs = [
            LabeledGraph(np.full(g.n_nodes, n_labels - 1), g.edges)
            for g in graphs_of([5, 17], rng)
        ]
        batch = CSRGO.from_graphs(graphs + graphs_of([9], rng, n_labels=6))
        state = assert_matches_oracle(batch, n_labels, backend)
        assert state.counts[:, n_labels - 1].sum() > 0


def cap_words(batch, n_labels):
    """Words of the kernel's largest array: label masks or neighbor gather."""
    words = (int(np.diff(batch.graph_offsets).max()) + 63) // 64
    return words * max(batch.n_nodes * n_labels, batch.column_indices.size)


#: (n_labels, extra edges) making each array the kernel's largest.
CAP_CASES = {"label masks": (3, 6), "neighbor gather": (1, 200)}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("largest", sorted(CAP_CASES))
class TestWordCap:
    def cap_batch(self, largest, rng):
        n_labels, extra_edges = CAP_CASES[largest]
        graphs = graphs_of([30, 70], rng, n_labels, extra_edges)
        return CSRGO.from_graphs(graphs), n_labels

    def test_batch_at_the_cap_runs_exactly(self, backend, largest, rng):
        batch, n_labels = self.cap_batch(largest, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signatures, "SIGNATURE_WORD_CAP", cap_words(batch, n_labels))
            assert_matches_oracle(batch, n_labels, backend)

    def test_batch_over_the_cap_raises(self, backend, largest, rng):
        batch, n_labels = self.cap_batch(largest, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                signatures, "SIGNATURE_WORD_CAP", cap_words(batch, n_labels) - 1
            )
            with use_backend(backend), pytest.raises(
                SignatureCapacityError, match=f"{largest}: .*SIGNATURE_WORD_CAP"
            ) as info:
                SignatureState(batch, n_labels)
        assert isinstance(info.value, MemoryError)


_SCIPY_FREE_RUN = """
import sys
from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.pipeline import MatcherSession

ds = build_benchmark(scale=1.0, n_queries=4, n_data_graphs=12, seed=3)
config = SigmoConfig(refinement_iterations=4)
SigmoEngine(ds.queries, ds.data, config).run()
MatcherSession(ds.queries, config).match(ds.data)
assert "scipy" not in sys.modules, sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy"
)
"""


class TestScipyFree:
    def test_match_path_never_imports_scipy(self):
        src = Path(__file__).resolve().parents[2] / "src"
        run = subprocess.run(
            [sys.executable, "-c", _SCIPY_FREE_RUN],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
