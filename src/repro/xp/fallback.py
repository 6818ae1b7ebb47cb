"""Dense scipy-free signature kernel, the non-numpy shim fallback.

The ``signature_kernel`` shim of :mod:`repro.xp.contract` is the one
shim without a portable array-API spelling on the numpy backend (it uses
scipy-sparse products).  :class:`DenseSignatureKernel` composes only
array-API operations, so any backend without a sparse library — the
``instrumented`` backend today, and the numpy backend when scipy is
missing — gets an exact, memory-capped implementation.
"""

from __future__ import annotations


#: Largest ``n_nodes**2`` the dense signature fallback will allocate
#: (three boolean n x n operands; 2^26 cells caps each at 64 MB).
DENSE_SIGNATURE_CELL_CAP = 1 << 26


class DenseSignatureKernel:
    """Dense scipy-free replacement for the sparse signature BFS.

    Keeps ``visited``/``frontier`` as dense boolean matrices and advances
    one ring per :meth:`step` with two integer matmuls — the exact dense
    transliteration of ``SignatureState.step``'s sparse products, so ring
    sizes and per-label count deltas are bit-identical to the scipy path.
    Molecular batches are tiny relative to :data:`DENSE_SIGNATURE_CELL_CAP`;
    oversized batches must use a sparse-capable backend.
    """

    def __init__(
        self, be, row_offsets, column_indices, n_nodes, labels, mask, n_labels
    ) -> None:
        if n_nodes * n_nodes > DENSE_SIGNATURE_CELL_CAP:
            raise MemoryError(
                f"dense signature fallback refuses {n_nodes}^2 cells "
                f"(cap {DENSE_SIGNATURE_CELL_CAP}); use a sparse-capable "
                "backend for this batch"
            )
        self._be = be
        n = int(n_nodes)
        self._n = n
        adjacency = be.zeros((n, n), dtype=be.int32)
        degrees = be.diff(be.asarray(row_offsets, dtype=be.int64))
        rows = be.repeat(be.arange(n, dtype=be.int64), degrees)
        adjacency[rows, be.asarray(column_indices, dtype=be.int64)] = 1
        self._adjacency = adjacency
        onehot = be.zeros((n, n_labels), dtype=be.int64)
        mask_rows = be.nonzero(be.asarray(mask))[0]
        onehot[mask_rows, be.asarray(labels, dtype=be.int64)[mask_rows]] = 1
        self._label_onehot = onehot
        eye = be.astype(be.eye(n, dtype=be.int8), be.bool_)
        self._visited = eye
        self._frontier = eye.copy()

    @property
    def frontier_count(self) -> int:
        """Nodes discovered at the latest ring, summed over the batch."""
        return int(self._frontier.sum(dtype=self._be.int64))

    def step(self):
        """One BFS ring for every node: (ring sizes, label-count delta)."""
        be = self._be
        expanded = (
            be.matmul(
                be.astype(self._frontier, be.int32), self._adjacency
            )
            > 0
        )
        new_ring = expanded & ~self._visited
        self._visited |= new_ring
        self._frontier = new_ring
        ring_sizes = new_ring.sum(axis=1, dtype=be.int64)
        if not bool(new_ring.any()):
            return ring_sizes, None
        delta = be.matmul(be.astype(new_ring, be.int64), self._label_onehot)
        return ring_sizes, delta

    def reachable_counts(self):
        """Nodes within the current radius of each node (excluding self)."""
        return self._visited.sum(axis=1, dtype=self._be.int64) - 1
