"""Debug-mode dynamic contract checkers for SIGMo's layout invariants.

The GPU-shaped data structures carry invariants the kernels assume but
never re-verify on the hot path:

* **CSR-GO** — ``graph_offsets``/``row_offsets`` are monotone prefix sums,
  adjacency lists are sorted and deduplicated, edges never cross graph
  boundaries, adjacency is symmetric with matching edge labels, and the
  label array covers every node.
* **Candidate bitmaps** — tail bits beyond ``n_data_nodes`` in the last
  word are zero (a stray tail bit silently invents candidates for the
  join's word-wide scans), and reported candidate counts equal the actual
  popcount.
* **Refinement monotonicity** — a refine step only ever clears bits
  (paper Alg. 1's invariant: a node pruned at iteration ``i-1`` cannot
  return at ``i``).

All checks are gated behind ``REPRO_CHECK=1`` (see :func:`enabled`) so
production runs pay nothing; the engine calls them at stage boundaries
when enabled.  Violations raise :class:`ContractViolation` listing every
failed clause.

This module deliberately imports nothing from :mod:`repro.core` (checks
are duck-typed on array attributes) so the engine can import it without a
cycle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

#: Environment flag that turns the checkers on.
ENV_FLAG = "REPRO_CHECK"
_TRUTHY = {"1", "true", "on", "yes"}

_force: bool | None = None


class ContractViolation(RuntimeError):
    """A kernel-layout contract does not hold."""


def enabled() -> bool:
    """Whether contract checking is active (env flag or forced override)."""
    if _force is not None:
        return _force
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


@contextmanager
def forced(value: bool = True):
    """Temporarily force checking on/off regardless of the environment."""
    global _force
    prev = _force
    _force = value
    try:
        yield
    finally:
        _force = prev


def _fail(name: str, clauses: list[str]) -> None:
    if clauses:
        details = "\n  - ".join(clauses)
        raise ContractViolation(f"{name}: {len(clauses)} violation(s)\n  - {details}")


# -- CSR-GO -------------------------------------------------------------------


def check_csrgo(graph, name: str = "csrgo") -> None:
    """Validate every CSR-GO invariant; raise listing all failures.

    ``graph`` needs ``graph_offsets``, ``row_offsets``, ``column_indices``,
    ``labels`` and ``adj_edge_labels`` arrays (duck-typed).
    """
    bad: list[str] = []
    go = np.asarray(graph.graph_offsets)
    ro = np.asarray(graph.row_offsets)
    col = np.asarray(graph.column_indices)
    labels = np.asarray(graph.labels)
    elabs = np.asarray(graph.adj_edge_labels)

    if go.size < 1 or go[0] != 0:
        bad.append("graph_offsets must start at 0")
    if np.any(np.diff(go) < 0):
        bad.append("graph_offsets not monotone non-decreasing")
    n_nodes = int(go[-1]) if go.size else 0
    if ro.size != n_nodes + 1:
        bad.append(f"row_offsets length {ro.size} != total nodes + 1 ({n_nodes + 1})")
    elif ro[0] != 0 or np.any(np.diff(ro) < 0):
        bad.append("row_offsets not a monotone prefix sum from 0")
    if labels.size != n_nodes:
        bad.append(f"labels length {labels.size} != node count {n_nodes}")
    if elabs.size != col.size:
        bad.append("adj_edge_labels not parallel to column_indices")
    if bad:
        _fail(name, bad)  # structural failures make the rest meaningless

    if col.size != int(ro[-1]):
        bad.append(f"column_indices length {col.size} != row_offsets[-1] ({int(ro[-1])})")
        _fail(name, bad)
    if col.size:
        if col.min() < 0 or col.max() >= n_nodes:
            bad.append("column index out of [0, n_nodes) range")
            _fail(name, bad)
        degrees = np.diff(ro)
        owner = np.repeat(np.arange(n_nodes, dtype=np.int64), degrees)
        # Sorted + deduped: strictly increasing within each adjacency list.
        same_row = owner[:-1] == owner[1:]
        if np.any(same_row & (np.diff(col.astype(np.int64)) <= 0)):
            bad.append("adjacency lists not sorted strictly ascending (or contain duplicates)")
        # Edges stay inside their owner graph.
        g_of_u = np.searchsorted(go, owner, side="right") - 1
        g_of_v = np.searchsorted(go, col, side="right") - 1
        if np.any(g_of_u != g_of_v):
            bad.append("edge crosses a graph boundary (CSR-GO graphs must be disjoint)")
        # Symmetry with matching edge labels: the multiset of (u, v, label)
        # must equal the multiset of (v, u, label).
        fwd = np.lexsort((col, owner))
        rev = np.lexsort((owner, col))
        if not (
            np.array_equal(owner[fwd], col[rev])
            and np.array_equal(col[fwd], owner[rev])
            and np.array_equal(elabs[fwd], elabs[rev])
        ):
            bad.append("adjacency not symmetric with matching edge labels")
    _fail(name, bad)


# -- candidate bitmaps ---------------------------------------------------------


def check_bitmap(
    bitmap, name: str = "bitmap", expected_counts: np.ndarray | None = None
) -> None:
    """Validate word-packed bitmap invariants.

    ``bitmap`` needs ``words`` (2-D unsigned), ``n_query_nodes``,
    ``n_data_nodes`` and ``word_bits`` (duck-typed on
    :class:`repro.core.candidates.CandidateBitmap`).
    """
    bad: list[str] = []
    words = np.asarray(bitmap.words)
    word_bits = int(bitmap.word_bits)
    n_words_expected = -(-int(bitmap.n_data_nodes) // word_bits) if bitmap.n_data_nodes else 0
    if words.ndim != 2 or words.shape != (bitmap.n_query_nodes, n_words_expected):
        bad.append(
            f"words shape {words.shape} != "
            f"({bitmap.n_query_nodes}, {n_words_expected})"
        )
        _fail(name, bad)
    rem = int(bitmap.n_data_nodes) % word_bits
    if rem and words.size:
        valid = (1 << rem) - 1
        invalid_mask = words.dtype.type(((1 << word_bits) - 1) ^ valid)
        stray = np.nonzero(words[:, -1] & invalid_mask)[0]
        if stray.size:
            bad.append(
                f"tail-word bits beyond n_data_nodes set in {stray.size} row(s) "
                f"(first: query node {int(stray[0])}) — word-wide scans would "
                "invent phantom candidates"
            )
    if expected_counts is not None:
        actual = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        expected = np.asarray(expected_counts, dtype=np.int64)
        if expected.shape != actual.shape or not np.array_equal(actual, expected):
            bad.append(
                "reported candidate counts diverge from bitmap popcount "
                f"(reported total {int(expected.sum())}, popcount "
                f"{int(actual.sum())})"
            )
    _fail(name, bad)


def check_refinement_monotone(
    prev_words: np.ndarray, new_words: np.ndarray, name: str = "refine"
) -> None:
    """Assert a refine step only cleared bits (never set new ones)."""
    regrown = np.asarray(new_words) & ~np.asarray(prev_words)
    if np.any(regrown):
        rows = np.nonzero(regrown.any(axis=1))[0]
        raise ContractViolation(
            f"{name}: refinement set {int(np.bitwise_count(regrown).sum())} "
            f"bit(s) that were previously cleared (first row {int(rows[0])}); "
            "Alg. 1 requires monotone pruning"
        )


def check_refine_clears_nothing(
    words: np.ndarray, refined_words: np.ndarray, name: str = "refine"
) -> None:
    """Assert a refine step the filter leaves out as subsumed clears no bit."""
    cleared = np.asarray(words) & ~np.asarray(refined_words)
    if np.any(cleared):
        raise ContractViolation(
            f"{name}: the omitted refine would clear "
            f"{int(np.bitwise_count(cleared).sum())} bit(s); the edge-aware "
            "pass does not subsume it"
        )


# -- GMCR ---------------------------------------------------------------------


def check_gmcr(gmcr, n_query_graphs: int, name: str = "gmcr") -> None:
    """Validate GMCR prefix offsets and index ranges."""
    bad: list[str] = []
    offsets = np.asarray(gmcr.data_graph_offsets)
    idx = np.asarray(gmcr.query_graph_indices)
    matched = np.asarray(gmcr.matched)
    if offsets.size < 1 or offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        bad.append("data_graph_offsets not a monotone prefix sum from 0")
    elif int(offsets[-1]) != idx.size:
        bad.append(
            f"data_graph_offsets[-1] ({int(offsets[-1])}) != "
            f"query_graph_indices length ({idx.size})"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= n_query_graphs):
        bad.append("query graph index out of range")
    if matched.shape != idx.shape:
        bad.append("matched flags not parallel to query_graph_indices")
    _fail(name, bad)


def check_filter_result(filter_result, name: str = "filter") -> None:
    """Post-filter contract: bitmap invariants + final reported counts."""
    expected = None
    if filter_result.iterations:
        expected = filter_result.iterations[-1].candidates_per_node
    check_bitmap(filter_result.bitmap, name=name, expected_counts=expected)
