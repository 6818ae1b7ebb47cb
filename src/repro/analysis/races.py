"""Shadow-access race traces for the simulated refine and join kernels.

Each trace replays one kernel's *memory plan* — which work-item touches
which word of which array, with barriers where the real kernel has them —
through :class:`repro.device.simt.ShadowMemory`.  The replay uses the real
pipeline artifacts (actual candidate bitmaps, actual GMCR), so the access
pattern matches what the vectorized kernels compute, at word granularity:

* **Refine** (paper Alg. 1 / section 4.4): one work-item per query node.
  Reads its own signature word and the signatures of its surviving
  candidates (shared, read-only), read-modify-writes only its own bitmap
  row.  Rows are disjoint per work-item, so a correct refine kernel is
  race-free; a kernel that wrote another row's words would be flagged.

* **Join** (section 4.6): one work-group per data graph, one work-item
  per (data graph, query graph) pair.  Reads the data graph's CSR slice
  and the candidate bitmap (shared, read-only), writes its private
  ``pair_matches``/``matched`` slots, and bumps the global match counter
  with an *atomic* — atomics never conflict with each other in the model.

* **Tabular join** (``repro.accel.fused.tabular_join_pair``, the frontier
  kernel one pair per table): same work decomposition as the DFS join,
  but each pair gathers its anchors' neighbours from the batch view's
  row offsets and sorted-CSR key/edge-label arrays, and builds its root
  table and each depth's ``new_table`` in a private
  ``FRONTIER_STRIDE``-word region of a shared ``tabular.frontier``
  space.  Regions are disjoint per pair, so an off-by-one in the stride
  arithmetic would surface as a conflict.

:func:`scatter_add_trace` is the canonical seeded-race kernel: a naive
(non-atomic) scatter-add whose duplicate targets produce the write-write
conflicts the detector must flag.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import segment_counts
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.filtering import (
    IterativeFilter,
    initialize_candidates,
    refine_candidates,
)
from repro.device.simt import ShadowMemory
from repro.pipeline.session import MatcherSession


def trace_refine_races(
    query: CSRGO,
    data: CSRGO,
    config: SigmoConfig | None = None,
    shadow: ShadowMemory | None = None,
) -> ShadowMemory:
    """Replay the init + iterative-refine kernels' memory plan.

    Returns the shadow memory; ``shadow.conflicts`` is empty iff the
    kernels are race-free under the barrier placement (one barrier per
    refinement iteration, as in the paper's kernel sequence).
    """
    config = config or SigmoConfig(refinement_iterations=2)
    shadow = shadow or ShadowMemory()
    filt = IterativeFilter(query, data, config)
    bitmap = initialize_candidates(
        query, data, config.word_bits, config.wildcard_label
    )
    n_words = bitmap.words.shape[1]
    row_words = np.arange(n_words, dtype=np.int64)

    # InitializeCandidates: work-item per query node writes its own row.
    for q in range(query.n_nodes):
        shadow.read("labels.query", q, q)
        shadow.write_many("bitmap", q * n_words + row_words, q)
    shadow.barrier()

    for iteration in range(2, config.refinement_iterations + 1):
        radius = iteration - 1
        q_counts, d_counts = filt._signatures_at(radius)
        for q in range(query.n_nodes):
            shadow.read("sig.query", q, q)
            # Candidate signature loads: shared read-only traffic.
            shadow.read_many("sig.data", bitmap.candidates_of(q), q)
            words = q * n_words + row_words
            shadow.read_many("bitmap", words, q)
            shadow.write_many("bitmap", words, q)
        refine_candidates(bitmap, q_counts, d_counts, filt.packing)
        shadow.barrier()
    return shadow


def _pipeline_artifacts(query: CSRGO, data: CSRGO, config: SigmoConfig):
    """The refined candidate bitmap and GMCR of one pipeline run."""
    run = MatcherSession(query, config).match(data)
    return run.filter_result.bitmap, run.gmcr


def trace_join_races(
    query: CSRGO,
    data: CSRGO,
    config: SigmoConfig | None = None,
    shadow: ShadowMemory | None = None,
) -> ShadowMemory:
    """Replay the join kernel's memory plan over the real GMCR.

    Work-items across *all* work-groups are traced in one epoch (no
    barrier synchronizes different work-groups), so cross-group write
    sharing would be flagged too; only the atomic match counter is shared
    by design.
    """
    config = config or SigmoConfig(refinement_iterations=2)
    shadow = shadow or ShadowMemory()
    bitmap, gmcr = _pipeline_artifacts(query, data, config)
    n_words = bitmap.words.shape[1]
    word_bits = bitmap.word_bits

    for d in range(gmcr.n_data_graphs):
        pair_lo = int(gmcr.data_graph_offsets[d])
        pair_hi = int(gmcr.data_graph_offsets[d + 1])
        if pair_hi == pair_lo:
            continue
        d_start, d_stop = data.graph_node_range(d)
        csr_rows = np.arange(d_start, d_stop + 1, dtype=np.int64)
        w_lo = d_start // word_bits
        w_hi = -(-d_stop // word_bits)
        graph_words = np.arange(w_lo, w_hi, dtype=np.int64)
        for pair_idx in range(pair_lo, pair_hi):
            item = pair_idx
            qg = int(gmcr.query_graph_indices[pair_idx])
            q_start, q_stop = query.graph_node_range(qg)
            # Work-group-resident adjacency: shared read-only.
            shadow.read_many("csr.row_offsets", csr_rows, item)
            for q in range(q_start, q_stop):
                shadow.read_many("bitmap", q * n_words + graph_words, item)
            # Private result slots + the designated GMCR boolean.
            shadow.write("join.pair_matches", pair_idx, item)
            shadow.write("gmcr.matched", pair_idx, item)
            # Global Find-All counter: atomic by design.
            shadow.atomic("join.match_count", 0, item)
    return shadow


#: Private frontier-table region reserved per (data, query) pair in the
#: tabular trace; frontier writes land at ``pair_idx * stride + offset``.
FRONTIER_STRIDE = 1 << 14


def trace_tabular_join_races(
    query: CSRGO,
    data: CSRGO,
    config: SigmoConfig | None = None,
    shadow: ShadowMemory | None = None,
) -> ShadowMemory:
    """Replay the one-pair-per-table frontier kernel's memory plan.

    Same work decomposition as the DFS join (one work-item per
    (data graph, query graph) pair, all pairs in one epoch) but the
    frontier kernel's memory traffic: neighbour gathers over the batch
    view's row offsets and sorted flat-key/edge-label arrays replace
    scalar dict probes, bitmap words answer candidate membership, and
    each pair grows *private* frontier tables (``fused_join``'s root
    table, ``extend_fused_block``'s ``new_table`` of neighbour
    survivors) — modeled as a per-pair region of the
    ``tabular.frontier`` space, so any cross-pair frontier sharing would
    conflict.  Result slots and the atomic Find-All counter are shared
    with the DFS plan.
    """
    config = config or SigmoConfig(refinement_iterations=2)
    shadow = shadow or ShadowMemory()
    bitmap, gmcr = _pipeline_artifacts(query, data, config)
    n_words = bitmap.words.shape[1]
    word_bits = bitmap.word_bits
    # Candidates of every query node inside every data graph.
    counts = segment_counts(bitmap, data.graph_offsets).tolist()

    for d in range(gmcr.n_data_graphs):
        pair_lo = int(gmcr.data_graph_offsets[d])
        pair_hi = int(gmcr.data_graph_offsets[d + 1])
        if pair_hi == pair_lo:
            continue
        d_start, d_stop = data.graph_node_range(d)
        csr_rows = np.arange(d_start, d_stop + 1, dtype=np.int64)
        adj_lo = int(data.row_offsets[d_start])
        adj_hi = int(data.row_offsets[d_stop])
        edge_slots = np.arange(adj_lo, adj_hi, dtype=np.int64)
        w_lo = d_start // word_bits
        w_hi = -(-d_stop // word_bits)
        graph_words = np.arange(w_lo, w_hi, dtype=np.int64)
        for pair_idx in range(pair_lo, pair_hi):
            item = pair_idx
            qg = int(gmcr.query_graph_indices[pair_idx])
            q_start, q_stop = query.graph_node_range(qg)
            base = pair_idx * FRONTIER_STRIDE
            offset = 0
            # Neighbour gathers + vectorized probes: shared read-only
            # batch-view traffic (row offsets, sorted flat keys, the
            # parallel edge labels) over the data graph's range.
            shadow.read_many("csr.row_offsets", csr_rows, item)
            shadow.read_many("csr.flat_keys", edge_slots, item)
            shadow.read_many("csr.edge_labels", edge_slots, item)
            for q in range(q_start, q_stop):
                # Candidate membership of the gathered neighbours.
                shadow.read_many("bitmap", q * n_words + graph_words, item)
                # The root table and each depth's new_table live in
                # pair-private storage, one slot per row (bounded by the
                # node's candidates inside the data graph).
                n_rows = min(counts[q][d], FRONTIER_STRIDE - offset)
                if n_rows > 0:
                    rows = base + offset + np.arange(n_rows, dtype=np.int64)
                    shadow.write_many("tabular.frontier", rows, item)
                    offset += n_rows
            # Private result slots + the designated GMCR boolean.
            shadow.write("join.pair_matches", pair_idx, item)
            shadow.write("gmcr.matched", pair_idx, item)
            # Global Find-All counter: atomic by design.
            shadow.atomic("join.match_count", 0, item)
    return shadow


def scatter_add_trace(
    indices, shadow: ShadowMemory | None = None
) -> ShadowMemory:
    """Replay a *naive* scatter-add: the canonical racy test kernel.

    Work-item ``i`` performs a non-atomic read-modify-write on
    ``out[indices[i]]`` with no barrier; any duplicated target index is a
    write-write (and read-write) race the detector must flag.  Replace the
    plain accesses with :meth:`ShadowMemory.atomic` and the trace is
    clean — the fix the real bitmap kernels apply (atomic-OR updates).
    """
    shadow = shadow or ShadowMemory()
    for item, word in enumerate(np.asarray(indices, dtype=np.int64).ravel()):
        shadow.read("scatter.out", int(word), item)
        shadow.write("scatter.out", int(word), item)
    return shadow


def run_race_checks(
    n_queries: int = 4, n_data_graphs: int = 10, seed: int = 0
) -> dict[str, ShadowMemory]:
    """Build a small calibrated dataset and trace both kernels.

    The ``python -m repro analyze`` dynamic pass; returns the shadow
    memories keyed by kernel name.
    """
    from repro.chem.datasets import build_benchmark

    ds = build_benchmark(
        n_queries=n_queries, n_data_graphs=n_data_graphs, seed=seed
    )
    query = CSRGO.from_graphs(ds.queries)
    data = CSRGO.from_graphs(ds.data)
    return {
        "refine": trace_refine_races(query, data),
        "join": trace_join_races(query, data),
        "tabular": trace_tabular_join_races(query, data),
    }
