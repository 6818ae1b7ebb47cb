"""Ablations of SIGMo's design choices (beyond the paper's figures).

The paper motivates four design decisions; each ablation here isolates one
by disabling/replacing it and measuring the real work counters:

1. **Iterative filtering** (Alg. 1) vs label-only filtering — the join
   work saved by deeper refinement.
2. **Frequency-skewed signature bit allocation** (section 4.2) vs uniform
   fields — candidates surviving the filter.
3. **GMCR mapping** (section 4.5) vs joining every (molecule, query) pair
   — pairs entering the join.
4. **Fewest-candidates matching order** vs plain BFS order in the join —
   candidate visits during backtracking.
5. **Bounded frontier join** vs level-synchronous BFS join (the design the
   paper explicitly rejected in section 4.6) — peak partial-match memory,
   both read from the shipping fused kernel's own tables: the rows it
   builds per depth are what a BFS join of the same wave holds per level,
   while its element-bounded blocks cap what it holds at once.
6. **Edge-aware radius-1 signatures** (this repository's extension, on
   by default) against the paper's node-label signatures — the join
   visits the default filter saves by checking bond orders early.

Ablations 1-5 run the paper's node-only filter (``PAPER_CONFIG``), so
they isolate the paper's mechanisms.
"""

from __future__ import annotations

import numpy as np

from dataclasses import replace

from benchmarks.experiments.shared import (
    PAPER_CONFIG,
    ExperimentReport,
    fmt_table,
    reference_dataset,
)
from repro.accel.fused import FUSED_BLOCK_ELEMS
from repro.core.engine import SigmoEngine
from repro.core.filtering import IterativeFilter
from repro.core.join import run_join
from repro.core.mapping import GMCR, build_gmcr

#: Ablations run on a subset so four extra pipeline runs stay cheap.
N_QUERIES = 150
N_DATA = 80


def _engine() -> SigmoEngine:
    ds = reference_dataset()
    return SigmoEngine(ds.queries[:N_QUERIES], ds.data[:N_DATA])


def _full_gmcr(engine: SigmoEngine) -> GMCR:
    """A GMCR pairing every data graph with every query graph."""
    n_d, n_q = engine.data.n_graphs, engine.query.n_graphs
    offsets = np.arange(n_d + 1, dtype=np.int64) * n_q
    indices = np.tile(np.arange(n_q, dtype=np.int32), n_d)
    return GMCR(offsets, indices, np.zeros(indices.size, dtype=bool))


def run() -> ExperimentReport:
    """Run all four ablations and report the work ratios."""
    engine = _engine()
    rows = []
    data = {}

    # 1. iterative filtering
    deep = engine.run(config=PAPER_CONFIG.with_iterations(6))
    shallow = engine.run(config=PAPER_CONFIG.with_iterations(1))
    ratio = (
        shallow.join_result.stats.candidate_visits
        / deep.join_result.stats.candidate_visits
    )
    rows.append(
        [
            "iterative filter (6 vs 1 iters)",
            "join candidate visits",
            shallow.join_result.stats.candidate_visits,
            deep.join_result.stats.candidate_visits,
            f"x{ratio:.2f}",
        ]
    )
    data["filter_visits_ratio"] = ratio

    # 2. signature bit allocation (same total budget, uniform fields)
    n_labels = engine.n_labels
    uniform_bits = tuple([64 // n_labels] * n_labels)
    skewed = deep.filter_result.total_candidates
    uniform = engine.run(
        config=replace(
            PAPER_CONFIG, refinement_iterations=6, signature_bits=uniform_bits
        )
    ).filter_result.total_candidates
    rows.append(
        [
            "skewed vs uniform signature bits",
            "surviving candidates",
            uniform,
            skewed,
            f"x{uniform / skewed:.2f}",
        ]
    )
    data["packing_candidates_ratio"] = uniform / skewed

    # 3. GMCR mapping vs all-pairs join
    config = PAPER_CONFIG.with_iterations(6)
    filt = IterativeFilter(engine.query, engine.data, config, engine.n_labels).run()
    mapped = build_gmcr(filt.bitmap, engine.query, engine.data)
    unmapped = _full_gmcr(engine)
    join_mapped = run_join(
        engine.query, engine.data, filt.bitmap, mapped, config
    )
    join_unmapped = run_join(
        engine.query, engine.data, filt.bitmap, unmapped, config
    )
    assert join_mapped.total_matches == join_unmapped.total_matches
    rows.append(
        [
            "GMCR mapping vs all pairs",
            "pairs entering join",
            unmapped.n_pairs,
            mapped.n_pairs,
            f"x{unmapped.n_pairs / max(mapped.n_pairs, 1):.2f}",
        ]
    )
    data["gmcr_pairs_ratio"] = unmapped.n_pairs / max(mapped.n_pairs, 1)

    # 4. matching order heuristic
    bfs = engine.run(
        config=replace(
            PAPER_CONFIG, refinement_iterations=6, candidate_order="bfs"
        )
    )
    rows.append(
        [
            "fewest-candidates vs BFS order",
            "join candidate visits",
            bfs.join_result.stats.candidate_visits,
            deep.join_result.stats.candidate_visits,
            f"x{bfs.join_result.stats.candidate_visits / deep.join_result.stats.candidate_visits:.2f}",
        ]
    )
    data["order_visits_ratio"] = (
        bfs.join_result.stats.candidate_visits
        / deep.join_result.stats.candidate_visits
    )

    # 5. bounded frontier vs level-synchronous BFS join (section 4.6), from
    # the s=6 run's fused waves: the largest level table a BFS join of a
    # wave would hold against the blocked table's peak bytes.  (The scalar
    # DFS holds one stack of at most 30 x 8 bytes per pair.)
    level_bytes = deep.join_result.fused_level_table_bytes
    peak_bytes = deep.join_result.fused_peak_table_bytes
    rows.append(
        [
            "blocked frontier vs BFS join",
            "peak partial-match bytes",
            level_bytes,
            peak_bytes,
            f"x{level_bytes / max(peak_bytes, 1):.1f}",
        ]
    )
    data["bfs_partial_bytes"] = level_bytes
    data["fused_peak_table_bytes"] = peak_bytes

    # 6. edge-aware signatures (extension, the default filter): the
    # "ablated" column is the paper's node-only filter
    aware = engine.run(
        config=replace(PAPER_CONFIG, refinement_iterations=6, edge_signatures=True)
    )
    assert aware.total_matches == deep.total_matches
    rows.append(
        [
            "edge-aware (default) vs node-only",
            "join candidate visits",
            deep.join_result.stats.candidate_visits,
            aware.join_result.stats.candidate_visits,
            f"x{deep.join_result.stats.candidate_visits / max(aware.join_result.stats.candidate_visits, 1):.2f}",
        ]
    )
    data["edge_sig_visits_ratio"] = (
        deep.join_result.stats.candidate_visits
        / max(aware.join_result.stats.candidate_visits, 1)
    )
    data["matches_equal"] = (
        deep.total_matches
        == shallow.total_matches
        == bfs.total_matches
        == join_mapped.total_matches
        == aware.total_matches
    )

    text = fmt_table(
        ["design choice", "metric", "ablated", "SIGMo", "overhead"], rows
    )
    text += (
        f"\nall variants agree on {deep.total_matches} matches "
        f"({N_QUERIES} queries x {N_DATA} molecules)"
        "\nblocked frontier vs BFS join: 'ablated' is the largest level table a"
        "\nlevel-synchronous join of one fused wave holds (rows x (depth + 2) x 8 B),"
        "\n'SIGMo' the fused table's peak bytes held at once (stack, block and its"
        "\nnew table); the scalar DFS holds one 30 x 8 B stack per pair.  A block"
        f"\nsplits only above {FUSED_BLOCK_ELEMS:,} elements; while no level is that"
        "\nlarge, the peak is whole levels plus the pending stack."
    )
    return ExperimentReport(
        experiment="ablations",
        title="Design-choice ablations",
        text=text,
        data=data,
        paper_reference=(
            "each mechanism motivated in sections 3-4.5; the paper ablates "
            "only the iteration count (Figs. 5-7)"
        ),
    )
