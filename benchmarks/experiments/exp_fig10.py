"""Fig. 10: comparison against VF3-, GSI- and cuTS-style matchers.

The paper measures end-to-end time (Find First for SIGMo/VF3, Find All for
GSI/cuTS which lack early stop) and throughput, reporting speedups of
33.6x over VF3, 1470x over GSI and 88x over cuTS.  All four comparators
here run on the same Python substrate, so the *relative* factors are the
reproducible quantity; absolute times are CPU-substrate times.

GSI's documented failure mode is reproduced: queries over ~20 nodes can
exhaust its partial-match table budget (counted as OOM, like the paper
notes "GSI ran out of memory on the largest query graphs").
"""

from __future__ import annotations

import time

from benchmarks.experiments.shared import (
    PAPER_CONFIG,
    ExperimentReport,
    fmt_table,
    reference_dataset,
)
from repro.baselines.cuts_like import CutsLikeMatcher
from repro.baselines.gsi_like import GsiLikeMatcher, GsiOutOfMemory
from repro.baselines.vf2 import VF3Matcher
from repro.core.engine import SigmoEngine

#: Comparison sizes: label-blind cuTS enumeration explodes, so the
#: comparison set is kept small (this is also why the paper caps cuTS runs).
N_QUERIES = 24
N_DATA = 40
#: GSI table budget for this subset (scaled with the tiny dataset).
GSI_BUDGET = 64 * 1024**2


def run() -> ExperimentReport:
    """Time all four systems on a shared subset; report Fig. 10a/b rows."""
    ds = reference_dataset()
    queries = ds.queries[:N_QUERIES]
    data = ds.data[:N_DATA]

    rows = []
    results = {}

    # SIGMo: one batched run (its design point).
    engine = SigmoEngine(queries, data, PAPER_CONFIG)
    t0 = time.perf_counter()
    first = engine.run(mode="find-first")
    t_first = time.perf_counter() - t0
    t0 = time.perf_counter()
    full = engine.run(mode="find-all")
    t_all = time.perf_counter() - t0
    results["SIGMo"] = dict(
        time=t_first, matches=full.total_matches, throughput=full.total_matches / t_all
    )

    # VF3: per-pair loop, early stop supported.
    t0 = time.perf_counter()
    vf3_matches = 0
    for q in queries:
        for d in data:
            vf3_matches += int(VF3Matcher(q, d).find_first() is not None)
    t_vf3_first = time.perf_counter() - t0
    t0 = time.perf_counter()
    vf3_all = sum(VF3Matcher(q, d).count_all() for q in queries for d in data)
    t_vf3_all = time.perf_counter() - t0
    results["VF3"] = dict(
        time=t_vf3_first, matches=vf3_all, throughput=vf3_all / t_vf3_all
    )

    # GSI-like: no early stop; count OOM pairs like the paper reports.
    t0 = time.perf_counter()
    gsi_matches = 0
    gsi_oom = 0
    for q in queries:
        for d in data:
            try:
                gsi_matches += GsiLikeMatcher(q, d, GSI_BUDGET).count_all()
            except GsiOutOfMemory:
                gsi_oom += 1
    t_gsi = time.perf_counter() - t0
    results["GSI-like"] = dict(
        time=t_gsi, matches=gsi_matches, throughput=gsi_matches / t_gsi,
        oom_pairs=gsi_oom,
    )

    # cuTS-like: label-blind, no early stop, far more raw matches.
    t0 = time.perf_counter()
    cuts_matches = sum(
        CutsLikeMatcher(q, d).count_all() for q in queries for d in data
    )
    t_cuts = time.perf_counter() - t0
    results["cuTS-like"] = dict(
        time=t_cuts, matches=cuts_matches, throughput=cuts_matches / t_cuts
    )

    for name, r in results.items():
        rows.append(
            [
                name,
                r["time"],
                results["SIGMo"]["time"] and r["time"] / results["SIGMo"]["time"],
                r["matches"],
                r["throughput"],
            ]
        )
    text = fmt_table(
        ["system", "time(s)", "vs SIGMo", "matches", "matches/s"], rows
    )
    if gsi_oom:
        text += f"\nGSI-like OOM pairs (table budget exceeded): {gsi_oom}"
    text += (
        f"\nsubset: {N_QUERIES} queries x {N_DATA} molecules; SIGMo/VF3 "
        "timed in Find First (early stop), GSI/cuTS in Find All"
    )
    return ExperimentReport(
        experiment="fig10",
        title="State-of-the-art comparison (time and throughput)",
        text=text,
        data={"results": results},
        paper_reference=(
            "SIGMo 2.12 s vs VF3 70.6 s (33.6x), GSI 3087 s (1470x), cuTS "
            "184.9 s (88x); throughput 8.64e7 vs 2.33e6 / 5.39e4 / 1.89e7; "
            "cuTS reports more raw matches (no labels)"
        ),
    )
