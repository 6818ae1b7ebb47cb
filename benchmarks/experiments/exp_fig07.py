"""Fig. 7: optimal refinement-iteration count vs query-graph diameter.

The paper groups queries by diameter (balanced groups, diameters 1-12) and
reruns the sweep per group: "As the diameter increases ... the best number
of refinement iterations occurs later."  Groups whose queries have a
zero-candidate node from the start behave irregularly (no join happens).
"""

from __future__ import annotations

import numpy as np

from benchmarks.experiments.shared import (
    PAPER_CONFIG,
    SCALE_TO_PAPER,
    ExperimentReport,
    fmt_table,
    reference_dataset,
)
from repro.chem.datasets import balanced_diameter_groups
from repro.core.engine import SigmoEngine
from repro.device.counters import counters_from_result
from repro.device.spec import DEVICES
from repro.perf.model import PerformanceModel

SWEEP = tuple(range(1, 9))


def run(device_name: str = "nvidia-v100s", max_diameter: int = 12) -> ExperimentReport:
    """Per-diameter-group iteration sweeps with modeled device times."""
    ds = reference_dataset()
    groups = balanced_diameter_groups(ds, max_diameter)
    model = PerformanceModel(DEVICES[device_name], word_bits=32)
    rows = []
    best_by_diameter = {}
    for diameter, query_idxs in groups.items():
        queries = [ds.queries[i] for i in query_idxs]
        engine = SigmoEngine(queries, ds.data, PAPER_CONFIG)
        totals = []
        matches = 0
        for s in SWEEP:
            result = engine.run(config=PAPER_CONFIG.with_iterations(s))
            counters = counters_from_result(result, engine.query, engine.data)
            times = model.estimate_scaled(counters, SCALE_TO_PAPER)
            totals.append(times.total_seconds)
            matches = result.total_matches
        best = SWEEP[int(np.argmin(totals))]
        best_by_diameter[diameter] = best
        rows.append(
            [diameter, len(query_idxs), matches, best]
            + [round(t, 4) for t in totals]
        )
    text = fmt_table(
        ["diam", "queries", "matches", "best_iter"] + [f"s={s}" for s in SWEEP],
        rows,
    )
    diams = sorted(best_by_diameter)
    if len(diams) >= 4:
        half = len(diams) // 2
        low = float(np.mean([best_by_diameter[d] for d in diams[:half]]))
        high = float(np.mean([best_by_diameter[d] for d in diams[half:]]))
        text += (
            f"\nmean best iteration: small diameters {low:.2f} vs "
            f"large diameters {high:.2f}"
        )
    else:  # pragma: no cover - tiny datasets
        low = high = 0.0
    return ExperimentReport(
        experiment="fig07",
        title="Best refinement iteration by query diameter",
        text=text,
        data={"best_by_diameter": best_by_diameter, "low_mean": low, "high_mean": high},
        paper_reference=(
            "optimum shifts right as diameter grows; diameters 8/10/11/12 "
            "behave irregularly (zero-candidate nodes, null joins)"
        ),
    )
