"""Fig. 6: filter vs join time per refinement iteration (V100S).

The paper shows filter time rising with iterations, join time falling, and
the total minimized at an interior iteration count (6 on the V100S):
"beyond a certain number of refinement iterations, the cost of additional
filtering outweighs the performance gains achieved during the join phase."
"""

from __future__ import annotations

from benchmarks.experiments.shared import (
    SCALE_TO_PAPER,
    SWEEP_ITERATIONS,
    ExperimentReport,
    fmt_table,
    reference_engine,
    sweep_counters,
    sweep_result,
)
from repro.core.config import PAPER_TABLE1_CONFIGS, SigmoConfig
from repro.device.spec import DEVICES
from repro.perf.model import PerformanceModel


def default_filter_note() -> str:
    """Where the default (edge-aware) filter's depth rule stops, for contrast.

    The sweep above is the paper's node-only filter at fixed depths; the
    default filter treats ``refinement_iterations`` as a cap and stops
    once one more iteration cannot pay.
    """
    engine = reference_engine()
    fr = engine.run(config=SigmoConfig()).filter_result
    live = [s.live_candidates for s in fr.iterations if s.live_candidates is not None]
    return (
        f"default filter (edge-aware, not the paper's): cap {fr.cap}, "
        f"stops at depth {fr.depth} ({fr.stop_reason}); live candidates "
        f"{live}, total candidates {fr.total_candidates}"
    )


def run(device_name: str = "nvidia-v100s") -> ExperimentReport:
    """Regenerate the Fig. 6 curves on the modeled device."""
    cfg = PAPER_TABLE1_CONFIGS[device_name]
    model = PerformanceModel(
        DEVICES[device_name],
        word_bits=cfg.word_bits,
        filter_workgroup_size=cfg.filter_workgroup_size,
        join_workgroup_size=cfg.join_workgroup_size,
    )
    rows = []
    series = {"filter": [], "join": [], "total": []}
    measured = {"filter": [], "join": []}
    for s in SWEEP_ITERATIONS:
        counters = sweep_counters(s)
        times = model.estimate_scaled(counters, SCALE_TO_PAPER)
        result = sweep_result(s)
        rows.append(
            [
                s,
                times.filter_seconds,
                times.join_seconds,
                times.total_seconds,
                result.filter_seconds,
                result.join_seconds,
            ]
        )
        series["filter"].append(times.filter_seconds)
        series["join"].append(times.join_seconds)
        series["total"].append(times.total_seconds)
        measured["filter"].append(result.filter_seconds)
        measured["join"].append(result.join_seconds)
    best = SWEEP_ITERATIONS[series["total"].index(min(series["total"]))]
    from benchmarks.experiments.textplot import ascii_chart

    text = fmt_table(
        [
            "iter",
            "filter(s,model)",
            "join(s,model)",
            "total(s,model)",
            "filter(s,cpu)",
            "join(s,cpu)",
        ],
        rows,
    )
    text += f"\nlowest modeled total at iteration {best}\n"
    text += default_filter_note() + "\n\n"
    text += ascii_chart(
        series, x_values=list(SWEEP_ITERATIONS), y_label="seconds",
        x_label="refinement iterations",
    )
    return ExperimentReport(
        experiment="fig06",
        title=f"Filter vs join time per iteration ({device_name})",
        text=text,
        data={"series": series, "measured": measured, "best_iteration": best},
        paper_reference=(
            "filter grows with iterations, join shrinks; minimum total "
            "2.12 s at iteration 6 on the V100S"
        ),
    )
