#!/usr/bin/env python3
"""Noise-aware comparison of two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json [NEW.json ...]

Each file is what ``run.py --out FILE`` appends to: ``{"runs": [...]}``.
Untraced runs are grouped by workload; the i-th base run of a workload is
paired with the i-th new run (run the two commits alternately so pairs
share machine conditions).  Several NEW files are pooled.

For every (workload, end-to-end metric) pair, with each metric's
``better`` direction and regression ``bound`` read from
``BENCHMARK.json``:

* ``improved``: the new side wins at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the base runs' own
  interquartile range;
* ``regressed``: the new median is worse than the base median by more
  than ``bound`` (a share of the base median);
* ``unresolved``: the base runs' interquartile range, as a share of
  their median, is wider than ``bound`` — the runs cannot tell a change
  within the bound from noise — unless every new run beats every base
  run;
* ``unchanged``: none of the above.

At least 10 pairs per workload are required.  The exit status is 1 when
any metric regressed, a workload has too few pairs, or any run reported
a wrong answer, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(paths: list[Path]) -> dict[str, list[dict]]:
    """Untraced runs by workload, in file order, metrics as plain numbers."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        for run in json.loads(path.read_text())["runs"]:
            if run.get("trace"):
                continue
            metrics = {
                name: value["value"] if isinstance(value, dict) else value
                for name, value in run["metrics"].items()
            }
            by_workload.setdefault(run["workload"], []).append(
                {"failed": run["failed"], "metrics": metrics}
            )
    return by_workload


def judge(base: list[float], new: list[float], better: str, bound: float) -> dict:
    """Verdict for one (workload, metric) pair of run lists."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0 is worse
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base * 3)
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse = sign * (n_med - b_med) / b_med
    spread = (q3 - q1) / b_med
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if len(pairs) < MIN_PAIRS:
        verdict = "too-few-pairs"
    elif wins / len(pairs) >= MIN_WIN_SHARE and worse < 0 and abs(n_med - b_med) > q3 - q1:
        verdict = "improved"
    elif worse > bound:
        verdict = "regressed"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "pairs": len(pairs),
        "win_share": wins / len(pairs) if pairs else 0.0,
        "base_median": b_med,
        "new_median": n_med,
        "base_q1": q1,
        "base_q3": q3,
        "change": worse,
        "base_spread": spread,
    }


def compare(base_path: Path, new_paths: list[Path], spec_path: Path) -> tuple[list, int]:
    """Rows ``(workload, metric, result)`` and the exit status."""
    specs = json.loads(spec_path.read_text())["end_to_end"]
    base, new = load_runs([base_path]), load_runs(new_paths)
    rows, status = [], 0
    for workload in base:
        if workload not in new:
            continue
        for side in (base[workload], new[workload]):
            if any(run["failed"] for run in side):
                status = 1
        for spec in specs:
            result = judge(
                [r["metrics"][spec["name"]] for r in base[workload]],
                [r["metrics"][spec["name"]] for r in new[workload]],
                spec["better"],
                spec["bound"],
            )
            if result["verdict"] in ("regressed", "too-few-pairs"):
                status = 1
            rows.append((workload, spec, result))
    return rows, status


def render(rows: list) -> str:
    """One summary line per workload, then one detail line per metric."""
    lines, summary = [], {}
    for workload, spec, r in rows:
        summary.setdefault(workload, []).append(
            f"{spec['name']}={r['verdict']}({100 * r['change']:+.1f}%)"
        )
    for workload, cells in summary.items():
        lines.append(f"{workload:<18} " + "  ".join(cells))
    lines.append("")
    lines.append(
        f"{'workload':<18} {'metric':<14} {'verdict':<13} {'base med':>11} "
        f"{'new med':>11} {'worse by':>9} {'base IQR/med':>12} {'bound':>6} "
        f"{'wins':>6} {'pairs':>5}"
    )
    for workload, spec, r in rows:
        lines.append(
            f"{workload:<18} {spec['name']:<14} {r['verdict']:<13} "
            f"{r['base_median']:>11.5g} {r['new_median']:>11.5g} "
            f"{100 * r['change']:>8.1f}% {100 * r['base_spread']:>11.1f}% "
            f"{100 * spec['bound']:>5.0f}% {100 * r['win_share']:>5.0f}% {r['pairs']:>5}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="runs of the parent commit")
    parser.add_argument("new", type=Path, nargs="+", help="runs of the change (pooled)")
    parser.add_argument(
        "--spec", type=Path, default=ROOT / "BENCHMARK.json",
        help="benchmark definition holding each metric's direction and bound",
    )
    args = parser.parse_args(argv)
    rows, status = compare(args.base, args.new, args.spec)
    print(render(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
