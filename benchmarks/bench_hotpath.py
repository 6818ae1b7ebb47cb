#!/usr/bin/env python
"""Join hot-path benchmark: accelerated vs. reference backend.

Measures the join-stage wall clock of the scalar stack-DFS reference
backend against the accelerated default (``join_backend="auto"``: the
neighbour-driven fused whole-batch table for every pair) on seeded
suites, and writes/checks the committed ``BENCH_perf.json``.  Every
suite also times a forced-tabular arm (``join_backend="tabular"``: the
same kernel one pair per table) so the cost of fusing pairs is visible
next to the default run.  Each arm's time is the median of
:data:`REPEATS` samples, each the mean over repeated ``run_join`` calls
spanning at least :data:`SAMPLE_SECONDS`.

Suites (all seeded, all verified to produce identical match counts;
every suite is gated at :data:`MIN_SPEEDUP` x):

* ``find-all-hot`` — enumeration-heavy Find All on large, label-sparse
  graphs with label-only filtering (``refinement_iterations=1``), where
  the join dominates end-to-end time.
* ``find-all-molecular`` — the paper-shaped molecular workload
  (selective labels, 6 refinement iterations): thousands of small
  pairs per batch.
* ``find-first`` — Find First on the hot workload: the block-bounded
  table with batched early exit against the abandon-early DFS.

Usage:
    python benchmarks/bench_hotpath.py                    # print results
    python benchmarks/bench_hotpath.py --output BENCH_perf.json
    python benchmarks/bench_hotpath.py --against BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.accel import clear_accel_caches  # noqa: E402
from repro.core.config import SigmoConfig  # noqa: E402
from repro.core.engine import SigmoEngine  # noqa: E402
from repro.core.join import FIND_ALL, FIND_FIRST, run_join  # noqa: E402

#: Required join-stage speedup of the accelerated dispatch over the DFS
#: reference on every gated suite.
MIN_SPEEDUP = 2.0

#: Relative slack when comparing a fresh speedup against the committed
#: one (wall-clock benchmarks on shared CI hosts are noisy).
SPEEDUP_TOLERANCE = 0.4

#: Timing samples per arm; the gate compares their median.
REPEATS = 5

#: Minimum seconds one timing sample spans: a sample repeats the join
#: until this much time has passed and reports the mean per call, so a
#: 7 ms arm is timed over about 30 calls and timer noise washes out.
SAMPLE_SECONDS = 0.2

SCHEMA = "repro.bench_perf/2"


def _hot_workload(seed: int = 0):
    """Large, label-sparse graphs: many embeddings per pair."""
    from repro.graph.generators import (
        random_connected_graph,
        random_subgraph_pattern,
    )

    rng = np.random.default_rng(seed)
    data = [
        random_connected_graph(
            int(rng.integers(150, 250)),
            extra_edges=int(rng.integers(40, 80)),
            n_labels=3,
            rng=rng,
            n_edge_labels=2,
        )
        for _ in range(12)
    ]
    queries = []
    for _ in range(10):
        d = data[int(rng.integers(len(data)))]
        q, _ = random_subgraph_pattern(d, int(rng.integers(4, 7)), rng)
        queries.append(q)
    return queries, data


def _molecular_workload(seed: int = 0):
    """The paper-shaped synthetic ZINC-like benchmark."""
    from repro.chem.datasets import build_benchmark

    ds = build_benchmark(scale=1.0, n_queries=40, n_data_graphs=200, seed=seed)
    return ds.queries, ds.data


SUITES = [
    # (name, workload builder, mode, refinement iterations, gated)
    ("find-all-hot", _hot_workload, FIND_ALL, 1, True),
    ("find-all-molecular", _molecular_workload, FIND_ALL, 6, True),
    ("find-first", _hot_workload, FIND_FIRST, 1, True),
]


def _join_seconds(engine: SigmoEngine, mode: str, repeats: int) -> tuple[float, int, dict]:
    """Median per-call join seconds (cache-warm), matches, backend split.

    One engine run warms the view/plan/signature caches and yields the
    join's inputs; each of ``repeats`` samples then calls ``run_join`` on
    them for at least :data:`SAMPLE_SECONDS`.
    """
    result = engine.run(mode=mode)
    args = (
        engine.query,
        engine.data,
        result.filter_result.bitmap,
        result.gmcr,
        engine.config,
        mode,
    )
    samples = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        while True:
            run_join(*args)
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SAMPLE_SECONDS:
                break
        samples.append(elapsed / calls)
    seconds = float(np.median(samples))
    return seconds, result.total_matches, dict(result.join_result.backend_pairs)


#: Benchmark arms: (row label, forced/auto ``join_backend``).  The
#: tabular arm runs every pair as its own one-slot table — what ``auto``
#: saves by fusing the batch.
ARMS = (
    ("reference", "dfs"),
    ("accelerated", "auto"),
    ("tabular", "tabular"),
)


def run_suite(name, build, mode, iterations, repeats=REPEATS) -> dict:
    """One suite: reference (DFS) vs. accelerated (auto) vs. forced tabular."""
    queries, data = build()
    rows = {}
    for label, backend in ARMS:
        clear_accel_caches()
        config = SigmoConfig(
            join_backend=backend, refinement_iterations=iterations
        )
        engine = SigmoEngine(queries, data, config)
        seconds, matches, split = _join_seconds(engine, mode, repeats)
        rows[label] = {
            "join_seconds": seconds,
            "matches": matches,
            "backend_pairs": split,
        }
    ref = rows["reference"]
    for label in ("accelerated", "tabular"):
        if rows[label]["matches"] != ref["matches"]:
            raise AssertionError(
                f"{name}: backend mismatch — reference found "
                f"{ref['matches']} matches, {label} {rows[label]['matches']}"
            )
    acc, tab = rows["accelerated"], rows["tabular"]
    return {
        "suite": name,
        "mode": mode,
        "refinement_iterations": iterations,
        "matches": ref["matches"],
        "join_seconds_reference": ref["join_seconds"],
        "join_seconds_accelerated": acc["join_seconds"],
        "join_seconds_tabular": tab["join_seconds"],
        "speedup": ref["join_seconds"] / acc["join_seconds"],
        "speedup_tabular": ref["join_seconds"] / tab["join_seconds"],
        "backend_pairs_accelerated": acc["backend_pairs"],
    }


def run_all(repeats: int = REPEATS) -> dict:
    """All suites into the ``BENCH_perf.json`` payload."""
    suites = []
    for name, build, mode, iterations, gated in SUITES:
        start = time.perf_counter()
        row = run_suite(name, build, mode, iterations, repeats)
        row["gated"] = gated
        suites.append(row)
        print(
            f"{name:<20} {row['matches']:>8} matches  "
            f"ref {row['join_seconds_reference'] * 1e3:8.1f} ms  "
            f"accel {row['join_seconds_accelerated'] * 1e3:8.1f} ms  "
            f"{row['speedup']:5.2f}x  "
            f"tabular {row['join_seconds_tabular'] * 1e3:8.1f} ms  "
            f"{row['speedup_tabular']:5.2f}x  "
            f"({time.perf_counter() - start:.1f} s)",
            flush=True,
        )
    return {"schema": SCHEMA, "min_speedup": MIN_SPEEDUP, "suites": suites}


def check_against(payload: dict, baseline_path: Path) -> list[str]:
    """Regression gate: fresh results vs. the committed baseline.

    * Match counts must agree exactly with the baseline (correctness).
    * Every gated suite must still clear ``min_speedup``.
    * No suite's speedup may fall below the committed speedup by more
      than :data:`SPEEDUP_TOLERANCE` (relative).
    * The auto arm's per-backend pair split must equal the committed one
      (dispatch is deterministic, so any change is a behaviour change).
    """
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"]
    failures = []
    base_by_name = {row["suite"]: row for row in baseline["suites"]}
    min_speedup = float(baseline.get("min_speedup", MIN_SPEEDUP))
    for row in payload["suites"]:
        base = base_by_name.get(row["suite"])
        if base is None:
            continue
        name = row["suite"]
        if row["matches"] != base["matches"]:
            failures.append(
                f"{name}: matches {row['matches']} != baseline {base['matches']}"
            )
        if row.get("gated") and row["speedup"] < min_speedup:
            failures.append(
                f"{name}: speedup {row['speedup']:.2f}x below the "
                f"{min_speedup:.1f}x gate"
            )
        split = row["backend_pairs_accelerated"]
        if split != base["backend_pairs_accelerated"]:
            failures.append(
                f"{name}: auto dispatch split {split} != baseline "
                f"{base['backend_pairs_accelerated']}"
            )
        floor = base["speedup"] * (1.0 - SPEEDUP_TOLERANCE)
        if row["speedup"] < floor:
            failures.append(
                f"{name}: speedup {row['speedup']:.2f}x regressed vs. "
                f"baseline {base['speedup']:.2f}x (floor {floor:.2f}x)"
            )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="", help="write BENCH_perf.json here")
    parser.add_argument(
        "--against", default="", help="compare against a committed BENCH_perf.json"
    )
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args()

    payload = run_all(repeats=args.repeats)
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.against:
        failures = check_against(payload, Path(args.against))
        if failures:
            print(f"{len(failures)} perf regression(s):")
            for f in failures:
                print(f"  {f}")
            raise SystemExit(1)
        print(f"perf gate OK against {args.against}")


if __name__ == "__main__":
    main()
