#!/usr/bin/env python
"""Observability overhead benchmark: monitor-on vs. monitor-off serving.

The flight recorder and SLO engine are *always on* in the default
:class:`MatchService`; this benchmark proves they can afford to be.  The
same seeded closed-loop Zipf schedule runs through two arms:

* ``on``  — the default service: every request-life-cycle edge recorded
  into the flight-recorder ring, windows closed and burn rates evaluated
  on every resolution;
* ``off`` — ``ServeMonitor.disabled()``: every hook a no-op (the escape
  hatch for latency-critical deployments).

Arms are interleaved rep by rep (off, on, off, on, ...) so drift on a
shared host hits both equally, and each arm's goodput is the median over
its reps.  The gate requires the monitored arm to keep at least
``1 - MAX_OVERHEAD`` of the unmonitored goodput, and both arms must
produce bitwise-identical total match counts (observability must never
change answers).  The committed numbers live in the ``obs_overhead``
block of ``BENCH_obs.json`` (the rest of that file is the ``repro
profile`` baseline; extra top-level keys are schema-tolerated).

Usage:
    python benchmarks/bench_obs_overhead.py                        # print
    python benchmarks/bench_obs_overhead.py --merge-into BENCH_obs.json
    python benchmarks/bench_obs_overhead.py --against BENCH_obs.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.accel import clear_accel_caches  # noqa: E402
from repro.core.config import SigmoConfig  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    random_connected_graph,
    random_subgraph_pattern,
)
from repro.serve import (  # noqa: E402
    MatchRequest,
    MatchService,
    ServeConfig,
    ServeMonitor,
)
from repro.serve.loadgen import ZipfSampler  # noqa: E402

#: Maximum goodput the always-on monitor may cost (fraction).
MAX_OVERHEAD = 0.05

#: Interleaved repetitions per arm (median taken).  One arm of 18
#: requests lasts about 0.1 s, so a 3-rep median failed the gate on
#: host jitter in about one run in five; 15 reps keep it steady.
REPS = 15

SCHEMA = "repro.bench_obs_overhead/1"

N_QUERIES = 24
N_DATA_GRAPHS = 60
BATCH_GRAPHS = 15
ITERATIONS = 6
N_CLIENTS = 3
REQUESTS_PER_CLIENT = 6
SEED = 17


def build_workload():
    """Queries, data batches, and the per-client Zipf schedule."""
    rng = np.random.default_rng(SEED)
    data = [
        random_connected_graph(
            int(rng.integers(60, 110)),
            extra_edges=int(rng.integers(10, 25)),
            n_labels=12,
            rng=rng,
        )
        for _ in range(N_DATA_GRAPHS)
    ]
    queries = []
    for _ in range(N_QUERIES):
        d = data[int(rng.integers(len(data)))]
        q, _ = random_subgraph_pattern(d, int(rng.integers(6, 9)), rng)
        queries.append(q)
    batches = [
        data[i : i + BATCH_GRAPHS]
        for i in range(0, N_DATA_GRAPHS, BATCH_GRAPHS)
    ]
    schedule = []
    for client in range(N_CLIENTS):
        sampler = ZipfSampler(len(batches), exponent=1.1, seed=[SEED, client])
        schedule.append(
            [sampler.sample() for _ in range(REQUESTS_PER_CLIENT)]
        )
    return queries, batches, schedule


def run_arm(queries, batches, schedule, config, monitored: bool) -> dict:
    """One closed-loop run; returns total matches, wall, and goodput."""
    clear_accel_caches()

    async def run():
        service = MatchService(
            config=config,
            serve=ServeConfig(replicas=1, max_batch_requests=1),
            monitor=None if monitored else ServeMonitor.disabled(),
        )
        key = service.register(queries)
        totals = []

        async def client(client_schedule):
            for batch_index in client_schedule:
                response = await service.submit(
                    MatchRequest(query_key=key, data=batches[batch_index])
                )
                response.raise_for_status()
                totals.append(response.total_matches)

        async with service:
            start = time.perf_counter()
            await asyncio.gather(*(client(s) for s in schedule))
            wall = time.perf_counter() - start
        return totals, wall, service.monitor.recorder_summary()

    totals, wall, recorder = asyncio.run(run())
    return {
        "total_matches": int(sum(totals)),
        "requests": len(totals),
        "wall_seconds": wall,
        "goodput_rps": len(totals) / wall if wall > 0 else 0.0,
        "recorder": recorder,
    }


def run_all() -> dict:
    """Both arms, interleaved REPS times → the ``obs_overhead`` block."""
    queries, batches, schedule = build_workload()
    config = SigmoConfig(refinement_iterations=ITERATIONS)
    goodputs = {"off": [], "on": []}
    totals = set()
    recorder = {}
    for rep in range(REPS):
        # Alternate which arm goes first so host warm-up (CPU frequency,
        # page cache) does not systematically favour one arm.
        order = (("off", False), ("on", True))
        if rep % 2:
            order = order[::-1]
        for arm, monitored in order:
            row = run_arm(queries, batches, schedule, config, monitored)
            goodputs[arm].append(row["goodput_rps"])
            totals.add(row["total_matches"])
            if monitored:
                recorder = row["recorder"]
            print(
                f"rep {rep} {arm:<3} {row['goodput_rps']:8.1f} req/s  "
                f"({row['requests']} requests, "
                f"{row['total_matches']} matches)",
                flush=True,
            )
    if len(totals) != 1:
        raise AssertionError(
            f"monitored and unmonitored arms disagree on matches: {totals}"
        )
    on = statistics.median(goodputs["on"])
    off = statistics.median(goodputs["off"])
    overhead = 1.0 - on / off if off > 0 else 0.0
    print(
        f"median goodput: off {off:.1f} req/s, on {on:.1f} req/s "
        f"-> overhead {overhead * 100:+.2f}%"
    )
    return {
        "schema": SCHEMA,
        "max_overhead": MAX_OVERHEAD,
        "reps": REPS,
        "workload": {
            "n_queries": N_QUERIES,
            "n_data_graphs": N_DATA_GRAPHS,
            "batch_graphs": BATCH_GRAPHS,
            "refinement_iterations": ITERATIONS,
            "n_clients": N_CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "seed": SEED,
        },
        "goodput_off_rps": off,
        "goodput_on_rps": on,
        "overhead_frac": overhead,
        "total_matches": totals.pop(),
        "recorder": recorder,
    }


def check_against(block: dict, baseline_path: Path) -> list[str]:
    """Gate fresh numbers against the committed ``obs_overhead`` block."""
    baseline = json.loads(baseline_path.read_text()).get("obs_overhead")
    if not isinstance(baseline, dict):
        return [f"{baseline_path} has no obs_overhead block"]
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"]
    failures = []
    max_overhead = float(baseline.get("max_overhead", MAX_OVERHEAD))
    if block["overhead_frac"] > max_overhead:
        failures.append(
            f"monitor overhead {block['overhead_frac'] * 100:.2f}% exceeds "
            f"the {max_overhead * 100:.0f}% gate"
        )
    committed = baseline.get("total_matches")
    if committed is not None and block["total_matches"] != committed:
        failures.append(
            f"total matches {block['total_matches']} != committed "
            f"{committed} (seeded workload must be deterministic)"
        )
    return failures


def merge_into(block: dict, path: Path) -> None:
    """Write the block as the ``obs_overhead`` key of ``BENCH_obs.json``."""
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["obs_overhead"] = block
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"merged obs_overhead into {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--merge-into",
        default="",
        help="merge the obs_overhead block into this BENCH_obs.json",
    )
    parser.add_argument(
        "--against",
        default="",
        help="gate against the obs_overhead block of a BENCH_obs.json",
    )
    args = parser.parse_args()

    block = run_all()
    if args.merge_into:
        merge_into(block, Path(args.merge_into))
    if args.against:
        failures = check_against(block, Path(args.against))
        if failures:
            print(f"{len(failures)} observability-overhead regression(s):")
            for f in failures:
                print(f"  {f}")
            raise SystemExit(1)
        print(f"observability-overhead gate OK against {args.against}")


if __name__ == "__main__":
    main()
