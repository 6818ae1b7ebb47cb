#!/usr/bin/env python3
"""Layer-attributed end-to-end benchmark of the matching system.

One workload per process::

    python3 benchmarks/e2e/run.py --workload molecular-screen --seed 3 \\
        --seconds 20 --trace 0

sets the workload up (timed as ``setup_s``), runs ops for ``--seconds``,
checks every answer against the scalar DFS join, prints every metric by
name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 23, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` alternates traced and untraced ops and reports
the per-layer metrics: self times from timing wrappers patched onto each
layer's public functions (see ``layers.py``), work counters, cache hit
ratios, and the residual — op wall clock minus the time every layer
claims — which is reported, never folded into a layer.

Without ``--workload`` the command runs every workload ``--repeats``
times round-robin, each run in a fresh subprocess, then one traced run
per workload, prints a summary, and appends every run to ``--out``
(the input format of ``compare.py``).  The command exits nonzero when an
answer is wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  Times are seconds per
#: op (per request on ``serve-zipf``), averaged over the traced ops.
#: Kernel-level times that are zero on some workload by design (the
#: join backend dispatch sends every pair of ``hot-enum`` to tabular and
#: every pair of ``molecular-screen`` to fused) are reported as shares of
#: their parent so no metric is a constant zero; the layer table printed
#: with each run has every absolute time.
PER_LAYER_UNITS = {
    "serve.self_frac": "ratio",
    "serve.queue_delay_frac": "ratio",
    "serve.requests_per_batch": "count",
    "pipeline.self_s": "s",
    "pipeline.artifact_hit_ratio": "ratio",
    "convert.s": "s",
    "filter.init_s": "s",
    "filter.refine_s": "s",
    "filter.refine_kernel_frac": "ratio",
    "filter.survival_ratio": "ratio",
    "map.s": "s",
    "join.s": "s",
    "join.self_s": "s",
    "join.plan_s": "s",
    "join.kernel_s": "s",
    "join.fused_frac": "ratio",
    "join.tabular_frac": "ratio",
    "join.candidate_visits": "count",
    "join.matches_per_visit": "ratio",
    "join.backend_pairs.fused": "count",
    "join.backend_pairs.tabular": "count",
    "join.backend_pairs.dfs": "count",
    "join.fused_tables": "count",
    "accel.view_s": "s",
    "accel.view_cache_hit_ratio": "ratio",
    "accel.memo_hit_ratio": "ratio",
    "xp.calls": "count",
    "xp.proxy_overhead_s": "s",
    "residual_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Set-ups per run; ``setup_s`` is their median (the first also pays
#: one-time lazy initialisation, which the median discards).
N_SETUPS = 5
#: Traced/untraced alternation period of ``serve-zipf``, in requests.
SERVE_TRACE_SEGMENT = 10
#: Per-op graphs re-checked against the DFS reference.
SAMPLED_GRAPHS_PER_OP = 1


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- per-layer accumulation ---------------------------------------------------


@dataclass
class LayerTotals:
    """Sums over traced ops: layer times, work counters, walls."""

    ops: int = 0
    wall: float = 0.0
    residual: float = 0.0
    self_s: dict = field(default_factory=dict)
    incl_s: dict = field(default_factory=dict)
    serve_self: float = 0.0
    queue_delay: float = 0.0
    pipeline_calls: int = 0
    visits: int = 0
    matches: int = 0
    initial_candidates: int = 0
    final_candidates: int = 0
    fused_tables: int = 0
    proxy_calls: int = 0
    backend_pairs: dict = field(default_factory=dict)

    def add_times(self, self_s: dict, incl_s: dict) -> None:
        for key, value in self_s.items():
            self.self_s[key] = self.self_s.get(key, 0.0) + value
        for key, value in incl_s.items():
            self.incl_s[key] = self.incl_s.get(key, 0.0) + value

    def add_result(self, result) -> None:
        """Work counters of one pipeline call."""
        jr = result.join_result
        self.pipeline_calls += 1
        self.visits += int(jr.stats.candidate_visits)
        self.matches += int(result.total_matches)
        self.fused_tables += int(jr.fused_tables)
        for backend, pairs in jr.backend_pairs.items():
            self.backend_pairs[backend] = self.backend_pairs.get(backend, 0) + int(pairs)
        iterations = result.filter_result.iterations
        if iterations:
            self.initial_candidates += int(iterations[0].total_candidates)
            self.final_candidates += int(iterations[-1].total_candidates)

    def table(self) -> dict[str, float]:
        """Self seconds per op of every layer plus the residual."""
        n = max(self.ops, 1)
        rows = {}
        if self.serve_self:
            rows["serve"] = self.serve_self / n
        for layer, value in self.self_s.items():
            rows[layer] = value / n
        rows["residual"] = self.residual / n
        return rows


def per_layer_metrics(
    totals: LayerTotals,
    hit_ratios: dict[str, float],
    untraced_walls: list[float],
    traced_walls: list[float],
) -> dict[str, float]:
    """Per-op means (per request on ``serve-zipf``) over the traced ops."""
    n = max(totals.ops, 1)
    incl = totals.incl_s
    kernel = incl.get("join.fused", 0.0) + incl.get("join.tabular", 0.0) + incl.get("join.dfs", 0.0)
    overhead = 0.0
    if traced_walls and untraced_walls:
        overhead = statistics.fmean(traced_walls) / statistics.fmean(untraced_walls) - 1.0
    xp_calls = totals.proxy_calls / n
    return {
        "serve.self_frac": _ratio(totals.serve_self, totals.wall),
        "serve.queue_delay_frac": _ratio(totals.queue_delay, totals.wall),
        "serve.requests_per_batch": _ratio(totals.ops, totals.pipeline_calls),
        "pipeline.self_s": totals.self_s.get("pipeline", 0.0) / n,
        "pipeline.artifact_hit_ratio": hit_ratios["artifact"],
        "convert.s": incl.get("convert", 0.0) / n,
        "filter.init_s": incl.get("filter.init", 0.0) / n,
        "filter.refine_s": incl.get("filter.refine", 0.0) / n,
        "filter.refine_kernel_frac": _ratio(
            incl.get("filter.refine_kernel", 0.0), incl.get("filter.refine", 0.0)
        ),
        "filter.survival_ratio": _ratio(totals.final_candidates, totals.initial_candidates),
        "map.s": incl.get("map", 0.0) / n,
        "join.s": incl.get("join", 0.0) / n,
        "join.self_s": totals.self_s.get("join", 0.0) / n,
        "join.plan_s": incl.get("join.plan", 0.0) / n,
        "join.kernel_s": kernel / n,
        "join.fused_frac": _ratio(incl.get("join.fused", 0.0), kernel),
        "join.tabular_frac": _ratio(incl.get("join.tabular", 0.0), kernel),
        "join.candidate_visits": totals.visits / n,
        "join.matches_per_visit": _ratio(totals.matches, totals.visits),
        "join.backend_pairs.fused": totals.backend_pairs.get("fused", 0) / n,
        "join.backend_pairs.tabular": totals.backend_pairs.get("tabular", 0) / n,
        "join.backend_pairs.dfs": totals.backend_pairs.get("dfs", 0) / n,
        "join.fused_tables": totals.fused_tables / n,
        "accel.view_s": incl.get("accel.view", 0.0) / n,
        "accel.view_cache_hit_ratio": hit_ratios["view"],
        "accel.memo_hit_ratio": hit_ratios["memo"],
        "xp.calls": xp_calls,
        # Computed, not timed: proxied lookups x microbenchmarked cost each.
        "xp.proxy_overhead_s": xp_calls * proxy_cost_per_call(),
        "residual_s": totals.residual / n,
        "trace.overhead_frac": overhead,
    }


# -- xp proxy cost -----------------------------------------------------------


def proxy_cost_per_call(n: int = 50_000, repeats: int = 5) -> float:
    """Seconds one ``xp.<fn>(...)`` call costs over calling NumPy directly."""
    import numpy as np

    from repro import xp

    a = np.zeros(4)
    best_xp = best_np = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            xp.asarray(a)
        best_xp = min(best_xp, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(n):
            np.asarray(a)
        best_np = min(best_np, time.perf_counter() - t0)
    return max(best_xp - best_np, 0.0) / n


# -- shared measurement pieces -------------------------------------------------


def _cache_stats(wl) -> dict[str, tuple[int, int]]:
    """(hits, lookups) of the artifact cache, view caches and content memos."""
    from repro.accel.local_view import batch_view_cache, local_view_cache
    from repro.accel.memo import plan_memo, signature_memo

    def pair(*tables):
        hits = sum(t.stats.hits for t in tables)
        return hits, hits + sum(t.stats.misses for t in tables)

    return {
        "artifact": wl.artifact_stats(),
        "view": pair(local_view_cache(), batch_view_cache()),
        "memo": pair(signature_memo(), plan_memo()),
    }


def _hit_ratios(before: dict, after: dict) -> dict[str, float]:
    return {
        key: _ratio(after[key][0] - before[key][0], after[key][1] - before[key][1])
        for key in before
    }


def _end_to_end(setups: list[float], graphs: int, busy_s: float, walls: list[float]) -> dict:
    """End-to-end metrics, plus the p90 latency and its sample count.

    The p90 is printed but is not an end-to-end metric: an op workload
    completes 15-80 ops per run, too few for ten samples beyond the p90.
    """
    return {
        "setup_s": statistics.median(setups),
        "graphs_per_s": _ratio(graphs, busy_s),
        "latency_p50_s": _quantile(walls or [0.0], 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p90_s": _quantile(walls or [0.0], 0.9),
        "latency_samples": len(walls),
    }


def _record(wl, seed: int, trace: bool, answers, failed: int, checks: dict, setups) -> dict:
    """The run's record; ``answers`` holds one match total per op."""
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(answers),
        "failed": failed,
        "checks": checks,
        "setups_s": setups,
        "answers": answers,
    }


def _expected(name: str, seed: int) -> dict | None:
    """Reference counts recorded for ``name`` at the default seed."""
    from workloads import DEFAULT_SEED

    path = HERE / "expected.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["workloads"].get(name)


# -- op workloads ------------------------------------------------------------


@dataclass
class OpRecord:
    """One timed op: its wall clock, answer, and the graphs re-checked."""

    k: int
    graphs: int
    wall: float = 0.0
    counts: object = None  # per-graph counts; None when the op failed
    sample: object = None  # Batch of the graphs re-checked against DFS
    sample_counts: object = None


def measure_ops(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import LayerTimer
    from repro.accel import clear_accel_caches
    from workloads import WORKLOADS, Batch, check_sample, per_graph_counts

    wl = WORKLOADS[name](seed)
    warm = wl.warmup_batch()
    setups = []
    for _ in range(N_SETUPS):
        clear_accel_caches()
        t0 = time.perf_counter()
        wl.setup(warm)
        setups.append(time.perf_counter() - t0)

    caches_before = _cache_stats(wl)
    timer = LayerTimer()
    totals = LayerTotals()
    ops: list[OpRecord] = []
    first_batch = None
    walls_traced: list[float] = []
    walls_plain: list[float] = []
    clock = time.perf_counter
    deadline = clock() + seconds
    k = 0
    while not ops or clock() < deadline:
        batch = wl.batch(k)
        first_batch = first_batch or batch
        traced = trace and k % 2 == 0
        op = OpRecord(k, len(batch.data))
        result = None
        try:
            if traced:
                with timer:
                    timer.reset()
                    t0 = clock()
                    result = wl.run(batch)
                    op.wall = clock() - t0
            else:
                t0 = clock()
                result = wl.run(batch)
                op.wall = clock() - t0
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            traceback.print_exc()
        if result is not None and not result.join_result.truncated:
            op.counts = per_graph_counts(result, len(batch.data))
            if traced:
                totals.ops += 1
                totals.wall += op.wall
                totals.residual += op.wall - timer.top_s
                totals.proxy_calls += timer.proxy_calls
                totals.add_times(timer.self_s, timer.incl_s)
                totals.add_result(result)
            (walls_traced if traced else walls_plain).append(op.wall)
        picks = check_sample(seed, k, len(batch.data), SAMPLED_GRAPHS_PER_OP)
        op.sample = Batch([batch.data[i] for i in picks], batch.queries)
        if op.counts is not None:
            op.sample_counts = op.counts[picks]
        ops.append(op)
        del result
        k += 1
    metrics = _end_to_end(
        setups,
        sum(op.graphs for op in ops),
        sum(op.wall for op in ops),
        [op.wall for op in ops if op.counts is not None],
    )
    hit_ratios = _hit_ratios(caches_before, _cache_stats(wl))

    failed, checks = check_ops(wl, ops, first_batch, _expected(name, seed))
    answers = [None if op.counts is None else int(op.counts.sum()) for op in ops]
    out = _record(wl, seed, trace, answers, failed, checks, setups)
    if trace:
        out["layers"] = totals.table()
        out["wall_s"] = totals.wall / max(totals.ops, 1)
        metrics = per_layer_metrics(totals, hit_ratios, walls_plain, walls_traced)
    out["metrics"] = metrics
    return out


def check_ops(wl, ops: list[OpRecord], first_batch, expected: dict | None) -> tuple[int, dict]:
    """Check every op's answer; returns (failed ops, check summary).

    * every op: its sampled graphs' counts against the DFS reference;
    * the first op: every graph against the DFS reference;
    * at the default seed: op totals against ``expected.json``.
    """
    import numpy as np

    from workloads import Batch

    bad = {op.k for op in ops if op.counts is None}
    full = wl.reference(first_batch)
    if ops[0].counts is not None and not np.array_equal(full, ops[0].counts):
        bad.add(0)
    # Samples sharing a query set go through one reference call: the
    # per-call query-side cost would otherwise dwarf a one-graph join.
    groups: dict[int, list[OpRecord]] = {}
    for op in ops:
        if op.counts is not None:
            groups.setdefault(id(op.sample.queries), []).append(op)
    for group in groups.values():
        data = [g for op in group for g in op.sample.data]
        counts = wl.reference(Batch(data, group[0].sample.queries))
        for op, got in zip(group, np.split(counts, len(group))):
            if not np.array_equal(got, op.sample_counts):
                bad.add(op.k)
    compared = 0
    if expected is not None:
        for op, total in zip(ops, expected["ops"]):
            compared += 1
            if op.counts is None or int(op.counts.sum()) != total:
                bad.add(op.k)
    return len(bad), {
        "dfs_full_batch_graphs": int(full.size),
        "dfs_sampled_ops": len(ops),
        "expected_totals_compared": compared,
    }


# -- serving workload --------------------------------------------------------


async def measure_serve(seed: int, seconds: float, trace: bool) -> dict:
    from layers import LayerTimer
    from repro.accel import clear_accel_caches
    from workloads import ServeZipf, is_complete

    wl = ServeZipf(seed)
    setups = []
    for _ in range(N_SETUPS):
        clear_accel_caches()
        t0 = time.perf_counter()
        await wl.setup()
        setups.append(time.perf_counter() - t0)

    caches_before = _cache_stats(wl)
    timer = LayerTimer(log_calls=True)
    installed = False

    def flip(n_done: int = 0) -> None:
        nonlocal installed
        if n_done % SERVE_TRACE_SEGMENT == 0:
            (timer.__exit__ if installed else timer.__enter__)()
            installed = not installed

    if trace:
        flip()
    try:
        window = await wl.window(seconds, flip if trace else None)
    finally:
        if installed:
            flip()
    done = [r for r in window.requests if is_complete(r.response)]
    metrics = _end_to_end(
        setups, sum(len(r.data) for r in done), window.wall, [r.wall for r in done]
    )
    hit_ratios = _hit_ratios(caches_before, _cache_stats(wl))
    await wl.stop()

    reference = wl.reference_pool_counts()
    expected = _expected(wl.name, seed)
    failed = sum(
        1
        for r in window.requests
        if not is_complete(r.response) or r.response.total_matches != reference[r.pool_index]
    )
    if expected is not None and reference != expected["pool"]:
        failed = max(failed, 1)
    checks = {
        "dfs_reference_pool_batches": len(reference),
        "expected_pool_compared": expected is not None,
    }
    answers = [[r.pool_index, r.response.total_matches] for r in window.requests]
    out = _record(wl, seed, trace, answers, failed, checks, setups)
    if trace:
        totals = serve_layer_totals(window.requests, timer)
        out["layers"] = totals.table()
        out["wall_s"] = totals.wall / max(totals.ops, 1)
        walls_plain = [r.wall for r in window.requests if r.traced_call is None]
        walls_traced = [r.wall for r in window.requests if r.traced_call is not None]
        metrics = per_layer_metrics(totals, hit_ratios, walls_plain, walls_traced)
    out["metrics"] = metrics
    return out


def serve_layer_totals(requests, timer) -> LayerTotals:
    """Per-request latency decomposition of the traced requests.

    A request's client-side wall clock splits into the residual (client
    wall minus the latency the service reports), the serving layer (the
    reported latency minus the ``MatcherSession.match`` call that served
    the request's batch, queue delay included), and the layer self times
    inside that call.  Work counters are summed once per call.
    """
    calls = [c for c in timer.log if c.name == "MatcherSession.match"]
    totals = LayerTotals(proxy_calls=timer.proxy_calls)
    seen: set[int] = set()
    for r in requests:
        call = r.traced_call = _serving_call(calls, r)
        if call is None:
            continue
        latency = r.response.latency_s
        totals.ops += 1
        totals.wall += r.wall
        totals.residual += r.wall - latency
        totals.serve_self += latency - call.elapsed
        totals.queue_delay += r.response.queue_delay_s
        totals.add_times(call.self_s, call.incl_s)
        if id(call) not in seen:
            seen.add(id(call))
            totals.add_result(call.result)
    return totals


def _serving_call(calls, request):
    """The traced ``MatcherSession.match`` call that served ``request``.

    Requests for the same pool batch that wait together are deduplicated
    into one call, so exactly one call inside the request's window holds
    its graphs.
    """
    first = request.data[0]
    end = request.start + request.wall
    for call in calls:
        if call.start >= request.start and call.start + call.elapsed <= end:
            if any(g is first for g in call.args[1]):
                return call
    return None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process and return its result record."""
    if name == "serve-zipf":
        return asyncio.run(measure_serve(seed, seconds, trace))
    return measure_ops(name, seed, seconds, trace)


# -- reporting ----------------------------------------------------------------


def result_line(record: dict) -> dict:
    """The final JSON line: correctness plus every metric with its unit."""
    units = PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def print_report(record: dict) -> None:
    units = PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(
        f"{record['workload']}  seed {record['seed']}  {kind}  "
        f"{record['attempted']} ops, {record['failed']} failed"
    )
    metrics = record["metrics"]
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    if "latency_p90_s" in metrics:
        print(
            f"  {'(latency_p90_s)':<28} {metrics['latency_p90_s']:>14.6g} s "
            f"over {metrics['latency_samples']} samples"
        )
    if "layers" in record:
        wall = record["wall_s"]
        print(f"  layer self time per op (wall {wall:.6f} s):")
        for layer, value in sorted(record["layers"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<24} {value:>12.6f} s  {100 * _ratio(value, wall):6.2f}%")
        total = sum(record["layers"].values())
        print(f"    {'sum':<24} {total:>12.6f} s  {100 * _ratio(total, wall):6.2f}%")
    print(f"  checks: {json.dumps(record['checks'])}")


# -- all-workloads mode ---------------------------------------------------------


def run_subprocess(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload run in a fresh interpreter; returns its record."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--record",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, repeats: int, out: Path | None) -> int:
    from workloads import WORKLOADS

    records = []
    for r in range(repeats):
        for name in WORKLOADS:
            records.append(run_subprocess(name, seed + r, seconds, False))
            print_report(records[-1])
    for name in WORKLOADS:
        records.append(run_subprocess(name, seed, seconds, True))
        print_report(records[-1])
    if out is not None:
        payload = {"runs": []}
        if out.is_file():
            payload = json.loads(out.read_text())
        payload["runs"].extend(records)
        out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"appended {len(records)} runs to {out} ({len(payload['runs'])} total)")
    return 0 if all(rec["failed"] == 0 for rec in records) else 1


# -- reference counts ---------------------------------------------------------


def record_expected(n_ops: int) -> None:
    """Write ``expected.json``: DFS-reference totals at the default seed."""
    from workloads import DEFAULT_SEED, WORKLOADS, ServeZipf

    entries = {}
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED)
        if cls is ServeZipf:
            entries[name] = {"pool": wl.reference_pool_counts()}
        else:
            entries[name] = {"ops": [int(wl.reference(wl.batch(k)).sum()) for k in range(n_ops)]}
        print(f"{name}: {entries[name]}", flush=True)
    body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(e)}" for name, e in entries.items())
    (HERE / "expected.json").write_text(
        f'{{\n "seed": {DEFAULT_SEED},\n "join_backend": "dfs",\n "workloads": {{\n{body}\n }}\n}}\n'
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1, help="all-workloads mode only")
    parser.add_argument("--out", type=Path, default=None, help="all-workloads mode only")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-expected", type=int, default=0, metavar="N_OPS",
        help="rewrite expected.json with N_OPS DFS-reference ops per workload",
    )
    args = parser.parse_args(argv)
    _import_repro()
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.record_expected:
        record_expected(args.record_expected)
        return 0
    if args.workload == "all":
        return run_all(seed, args.seconds, args.repeats, args.out)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    record = measure(args.workload, seed, args.seconds, bool(args.trace))
    if args.record:
        print(json.dumps(record))
    else:
        print_report(record)
        print(json.dumps(result_line(record)))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
