"""Pipeline profiles: one run distilled into the metrics schema.

A :class:`Profile` condenses one engine run into the ``repro.metrics/1``
payload plus the derived tables the human report shows — the
filter/map/join wall-clock split, the top-k kernels by simulated bytes
(from :mod:`repro.device.counters`), and per-kernel roofline placement
(bound + fraction-of-roof, paper Fig. 9).  The same payload feeds
``repro profile --json``, ``BENCH_obs.json`` from the benchmark driver,
and :class:`ProfileBaseline` regression comparison.

Metric naming convention (dotted, lowercase):

* ``engine.matches``, ``engine.stage_count.<stage>`` — counters.
* ``kernel.<name>.{instructions,bytes_hbm,bytes_l2,bytes_l1,work_items}``
  — simulated work counters per kernel launch.
* ``join.{candidate_visits,edge_checks,stack_pushes}`` — join stats.
* ``join.backend_pairs.<backend>``, ``join.backend_visits.<backend>`` —
  per-join-backend dispatch split (``dfs`` / ``tabular`` / ``fused``;
  see :mod:`repro.accel`).
* ``join.fused.tables`` — fused frontier tables launched;
  ``join.fused.pairs_per_table`` — histogram of how many pairs each
  table carried; ``join.fused.early_exit_depth`` — histogram of the
  frontier depth at which Find First retired each matched pair.
* ``engine.stage_seconds.<stage>`` — wall-clock gauges (noisy; compared
  with a generous tolerance).
* ``model.kernel_seconds.<kernel>``, ``model.total_seconds`` — analytic
  device-model times (deterministic).
* ``roofline.{intensity,roof_fraction}.<kernel>`` — roofline placement.
* ``join.pair_{matches,visits}`` — histograms over GMCR pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.device.counters import counters_from_result
from repro.device.roofline import build_roofline
from repro.device.spec import DeviceSpec, device_by_name
from repro.obs.export import load_metrics, metrics_payload
from repro.obs.metrics import MetricsRegistry

#: Default device for profile modeling (the paper's primary GPU).
DEFAULT_DEVICE = "nvidia-v100s"

#: Stages whose wall-clock times make up the filter/map/join split.
PIPELINE_STAGES = ("initialize_candidates", "filter", "mapping", "join")

#: Minimum absolute growth (seconds) before a wall-clock gauge counts as a
#: regression — relative tolerances are meaningless at microsecond scale.
WALL_CLOCK_FLOOR_SECONDS = 0.005


@dataclass
class Profile:
    """One run's observability snapshot (metrics + derived tables)."""

    metrics: MetricsRegistry
    context: dict[str, Any] = field(default_factory=dict)
    stages: list[dict[str, Any]] = field(default_factory=list)
    kernels: list[dict[str, Any]] = field(default_factory=list)

    def payload(self) -> dict[str, Any]:
        """The ``repro.metrics/1`` JSON payload of this profile."""
        return metrics_payload(self.metrics, self.context)

    def top_kernels(self, k: int = 5) -> list[dict[str, Any]]:
        """The ``k`` kernels with the most simulated traffic."""
        return sorted(self.kernels, key=lambda r: -r["bytes_total"])[:k]


def build_profile(
    result,
    query,
    data,
    device: DeviceSpec | str = DEFAULT_DEVICE,
    context: dict[str, Any] | None = None,
    metrics: MetricsRegistry | None = None,
) -> Profile:
    """Distill a finished run into a :class:`Profile`.

    Parameters
    ----------
    result:
        :class:`~repro.core.results.MatchResult` of the run.
    query / data:
        The CSR-GO batches of the run (counter extraction needs sizes).
    device:
        Device spec (or catalog name) for the analytic model/roofline.
    context:
        Extra context recorded into the payload (label, seed, workload).
    metrics:
        Registry to extend (e.g. the run's live registry with runtime
        counters already in it); a fresh one by default.
    """
    from repro.perf.model import PerformanceModel

    if isinstance(device, str):
        device = device_by_name(device)
    m = metrics if metrics is not None else MetricsRegistry()

    # -- engine-level ----------------------------------------------------------
    m.count("engine.matches", result.total_matches)
    m.count("engine.filter_iterations", len(result.filter_result.iterations))
    m.count("gmcr.pairs", result.gmcr.n_pairs)
    stage_counts = getattr(result, "stage_counts", {}) or {}
    stages: list[dict[str, Any]] = []
    for name in PIPELINE_STAGES:
        seconds = result.timings.get(name, 0.0)
        count = stage_counts.get(name, 1 if name in result.timings else 0)
        if name not in result.timings:
            continue
        m.gauge(f"engine.stage_seconds.{name}", seconds)
        m.count(f"engine.stage_count.{name}", count)
        stages.append({"stage": name, "seconds": seconds, "count": count})
    m.gauge("engine.total_seconds", result.total_seconds)
    m.gauge("memory.total_bytes", float(result.memory.total))

    # -- join work -------------------------------------------------------------
    js = result.join_result.stats
    m.count("join.candidate_visits", js.candidate_visits)
    m.count("join.edge_checks", js.edge_checks)
    m.count("join.stack_pushes", js.stack_pushes)
    if result.join_result.pair_matches is not None:
        m.histogram("join.pair_matches").observe_array(
            result.join_result.pair_matches
        )
    if result.join_result.pair_visits is not None:
        m.histogram("join.pair_visits").observe_array(result.join_result.pair_visits)
    for backend, pairs in sorted(
        (getattr(result.join_result, "backend_pairs", None) or {}).items()
    ):
        m.count(f"join.backend_pairs.{backend}", pairs)
    for backend, visits in sorted(
        (getattr(result.join_result, "backend_visits", None) or {}).items()
    ):
        m.count(f"join.backend_visits.{backend}", visits)
    fused_tables = getattr(result.join_result, "fused_tables", 0)
    if fused_tables:
        m.count("join.fused.tables", fused_tables)
        m.histogram("join.fused.pairs_per_table").observe_array(
            np.asarray(result.join_result.fused_pairs_per_table)
        )
    early_exits = getattr(result.join_result, "fused_early_exit_depths", None)
    if early_exits:
        m.histogram("join.fused.early_exit_depth").observe_array(
            np.asarray(early_exits)
        )

    # -- device-model kernels --------------------------------------------------
    counters = counters_from_result(result, query, data)
    model = PerformanceModel(device)
    times = model.estimate(counters)
    roof = build_roofline(counters, times.per_kernel, device)
    roof_rows = {row["kernel"]: row for row in roof.table()}
    kernels: list[dict[str, Any]] = []
    for k in counters.all_kernels():
        m.count(f"kernel.{k.name}.instructions", k.instructions)
        m.count(f"kernel.{k.name}.bytes_hbm", k.bytes_hbm)
        m.count(f"kernel.{k.name}.bytes_l2", k.bytes_l2)
        m.count(f"kernel.{k.name}.bytes_l1", k.bytes_l1)
        m.count(f"kernel.{k.name}.work_items", k.work_items)
        seconds = times.per_kernel.get(k.name, 0.0)
        m.gauge(f"model.kernel_seconds.{k.name}", seconds)
        row = {
            "kernel": k.name,
            "instructions": k.instructions,
            "bytes_total": k.total_bytes,
            "bytes_hbm": k.bytes_hbm,
            "model_seconds": seconds,
            "bound": "-",
            "roof_fraction": 0.0,
            "intensity": k.instruction_intensity(),
        }
        if k.name in roof_rows:
            r = roof_rows[k.name]
            row["bound"] = r["bound"]
            row["roof_fraction"] = r["roof_fraction"]
            m.gauge(f"roofline.intensity.{k.name}", r["intensity_instr_per_byte"])
            m.gauge(f"roofline.roof_fraction.{k.name}", r["roof_fraction"])
        kernels.append(row)
    m.gauge("model.total_seconds", times.total_seconds)

    fr = result.filter_result
    ctx = {
        "device": device.name,
        "mode": result.mode,
        "filter_cap": fr.cap,
        "filter_depth": fr.depth,
        "filter_stop": fr.stop_reason,
    }
    ctx.update(context or {})
    return Profile(metrics=m, context=ctx, stages=stages, kernels=kernels)


def smoke_profile(
    n_queries: int = 40,
    n_data_graphs: int = 200,
    seed: int = 0,
    mode: str = "find-all",
    device: str = DEFAULT_DEVICE,
    iterations: int = 6,
    metrics: MetricsRegistry | None = None,
) -> Profile:
    """Profile the deterministic synthetic smoke workload.

    The workload matches ``repro selftest`` (seeded synthetic benchmark)
    so all work counters are reproducible run-to-run; only the
    ``engine.stage_seconds.*`` gauges carry wall-clock noise.
    """
    from repro.chem.datasets import build_benchmark
    from repro.core.config import SigmoConfig
    from repro.core.engine import SigmoEngine

    ds = build_benchmark(
        scale=1.0, n_queries=n_queries, n_data_graphs=n_data_graphs, seed=seed
    )
    config = SigmoConfig(refinement_iterations=iterations)
    engine = SigmoEngine(ds.queries, ds.data, config)
    result = engine.run(mode=mode)
    context = {
        "workload": "smoke",
        "seed": seed,
        "n_queries": n_queries,
        "n_data_graphs": n_data_graphs,
        "iterations": iterations,
    }
    return build_profile(
        result, engine.query, engine.data, device=device, context=context,
        metrics=metrics,
    )


# -- human report ---------------------------------------------------------------


def format_profile(profile: Profile, top_k: int = 5) -> str:
    """Render the human ``repro profile`` report."""
    ctx = profile.context
    lines: list[str] = []
    matches = profile.metrics.counters.get("engine.matches", 0)
    head = f"profile: {int(matches)} matches"
    if "n_data_graphs" in ctx:
        head += f", {ctx.get('n_queries')} queries x {ctx['n_data_graphs']} molecules"
    head += f" ({ctx.get('mode', '?')}, device {ctx.get('device', '?')})"
    lines.append(head)

    total = sum(s["seconds"] for s in profile.stages) or 1.0
    lines.append("")
    lines.append("stage breakdown (wall clock):")
    lines.append(f"  {'stage':<22} {'seconds':>10} {'count':>6} {'share':>7}")
    for s in profile.stages:
        lines.append(
            f"  {s['stage']:<22} {s['seconds']:>10.4f} {s['count']:>6d} "
            f"{s['seconds'] / total:>6.1%}"
        )
    lines.append(f"  {'total':<22} {total:>10.4f}")
    if "filter_depth" in ctx:
        lines.append(
            f"filter: depth {ctx['filter_depth']} of cap {ctx['filter_cap']} "
            f"({ctx['filter_stop']})"
        )

    counters = profile.metrics.counters
    backends = sorted(
        name.rsplit(".", 1)[1]
        for name in counters
        if name.startswith("join.backend_pairs.")
    )
    if backends:
        split = ", ".join(
            f"{b}: {int(counters[f'join.backend_pairs.{b}'])} pairs / "
            f"{int(counters.get(f'join.backend_visits.{b}', 0))} visits"
            for b in backends
        )
        lines.append("")
        lines.append(f"join backend split: {split}")

    fused_tables = counters.get("join.fused.tables")
    if fused_tables:
        hist = profile.metrics.histograms.get("join.fused.pairs_per_table")
        pairs = int(hist.sum) if hist is not None else 0
        mean = pairs / fused_tables
        line = (
            f"fused join: {int(fused_tables)} table(s), {pairs} pairs "
            f"({mean:.1f} pairs/table)"
        )
        exits = profile.metrics.histograms.get("join.fused.early_exit_depth")
        if exits is not None and exits.count:
            line += (
                f", {int(exits.count)} early exits "
                f"(mean depth {exits.sum / exits.count:.1f})"
            )
        lines.append(line)

    lines.append("")
    lines.append(f"top {top_k} kernels by simulated bytes:")
    lines.append(
        f"  {'kernel':<12} {'bytes':>12} {'instr':>12} {'model_s':>10} "
        f"{'bound':>8} {'roof':>6}"
    )
    for row in profile.top_kernels(top_k):
        lines.append(
            f"  {row['kernel']:<12} {row['bytes_total']:>12.3e} "
            f"{row['instructions']:>12.3e} {row['model_seconds']:>10.2e} "
            f"{row['bound']:>8} {row['roof_fraction']:>6.1%}"
        )
    return "\n".join(lines)


# -- baseline comparison --------------------------------------------------------


@dataclass(frozen=True)
class Regression:
    """One flagged difference against a profile baseline."""

    metric: str
    baseline: float
    current: float
    kind: str  # "work" | "time" | "matches" | "missing"

    def describe(self) -> str:
        """One-line human description."""
        if self.kind == "missing":
            return f"{self.metric}: present in baseline, missing now"
        ratio = self.current / self.baseline if self.baseline else float("inf")
        return (
            f"{self.metric}: {self.baseline:.6g} -> {self.current:.6g} "
            f"({ratio:.2f}x, {self.kind})"
        )


class ProfileBaseline:
    """Compare a profile payload against a committed baseline payload.

    Deterministic *work* counters (simulated instructions/bytes, join
    visits) regress when they grow beyond ``tolerance``; wall-clock
    ``*seconds*`` gauges use the much looser ``time_tolerance`` (CI
    machines are noisy) and additionally require the absolute growth to
    exceed :data:`WALL_CLOCK_FLOOR_SECONDS` — microsecond-scale stages
    can double from scheduler jitter alone; ``engine.matches`` must
    agree exactly in both directions (a correctness signal, not a
    performance one).
    """

    def __init__(self, payload: dict[str, Any]) -> None:
        self.payload = payload
        self.counters: dict[str, float] = dict(payload.get("counters", {}))
        self.gauges: dict[str, float] = dict(payload.get("gauges", {}))

    @classmethod
    def from_file(cls, path: str | Path) -> "ProfileBaseline":
        """Load (and schema-validate) a baseline JSON file."""
        return cls(load_metrics(path))

    def compare(
        self,
        current: dict[str, Any],
        tolerance: float = 0.1,
        time_tolerance: float = 1.0,
    ) -> list[Regression]:
        """Regressions of ``current`` (a metrics payload) vs. this baseline."""
        out: list[Regression] = []
        cur_counters: dict[str, float] = current.get("counters", {})
        for name, base in sorted(self.counters.items()):
            if name not in cur_counters:
                out.append(Regression(name, base, 0.0, "missing"))
                continue
            cur = cur_counters[name]
            if name == "engine.matches":
                if cur != base:
                    out.append(Regression(name, base, cur, "matches"))
            elif cur > base * (1.0 + tolerance):
                out.append(Regression(name, base, cur, "work"))
        cur_gauges: dict[str, float] = current.get("gauges", {})
        for name, base in sorted(self.gauges.items()):
            if "seconds" not in name:
                continue  # non-time gauges (occupancy, roofline) informational
            if name not in cur_gauges:
                out.append(Regression(name, base, 0.0, "missing"))
                continue
            cur = cur_gauges[name]
            if _is_wall_clock(name):
                if (
                    cur > base * (1.0 + time_tolerance)
                    and cur - base > WALL_CLOCK_FLOOR_SECONDS
                ):
                    out.append(Regression(name, base, cur, "time"))
            elif cur > base * (1.0 + tolerance):
                out.append(Regression(name, base, cur, "time"))
        return out


def _is_wall_clock(name: str) -> bool:
    """Whether a gauge carries wall-clock noise (vs. the analytic model)."""
    return not name.startswith("model.")


def format_regressions(regressions: list[Regression]) -> str:
    """Render a regression list for the CLI (empty string when clean)."""
    if not regressions:
        return ""
    lines = [f"{len(regressions)} regression(s) against baseline:"]
    lines.extend(f"  {r.describe()}" for r in regressions)
    return "\n".join(lines)
