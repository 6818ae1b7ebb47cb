"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``match``
    Run batched substructure matching between a query set and a molecule
    file (both ``.smi``; queries may alternatively be inline SMARTS).
``generate``
    Write a synthetic ZINC-like molecule library to a ``.smi`` file.
``info``
    Structural statistics of a ``.smi`` file (size, labels, degree).
``selftest``
    Quick end-to-end pipeline run on synthetic data with timings.
``analyze``
    Correctness tooling: kernel lint against the committed baseline,
    contract-checked pipeline run, and shadow-access race traces of the
    refine and join kernels (see ``docs/analysis.md``).
``resilient-run``
    Fault-tolerant matching through :mod:`repro.runtime`: memory-budget
    degradation, join watchdog, checkpoint/resume, and optional seeded
    fault injection (see ``docs/robustness.md``).
``profile``
    Observability report of the seeded smoke workload: stage breakdown,
    top-k simulated kernels, roofline placement; exports the
    ``repro.metrics/1`` payload, a Perfetto-loadable Chrome trace, and
    compares against a committed baseline (see ``docs/observability.md``).
``serve-sim``
    Matching-service simulation: closed-loop Zipf load (with an optional
    ``--dashboard`` health rendering) or the ``--chaos`` fault drills;
    ``--dump-dir`` writes the collected post-mortem bundles
    (see ``docs/serving.md``).
``trace-request``
    Reconstruct one request's end-to-end story — admission, coalesced
    batches, retries, resume hops — from a flight-recorder post-mortem
    bundle (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _add_match(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("match", help="batched substructure matching")
    p.add_argument("--data", required=True, help=".smi file of molecules")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--queries", help=".smi file of query patterns")
    group.add_argument(
        "--smarts", nargs="+", help="inline SMARTS-lite patterns (wildcards ok)"
    )
    p.add_argument(
        "--mode", choices=("find-all", "find-first"), default="find-all"
    )
    p.add_argument("--iterations", type=int, default=6,
                   help="refinement iterations; a cap for the default filter (paper: 6)")
    p.add_argument("--chunk-size", type=int, default=0,
                   help="process molecules in chunks of this size (0 = off)")
    p.add_argument("--embeddings", action="store_true",
                   help="include embeddings in the JSON output")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write results as JSON")


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="synthesize a molecule library")
    p.add_argument("--out", required=True, help="output .smi path")
    p.add_argument("-n", "--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mean-atoms", type=float, default=21.0)


def _add_info(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("info", help="statistics of a .smi file")
    p.add_argument("file", help=".smi path")


def _add_selftest(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("selftest", help="end-to-end pipeline self-check")
    p.add_argument("--molecules", type=int, default=200)
    p.add_argument("--queries", type=int, default=40)


def _add_analyze(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("analyze", help="kernel lint + contract + race checks")
    p.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the kernel packages)",
    )
    p.add_argument("--baseline", metavar="FILE",
                   help="baseline file (default: the committed one)")
    p.add_argument("--update-baseline", action="store_true",
                   help="accept current findings as the new baseline "
                        "(always includes the dataflow analyses; stale "
                        "entries are pruned and reported)")
    p.add_argument("--format", choices=("text", "json", "github"),
                   default="text",
                   help="github emits ::error/::warning workflow commands "
                        "for new findings")
    p.add_argument("--no-dynamic", action="store_true",
                   help="skip the contract-checked run and race traces")
    p.add_argument("--dataflow", action="store_true",
                   help="run the abstract-interpretation dataflow analyses "
                        "(SGL011-SGL014) and, with dynamic checks enabled, "
                        "the static-vs-dynamic effect coverage gate")
    p.add_argument("--write-surface", nargs="?", metavar="FILE",
                   const="docs/backend_surface.md", default=None,
                   help="write the kernel backend-surface report "
                        "(implies --dataflow; default: %(const)s)")
    p.add_argument("--check-surface", nargs="?", metavar="FILE",
                   const="docs/backend_surface.md", default=None,
                   help="fail if the committed backend-surface report is "
                        "stale or any kernel-reachable call bypasses the "
                        "repro.xp contract (implies --dataflow; "
                        "default: %(const)s)")


def _add_resilient_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "resilient-run", help="fault-tolerant matching (OOM/crash/checkpoint)"
    )
    p.add_argument("--data", help=".smi file of molecules")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--queries", help=".smi file of query patterns")
    group.add_argument(
        "--smarts", nargs="+", help="inline SMARTS-lite patterns (wildcards ok)"
    )
    p.add_argument(
        "--mode", choices=("find-all", "find-first"), default="find-all"
    )
    p.add_argument("--iterations", type=int, default=6,
                   help="refinement iterations; a cap for the default filter (paper: 6)")
    p.add_argument("--chunk-size", type=int, default=0,
                   help="chunk size (0 = derive from the memory budget)")
    p.add_argument("--memory-budget-mb", type=float, default=0.0,
                   help="device memory budget; OOMing chunks are split")
    p.add_argument("--max-attempts", type=int, default=5,
                   help="per-chunk retry bound before the run goes partial")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="persist completed chunks here and resume from them")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for injected faults (demo/testing)")
    p.add_argument("--fault-oom-rate", type=float, default=0.0,
                   help="injected OOM probability per chunk attempt")
    p.add_argument("--fault-crash-rate", type=float, default=0.0,
                   help="injected crash probability per chunk attempt")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write results as JSON")
    p.add_argument("--smoke", action="store_true",
                   help="self-contained fault-injection check: a seeded "
                        "faulted run, its pooled twin and a checkpoint "
                        "restart of a partial run must equal the fault-free "
                        "run (exit 1 on mismatch); ignores --data/--queries")


def _add_profile(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "profile",
        help="observability report: stage split, top-k kernels, baselines",
    )
    p.add_argument("--n-queries", type=int, default=40,
                   help="smoke workload query count")
    p.add_argument("--n-molecules", type=int, default=200,
                   help="smoke workload molecule count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mode", choices=("find-all", "find-first"), default="find-all"
    )
    p.add_argument("--iterations", type=int, default=6,
                   help="refinement iterations; a cap for the default filter (paper: 6)")
    p.add_argument("--device", default="nvidia-v100s",
                   help="device spec for the analytic model/roofline")
    p.add_argument("--top-k", type=int, default=5,
                   help="kernels shown in the by-bytes table")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the repro.metrics/1 payload")
    p.add_argument("--trace", metavar="FILE",
                   help="write a Chrome trace-event JSON (load in Perfetto)")
    p.add_argument("--against", metavar="BASELINE",
                   help="compare against a baseline metrics JSON "
                        "(e.g. BENCH_obs.json); exit 1 on regression")
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="relative growth allowed for work counters")
    p.add_argument("--time-tolerance", type=float, default=1.0,
                   help="relative growth allowed for wall-clock gauges")


def _add_serve_sim(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-sim",
        help="matching-service simulation: closed-loop load and chaos drills",
    )
    p.add_argument("--chaos", action="store_true",
                   help="run the seeded chaos scenarios (crash, breaker, "
                        "straggler, OOM, poison, overload); exit 1 on any "
                        "contract violation")
    p.add_argument("--scenarios", nargs="+", metavar="NAME",
                   help="chaos scenario subset (default: all registered)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload/fault seed (same seed ⇒ same outcome)")
    p.add_argument("--clients", type=int, default=4,
                   help="closed-loop clients for the load simulation")
    p.add_argument("--requests", type=int, default=8,
                   help="requests per client for the load simulation")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="Zipf exponent for batch popularity")
    p.add_argument("--dashboard", action="store_true",
                   help="render the service-health dashboard (lanes, last "
                        "SLO window, active alerts, recorder occupancy) "
                        "after the run")
    p.add_argument("--dump-dir", metavar="DIR",
                   help="write every collected post-mortem bundle into DIR "
                        "as JSON")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the reports/load summary as JSON")


def _add_trace_request(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "trace-request",
        help="reconstruct one request's end-to-end story (admission, "
             "batches, retries, resume hops) from a post-mortem bundle",
    )
    p.add_argument("request_id",
                   help="request or chain id to trace (e.g. req-000003)")
    p.add_argument("--bundle", metavar="FILE",
                   help="post-mortem bundle JSON to read; default: run "
                        "--scenario live and trace inside its final bundle")
    p.add_argument("--scenario", default="straggler",
                   help="chaos scenario for live mode (default: straggler, "
                        "which produces resume chains)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario seed for live mode")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the matched events as JSON")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SIGMo batched molecular substructure matching"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_match(sub)
    _add_generate(sub)
    _add_info(sub)
    _add_selftest(sub)
    _add_analyze(sub)
    _add_resilient_run(sub)
    _add_profile(sub)
    _add_serve_sim(sub)
    _add_trace_request(sub)
    return parser


def cmd_match(args) -> int:
    """Handle ``repro match``: batched matching with optional chunking."""
    from repro.core.config import SigmoConfig
    from repro.core.engine import SigmoEngine
    from repro.io import read_smi
    from repro.runtime import run_resilient

    data_mols = read_smi(args.data)
    data_names = [m.name or f"mol-{i}" for i, m in enumerate(data_mols)]
    data_graphs = [m.graph() for m in data_mols]

    if args.smarts:
        from repro.chem.smarts import pattern_from_smarts, wildcard_config

        query_graphs = [pattern_from_smarts(s) for s in args.smarts]
        query_names = list(args.smarts)
        config = wildcard_config(
            refinement_iterations=args.iterations,
            record_embeddings=args.embeddings,
        )
    else:
        query_mols = read_smi(args.queries)
        query_names = [m.name or f"query-{i}" for i, m in enumerate(query_mols)]
        query_graphs = [m.graph() for m in query_mols]
        config = SigmoConfig(
            refinement_iterations=args.iterations,
            record_embeddings=args.embeddings,
        )

    start = time.perf_counter()
    if args.chunk_size:
        chunked = run_resilient(
            query_graphs, data_graphs, args.chunk_size, mode=args.mode, config=config
        )
        total = chunked.total_matches
        pairs = chunked.matched_pairs
        embeddings = chunked.embeddings
        timings = chunked.timings
    else:
        result = SigmoEngine(query_graphs, data_graphs, config).run(mode=args.mode)
        total = result.total_matches
        pairs = result.matched_pairs()
        embeddings = result.embeddings
        timings = result.timings
    elapsed = time.perf_counter() - start

    print(
        f"{total} matches across {len(data_graphs)} molecules x "
        f"{len(query_graphs)} queries in {elapsed:.3f}s ({args.mode})"
    )
    for stage, seconds in timings.items():
        print(f"  {stage}: {seconds * 1e3:.1f} ms")
    shown = 0
    for d, q in pairs:
        if shown >= 20:
            print(f"  ... and {len(pairs) - shown} more matched pairs")
            break
        print(f"  {data_names[d]} contains {query_names[q]}")
        shown += 1

    if args.json_out:
        payload = {
            "mode": args.mode,
            "total_matches": total,
            "matched_pairs": [
                {"molecule": data_names[d], "query": query_names[q]}
                for d, q in pairs
            ],
            "timings_s": timings,
        }
        if args.embeddings:
            payload["embeddings"] = [
                {
                    "molecule": data_names[rec.data_graph],
                    "query": query_names[rec.query_graph],
                    "atoms": rec.mapping.tolist(),
                }
                for rec in embeddings
            ]
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json_out}")
    return 0


def cmd_generate(args) -> int:
    """Handle ``repro generate``: write a synthetic .smi library."""
    from repro.chem.generator import MoleculeGenerator
    from repro.io import write_smi

    gen = MoleculeGenerator(seed=args.seed, mean_heavy_atoms=args.mean_atoms)
    mols = gen.generate_batch(args.count)
    names = [f"SYN-{args.seed}-{i:06d}" for i in range(len(mols))]
    write_smi(args.out, mols, names)
    print(f"wrote {len(mols)} molecules to {args.out}")
    return 0


def cmd_info(args) -> int:
    """Handle ``repro info``: print structural statistics of a .smi file."""
    from repro.chem.generator import dataset_statistics
    from repro.io import read_smi

    mols = read_smi(args.file)
    stats = dataset_statistics(mols)
    print(f"{args.file}: {len(mols)} molecules")
    for key, value in stats.items():
        print(f"  {key}: {value:.3f}")
    return 0


def cmd_selftest(args) -> int:
    """Handle ``repro selftest``: quick synthetic end-to-end run."""
    from repro.chem.datasets import build_benchmark
    from repro.core.engine import SigmoEngine

    ds = build_benchmark(
        scale=1.0, n_queries=args.queries, n_data_graphs=args.molecules, seed=0
    )
    engine = SigmoEngine(ds.queries, ds.data)
    result = engine.run()
    print(ds.summary())
    print(result.summary())
    first = engine.run(mode="find-first")
    print(first.summary())
    print("selftest ok")
    return 0


def cmd_analyze(args) -> int:
    """Handle ``repro analyze``: lint + baseline diff + dynamic checks."""
    from pathlib import Path

    from repro.analysis import contracts, linter
    from repro.analysis.findings import format_findings

    paths = [Path(p) for p in args.paths] if args.paths else None
    dataflow = (
        args.dataflow
        or args.write_surface
        or args.check_surface
        or args.update_baseline
    )
    try:
        findings = linter.lint_paths(paths, dataflow=dataflow)
    except OSError as exc:
        print(f"analyze: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(
            f"analyze: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except Exception as exc:  # noqa: BLE001 -- exit 2 = analyzer crashed,
        # distinct from exit 1 = new findings (CI gates on the difference)
        print(f"analyze: analyzer crashed: {exc!r}", file=sys.stderr)
        return 2

    if args.write_surface:
        from repro.analysis.dataflow import render_report, run_dataflow

        files = linter.iter_target_files()
        report = run_dataflow(files, linter.repo_src_root())
        out = Path(args.write_surface)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_report(report.surface))
        print(
            f"surface report written: {out} "
            f"({len(report.surface)} reachable call sites)"
        )
        if args.write_surface and not (
            args.dataflow or args.update_baseline or args.check_surface
        ):
            return 0

    if args.check_surface:
        from repro.analysis.dataflow import render_report, run_dataflow

        files = linter.iter_target_files()
        report = run_dataflow(files, linter.repo_src_root())
        expected = render_report(report.surface)
        committed = Path(args.check_surface)
        stale_surface = (
            not committed.is_file() or committed.read_text() != expected
        )
        n_unportable = sum(1 for c in report.surface if not c.portable)
        if stale_surface or n_unportable:
            if stale_surface:
                print(
                    f"check-surface: {committed} is stale; regenerate with "
                    "`python -m repro analyze --write-surface`",
                    file=sys.stderr,
                )
            if n_unportable:
                print(
                    f"check-surface: {n_unportable} kernel-reachable call "
                    "site(s) bypass the repro.xp contract (SGL014)",
                    file=sys.stderr,
                )
            return 1
        print(
            f"check-surface: ok ({len(report.surface)} reachable call "
            "sites, 0 unportable)"
        )
        if not (args.dataflow or args.update_baseline):
            return 0

    if args.update_baseline:
        target = Path(args.baseline) if args.baseline else None
        old = linter.load_baseline(target)
        stale = linter.stale_entries(findings, old)
        try:
            written = linter.save_baseline(findings, target)
        except ValueError as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 1
        print(f"baseline updated: {written} ({len(findings)} accepted findings)")
        if stale:
            print(f"pruned {sum(n for _, n in stale)} stale baseline entr" +
                  ("y:" if sum(n for _, n in stale) == 1 else "ies:"))
            for (rule, file, text), n in stale:
                suffix = f" (x{n})" if n > 1 else ""
                print(f"  {rule} {file}: {text}{suffix}")
        return 0

    baseline_path = Path(args.baseline) if args.baseline else None
    baseline = linter.load_baseline(baseline_path)
    fresh = linter.new_findings(findings, baseline)

    contract_error: str | None = None
    race_report: dict = {}
    coverage = None
    if not args.no_dynamic:
        from repro.analysis.races import run_race_checks

        try:
            with contracts.forced(True):
                shadows = run_race_checks()
        except contracts.ContractViolation as exc:
            contract_error = str(exc)
            shadows = {}
        race_report = {name: sh.summary() for name, sh in shadows.items()}
        if dataflow and shadows:
            from repro.analysis.dataflow import effect_coverage

            try:
                coverage = effect_coverage(shadows)
            except Exception as exc:  # noqa: BLE001 -- crash, not finding
                print(
                    f"analyze: effect coverage crashed: {exc!r}",
                    file=sys.stderr,
                )
                return 2
        if contract_error is None:
            from repro.chem.datasets import build_benchmark
            from repro.core.engine import SigmoEngine

            ds = build_benchmark(n_queries=4, n_data_graphs=10, seed=0)
            try:
                with contracts.forced(True):
                    SigmoEngine(ds.queries, ds.data).run()
            except contracts.ContractViolation as exc:
                contract_error = str(exc)
    n_races = sum(len(r["conflicts"]) for r in race_report.values())
    coverage_ok = coverage.ok if coverage is not None else True
    ok = (
        not fresh and not n_races and contract_error is None and coverage_ok
    )

    if args.format == "json":
        payload = {
            "findings": [f.to_dict() for f in findings],
            "new_findings": [f.to_dict() for f in fresh],
            "baseline_entries": sum(baseline.values()),
            "races": race_report,
            "contract_error": contract_error,
            "ok": ok,
        }
        if coverage is not None:
            payload["effect_coverage"] = coverage.to_dict()
        print(json.dumps(payload, indent=2))
    elif args.format == "github":
        # GitHub Actions workflow commands: annotate new findings in the PR.
        for f in fresh:
            level = "error" if f.severity.value == "error" else "warning"
            message = f"{f.rule} ({f.name}): {f.message}"
            loc = f.file if f.file.startswith("/") else f"src/repro/{f.file}"
            print(
                f"::{level} file={loc},line={f.line},"
                f"title={f.rule}::{message}"
            )
        if coverage is not None and not coverage.ok:
            print(
                "::error title=effect-coverage::static effect sets do not "
                "cover the dynamic shadow-memory traces (run `python -m "
                "repro analyze --dataflow` locally for the report)"
            )
        print(
            f"lint: {len(findings)} finding(s), {len(fresh)} new "
            f"(baseline: {sum(baseline.values())})"
        )
        print("analyze: ok" if ok else "analyze: FAILED")
    else:
        if fresh:
            print(format_findings(fresh))
        print(
            f"lint: {len(findings)} finding(s), {len(fresh)} new "
            f"(baseline: {sum(baseline.values())})"
        )
        for name, report in race_report.items():
            print(
                f"races[{name}]: {report['work_items']} work-items, "
                f"{report['reads'] + report['writes'] + report['atomics']} "
                f"accesses, {len(report['conflicts'])} conflict(s)"
            )
            for line in report["conflicts"]:
                print(f"  {line}")
        if coverage is not None:
            print(coverage.format())
        if not args.no_dynamic:
            print(
                "contracts: violation\n" + contract_error
                if contract_error
                else "contracts: ok"
            )
        print("analyze: ok" if ok else "analyze: FAILED")
    return 0 if ok else 1


def cmd_resilient_run(args) -> int:
    """Handle ``repro resilient-run``: fault-tolerant matching."""
    from repro.core.config import SigmoConfig
    from repro.io import read_smi
    from repro.runtime import COMPLETE, FaultPlan, RetryPolicy, run_resilient

    if args.smoke:
        return _resilient_smoke(args)
    if not args.data or not (args.queries or args.smarts):
        print(
            "resilient-run: --data and one of --queries/--smarts are "
            "required (or use --smoke)",
            file=sys.stderr,
        )
        return 2

    data_mols = read_smi(args.data)
    data_names = [m.name or f"mol-{i}" for i, m in enumerate(data_mols)]
    data_graphs = [m.graph() for m in data_mols]
    if args.smarts:
        from repro.chem.smarts import pattern_from_smarts, wildcard_config

        query_graphs = [pattern_from_smarts(s) for s in args.smarts]
        query_names = list(args.smarts)
        config = wildcard_config(refinement_iterations=args.iterations)
    else:
        query_mols = read_smi(args.queries)
        query_names = [m.name or f"query-{i}" for i, m in enumerate(query_mols)]
        query_graphs = [m.graph() for m in query_mols]
        config = SigmoConfig(refinement_iterations=args.iterations)

    fault_plan = None
    if args.fault_oom_rate or args.fault_crash_rate:
        fault_plan = FaultPlan(
            seed=args.fault_seed,
            oom_rate=args.fault_oom_rate,
            crash_rate=args.fault_crash_rate,
        )

    start = time.perf_counter()
    result = run_resilient(
        query_graphs,
        data_graphs,
        chunk_size=args.chunk_size or None,
        mode=args.mode,
        config=config,
        memory_budget_bytes=(
            int(args.memory_budget_mb * 2**20) if args.memory_budget_mb else None
        ),
        retry=RetryPolicy(max_attempts=args.max_attempts),
        checkpoint=args.checkpoint_dir,
        fault_plan=fault_plan,
    )
    elapsed = time.perf_counter() - start

    print(
        f"{result.status}: {result.total_matches} matches across "
        f"{len(data_graphs)} molecules x {len(query_graphs)} queries "
        f"in {elapsed:.3f}s ({result.n_chunks} chunk(s), "
        f"{result.chunks_from_checkpoint} from checkpoint)"
    )
    print(f"  attempts: {result.report.summary()}")
    for record in result.chunk_records:
        if record.status != "ok" or record.attempts > 1:
            print(
                f"  chunk[{record.start}:{record.stop}]: {record.status} "
                f"after {record.attempts} attempt(s) {record.detail}".rstrip()
            )
    if args.json_out:
        payload = {
            "status": result.status,
            "mode": args.mode,
            "total_matches": result.total_matches,
            "n_chunks": result.n_chunks,
            "chunks_from_checkpoint": result.chunks_from_checkpoint,
            "matched_pairs": [
                {"molecule": data_names[d], "query": query_names[q]}
                for d, q in result.matched_pairs
            ],
            "timings_s": result.timings,
            "attempts": result.report.to_dict(),
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json_out}")
    return 0 if result.status == COMPLETE else 1


def _resilient_smoke(args) -> int:
    """Seeded fault-injection check: faulted runs must equal fault-free,
    the pooled faulted run must equal the serial one, and a faulted run
    that ends partial, restarted from its checkpoint, must equal the
    fault-free run."""
    import tempfile
    from dataclasses import replace

    from repro.chem.datasets import build_benchmark
    from repro.runtime import COMPLETE, FaultPlan, RetryPolicy, run_resilient

    ds = build_benchmark(n_queries=5, n_data_graphs=24, seed=0)
    baseline = run_resilient(ds.queries, ds.data, chunk_size=6)
    expected = sorted(baseline.matched_pairs)
    plan = FaultPlan(
        seed=args.fault_seed,
        oom_rate=args.fault_oom_rate or 0.5,
        crash_rate=args.fault_crash_rate or 0.5,
        fault_attempts=2,
    )
    retry = RetryPolicy(max_attempts=6)
    failures = []

    serial = run_resilient(
        ds.queries, ds.data, chunk_size=6, fault_plan=plan, retry=retry
    )
    if serial.status != COMPLETE or sorted(serial.matched_pairs) != expected:
        failures.append(
            f"resilient driver diverged: {serial.status}, "
            f"{serial.total_matches} != {baseline.total_matches}"
        )
    print(
        f"resilient: {serial.status}, {serial.total_matches} matches, "
        f"{serial.report.summary()}"
    )

    pooled = run_resilient(
        ds.queries, ds.data, chunk_size=6, fault_plan=plan, retry=retry,
        n_workers=2,
    )
    if (
        pooled.status != serial.status
        or pooled.matched_pairs != serial.matched_pairs
        or pooled.join_stats != serial.join_stats
    ):
        failures.append(
            f"pooled run diverged from serial: {pooled.status}, "
            f"{pooled.total_matches} vs {serial.total_matches} matches, "
            f"{pooled.join_stats} vs {serial.join_stats}"
        )
    print(
        f"pooled (2 workers): {pooled.status}, {pooled.total_matches} matches, "
        f"{pooled.report.summary()}"
    )

    # Every attempt of chunk [12:18] crashes, so the faulted run ends
    # partial; a fault-free restart runs only what its checkpoint lacks.
    doomed = replace(plan, crash_at=tuple((12, a) for a in range(retry.max_attempts)))
    with tempfile.TemporaryDirectory() as directory:
        stopped = run_resilient(
            ds.queries, ds.data, chunk_size=6, fault_plan=doomed, retry=retry,
            checkpoint=directory,
        )
        restarted = run_resilient(ds.queries, ds.data, chunk_size=6, checkpoint=directory)
    if (
        stopped.status == COMPLETE
        or restarted.status != COMPLETE
        or restarted.matched_pairs != baseline.matched_pairs
        or restarted.total_matches != baseline.total_matches
    ):
        failures.append(
            f"checkpoint restart diverged: {stopped.status} then "
            f"{restarted.status}, {restarted.total_matches} vs "
            f"{baseline.total_matches} matches, {len(restarted.matched_pairs)} "
            f"vs {len(baseline.matched_pairs)} pairs"
        )
    print(
        f"checkpoint restart: {stopped.status} then {restarted.status}, "
        f"{restarted.total_matches} matches, "
        f"{restarted.chunks_from_checkpoint} chunk(s) from checkpoint"
    )

    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    print("resilient smoke ok" if not failures else "resilient smoke FAILED")
    return 1 if failures else 0


def cmd_profile(args) -> int:
    """Handle ``repro profile``: trace + profile the smoke workload."""
    from repro.obs.export import validate_metrics, write_chrome_trace, write_metrics
    from repro.obs.metrics import MetricsRegistry, collecting
    from repro.obs.profile import (
        ProfileBaseline,
        format_profile,
        format_regressions,
        smoke_profile,
    )
    from repro.obs.trace import tracing

    registry = MetricsRegistry()
    with tracing() as tracer, collecting(registry):
        profile = smoke_profile(
            n_queries=args.n_queries,
            n_data_graphs=args.n_molecules,
            seed=args.seed,
            mode=args.mode,
            device=args.device,
            iterations=args.iterations,
            metrics=registry,
        )
    print(format_profile(profile, top_k=args.top_k))

    payload = profile.payload()
    problems = validate_metrics(payload)
    if problems:
        print(f"internal error: invalid metrics payload: {problems[0]}",
              file=sys.stderr)
        return 2
    if args.json_out:
        write_metrics(profile.metrics, args.json_out, context=profile.context)
        print(f"wrote {args.json_out}")
    if args.trace:
        write_chrome_trace(tracer, args.trace)
        print(
            f"wrote {args.trace} ({len(tracer.spans)} spans, "
            f"{len(tracer.lanes)} lane(s)); load it at ui.perfetto.dev"
        )
    if args.against:
        baseline = ProfileBaseline.from_file(args.against)
        regressions = baseline.compare(
            payload,
            tolerance=args.tolerance,
            time_tolerance=args.time_tolerance,
        )
        if regressions:
            print(format_regressions(regressions), file=sys.stderr)
            return 1
        print(f"no regressions against {args.against}")
    return 0


def _write_bundles(dump_dir: str, named_bundles: list) -> None:
    """Write ``(name, bundle)`` pairs into ``dump_dir`` as JSON files."""
    from pathlib import Path

    out = Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, bundle in named_bundles:
        path = out / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
        print(f"wrote {path}")


def cmd_serve_sim(args) -> int:
    """Handle ``repro serve-sim``: chaos drills or a closed-loop load sim."""
    import asyncio
    import json

    if args.chaos:
        from repro.serve.chaos import SCENARIOS, run_chaos_sync

        names = args.scenarios or sorted(SCENARIOS)
        try:
            reports = run_chaos_sync(names, seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failed = 0
        for report in reports:
            verdict = "ok" if report.ok else "VIOLATED"
            triggers = ",".join(b["trigger"] for b in report.bundles)
            print(
                f"{report.scenario:24s} {verdict:9s} "
                f"complete={report.count('complete'):3d} "
                f"partial={report.count('partial'):3d} "
                f"rejected={report.count('rejected'):3d} "
                f"bundles=[{triggers}]"
            )
            for line in report.violations:
                print(f"  violation: {line}", file=sys.stderr)
            failed += 0 if report.ok else 1
        if args.dump_dir:
            _write_bundles(
                args.dump_dir,
                [
                    (f"{r.scenario}-{i:02d}-{b['trigger']}", b)
                    for r in reports
                    for i, b in enumerate(r.bundles)
                ],
            )
        if args.json_out:
            payload = {"seed": args.seed,
                       "reports": [r.as_dict() for r in reports]}
            with open(args.json_out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"wrote {args.json_out}")
        print(
            "chaos drills ok"
            if not failed
            else f"chaos drills FAILED ({failed} scenario(s))"
        )
        return 1 if failed else 0

    from repro.chem.datasets import build_benchmark
    from repro.core.config import SigmoConfig
    from repro.serve import MatchService, ServeConfig
    from repro.serve.loadgen import run_load

    dataset = build_benchmark(
        scale=1.0, n_queries=6, n_data_graphs=36, seed=args.seed
    )
    config = SigmoConfig(refinement_iterations=3)
    batches = [dataset.data[i : i + 9] for i in range(0, 36, 9)]

    async def run():
        service = MatchService(config=config, serve=ServeConfig())
        key = service.register(dataset.queries)
        async with service:
            result = await run_load(
                service,
                key,
                batches,
                n_clients=args.clients,
                requests_per_client=args.requests,
                zipf_exponent=args.zipf,
                seed=args.seed,
            )
            health = service.health()
        bundles = list(service.monitor.bundles)
        if service.monitor.enabled:
            bundles.append(service.monitor.dump("manual"))
        return result, service.snapshot(), health, bundles

    result, snapshot, health, bundles = asyncio.run(run())
    summary = result.as_dict()
    print(
        f"load: {summary['n_requests']} requests, "
        f"{summary['complete']} complete, "
        f"{summary.get('partial', 0)} partial, "
        f"{summary.get('rejected', 0)} rejected"
    )
    print(
        f"goodput {summary['goodput_rps']:.1f} req/s, "
        f"p50 {summary['latency_p50_s'] * 1e3:.2f} ms, "
        f"p99 {summary['latency_p99_s'] * 1e3:.2f} ms"
    )
    if args.dashboard:
        from repro.obs.slo import render_dashboard

        print(render_dashboard(health.as_dict()))
    if args.dump_dir:
        _write_bundles(
            args.dump_dir,
            [(f"load-{i:02d}-{b['trigger']}", b) for i, b in enumerate(bundles)],
        )
    if args.json_out:
        payload = {
            "load": summary,
            "service": snapshot,
            "health": health.as_dict(),
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    return 0


def cmd_trace_request(args) -> int:
    """Handle ``repro trace-request``: one request's causal story.

    Reads a post-mortem bundle (``--bundle``) or runs a chaos scenario
    live and uses its final bundle, then renders every buffered event
    involving the request id — admission, coalesced batches (as a
    member), retries, resolution, and resume-token follow-up hops linked
    by the causal chain id.
    """
    from repro.obs.recorder import events_for_request, validate_bundle
    from repro.serve.monitor import format_request_story

    if args.bundle:
        with open(args.bundle) as fh:
            bundle = json.load(fh)
        problems = validate_bundle(bundle)
        if problems:
            for line in problems:
                print(f"invalid bundle: {line}", file=sys.stderr)
            return 2
    else:
        from repro.serve.chaos import run_chaos_sync

        try:
            reports = run_chaos_sync([args.scenario], seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = reports[0]
        if not report.bundles:
            print(
                f"scenario {args.scenario!r} produced no bundle",
                file=sys.stderr,
            )
            return 2
        bundle = report.bundles[-1]
    events = events_for_request(bundle.get("events", []), args.request_id)
    if not events:
        chains = []
        for e in bundle.get("events", []):
            chain = e.get("chain")
            if chain and chain not in chains:
                chains.append(chain)
        print(
            f"no events for {args.request_id!r} in bundle "
            f"(trigger {bundle.get('trigger')!r})",
            file=sys.stderr,
        )
        if chains:
            print("known chains: " + " ".join(chains), file=sys.stderr)
        return 1
    print(
        format_request_story(
            args.request_id, events, trigger=str(bundle.get("trigger", ""))
        )
    )
    if args.json_out:
        payload = {
            "request_id": args.request_id,
            "trigger": bundle.get("trigger"),
            "events": events,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "match": cmd_match,
        "generate": cmd_generate,
        "info": cmd_info,
        "selftest": cmd_selftest,
        "analyze": cmd_analyze,
        "resilient-run": cmd_resilient_run,
        "profile": cmd_profile,
        "serve-sim": cmd_serve_sim,
        "trace-request": cmd_trace_request,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
