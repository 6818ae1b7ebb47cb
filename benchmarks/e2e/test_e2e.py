"""Self-tests of the end-to-end benchmark (``pytest benchmarks/e2e``).

Each workload runs once untraced and once traced on one op (``seconds=0``)
of a small seed, in-process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

run._import_repro()

import workloads  # noqa: E402

SEED = 5
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def records(request):
    """(untraced, traced) records of one workload at ``SEED``."""
    return tuple(run.measure(request.param, SEED, 0.0, trace) for trace in (False, True))


def test_spec_lists_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_emitted_with_its_unit(records):
    for record, specs in zip(records, (SPEC["end_to_end"], SPEC["per_layer"])):
        line = run.result_line(record)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        for spec in specs:
            metric = line["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], float)
    for spec in SPEC["end_to_end"]:
        assert records[0]["metrics"][spec["name"]] > 0


def test_layer_self_times_and_residual_sum_to_wall(records):
    traced = records[1]
    layers = traced["layers"]
    assert layers["residual"] >= 0
    assert sum(layers.values()) == pytest.approx(traced["wall_s"], rel=0.01)
    for name in ("convert", "filter.init", "filter.refine", "map", "join", "join.plan"):
        assert layers[name] > 0, name


def test_same_seed_gives_identical_answers(records):
    untraced, traced = records
    n = min(len(untraced["answers"]), len(traced["answers"]))
    assert n >= 1
    assert untraced["answers"][:n] == traced["answers"][:n]


def test_wrong_answer_is_counted_and_fails_the_run(monkeypatch):
    real = workloads.OpWorkload.reference
    monkeypatch.setattr(
        workloads.OpWorkload, "reference", lambda self, batch: real(self, batch) + 1
    )
    record = run.measure("hot-enum", SEED, 0.0, False)
    assert record["failed"] == 1
    assert run.result_line(record)["correct"] is False


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "hot-enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _runs_file(path: Path, values: list[float], failed: int = 0) -> Path:
    runs = [
        {"workload": "w", "trace": 0, "failed": failed,
         "metrics": {m["name"]: v for m in SPEC["end_to_end"]}}
        for v in values
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


@pytest.mark.parametrize(
    ("base", "new", "verdict"),
    [
        # lower is better for setup_s: new is 20% lower on every pair
        ([1.0 + 0.001 * i for i in range(10)], [0.8 + 0.001 * i for i in range(10)], "improved"),
        ([1.0 + 0.001 * i for i in range(10)], [1.5 + 0.001 * i for i in range(10)], "regressed"),
        ([1.0, 2.0] * 5, [1.0, 2.0] * 5, "unresolved"),
        ([1.0 + 0.001 * i for i in range(10)], [1.0 + 0.001 * i for i in range(10)], "unchanged"),
        ([1.0] * 5, [1.0] * 5, "too-few-pairs"),
    ],
)
def test_compare_verdicts(tmp_path, base, new, verdict):
    rows, status = compare.compare(
        _runs_file(tmp_path / "base.json", base),
        [_runs_file(tmp_path / "new.json", new)],
        run.ROOT / "BENCHMARK.json",
    )
    setup = next(r for _, spec, r in rows if spec["name"] == "setup_s")
    assert setup["verdict"] == verdict
    assert status == int(any(r["verdict"] in ("regressed", "too-few-pairs") for _, _, r in rows))


def test_compare_fails_on_wrong_answers(tmp_path):
    values = [1.0 + 0.001 * i for i in range(10)]
    _, status = compare.compare(
        _runs_file(tmp_path / "base.json", values),
        [_runs_file(tmp_path / "new.json", values, failed=1)],
        run.ROOT / "BENCHMARK.json",
    )
    assert status == 1
