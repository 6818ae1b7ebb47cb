"""End-to-end CLI tests."""

import json

import pytest

from repro.cli import main
from repro.io import read_smi


@pytest.fixture
def library(tmp_path):
    path = tmp_path / "lib.smi"
    assert main(["generate", "--out", str(path), "-n", "25", "--seed", "1"]) == 0
    return path


class TestGenerate:
    def test_generates_library(self, library):
        assert len(read_smi(library)) == 25

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.smi", tmp_path / "b.smi"
        main(["generate", "--out", str(a), "-n", "5", "--seed", "9"])
        main(["generate", "--out", str(b), "-n", "5", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestInfo:
    def test_prints_stats(self, library, capsys):
        assert main(["info", str(library)]) == 0
        out = capsys.readouterr().out
        assert "25 molecules" in out
        assert "mean_heavy_atoms" in out


class TestMatch:
    def test_query_file_match(self, library, tmp_path, capsys):
        queries = tmp_path / "q.smi"
        queries.write_text("CC ethyl\nCO c-o\n")
        assert main(["match", "--data", str(library), "--queries", str(queries)]) == 0
        out = capsys.readouterr().out
        assert "matches across 25 molecules x 2 queries" in out

    def test_inline_smarts_with_wildcards(self, library, capsys):
        assert main(
            ["match", "--data", str(library), "--smarts", "C~*", "--mode",
             "find-first"]
        ) == 0
        out = capsys.readouterr().out
        assert "find-first" in out

    def test_json_output_with_embeddings(self, library, tmp_path, capsys):
        out_json = tmp_path / "res.json"
        assert main(
            ["match", "--data", str(library), "--smarts", "CC",
             "--embeddings", "--json", str(out_json)]
        ) == 0
        payload = json.loads(out_json.read_text())
        assert payload["total_matches"] == len(payload["embeddings"])
        assert payload["matched_pairs"]

    def test_chunked_equals_unchunked(self, library, tmp_path):
        import io
        from contextlib import redirect_stdout

        def run(extra):
            buf = io.StringIO()
            with redirect_stdout(buf):
                main(["match", "--data", str(library), "--smarts", "CCO"] + extra)
            return buf.getvalue().splitlines()[0]

        assert run([]).split()[0] == run(["--chunk-size", "4"]).split()[0]


class TestSelftest:
    def test_selftest_runs(self, capsys):
        assert main(["selftest", "--molecules", "30", "--queries", "8"]) == 0
        assert "selftest ok" in capsys.readouterr().out


@pytest.mark.robustness
class TestResilientRun:
    def test_requires_data_or_smoke(self, capsys):
        assert main(["resilient-run"]) == 2
        assert "required" in capsys.readouterr().err

    def test_basic_run(self, library, capsys):
        assert main(
            ["resilient-run", "--data", str(library), "--smarts", "CC",
             "--chunk-size", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "complete:" in out and "chunk(s)" in out

    def test_faulted_run_equals_clean(self, library, tmp_path, capsys):
        def run(extra, out_json):
            code = main(
                ["resilient-run", "--data", str(library), "--smarts", "CC",
                 "--chunk-size", "5", "--json", str(out_json)] + extra
            )
            capsys.readouterr()
            return code, json.loads(out_json.read_text())

        code, clean = run([], tmp_path / "clean.json")
        assert code == 0
        code, faulted = run(
            ["--fault-oom-rate", "0.6", "--fault-seed", "4",
             "--memory-budget-mb", "64", "--max-attempts", "8"],
            tmp_path / "faulted.json",
        )
        assert code == 0
        assert faulted["total_matches"] == clean["total_matches"]
        assert faulted["matched_pairs"] == clean["matched_pairs"]
        assert any(a["outcome"] == "oom" for a in faulted["attempts"]["attempts"])

    def test_checkpoint_resume(self, library, tmp_path, capsys):
        args = ["resilient-run", "--data", str(library), "--smarts", "CC",
                "--chunk-size", "8", "--checkpoint-dir", str(tmp_path / "ck")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 from checkpoint" in out

    def test_smoke_mode(self, capsys):
        assert main(["resilient-run", "--smoke", "--fault-seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint restart: partial then complete" in out
        assert "resilient smoke ok" in out


@pytest.mark.slo
class TestServeSimObservability:
    def test_dashboard_and_bundle_dump(self, tmp_path, capsys):
        assert main(
            ["serve-sim", "--clients", "1", "--requests", "2",
             "--dashboard", "--dump-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "repro serve dashboard" in out
        assert "goodput" in out
        bundles = sorted(tmp_path.glob("load-*.json"))
        assert bundles, "the load run must dump at least the manual bundle"
        from repro.obs.recorder import validate_bundle

        assert validate_bundle(json.loads(bundles[-1].read_text())) == []

    def test_chaos_dump_names_scenario_and_trigger(self, tmp_path, capsys):
        assert main(
            ["serve-sim", "--chaos", "--scenarios", "poison",
             "--dump-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "bundles=[manual]" in out
        path = tmp_path / "poison-00-manual.json"
        assert path.is_file()
        bundle = json.loads(path.read_text())
        assert bundle["context"]["scenario"] == "poison"


@pytest.mark.slo
class TestTraceRequest:
    def make_bundle(self, tmp_path):
        assert main(
            ["serve-sim", "--chaos", "--scenarios", "straggler",
             "--dump-dir", str(tmp_path)]
        ) == 0
        return sorted(tmp_path.glob("straggler-*.json"))[-1]

    def test_traces_resume_chain_from_bundle(self, tmp_path, capsys):
        bundle = self.make_bundle(tmp_path)
        capsys.readouterr()
        assert main(
            ["trace-request", "req-000000", "--bundle", str(bundle)]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("req-000000:")
        assert "resume chain: req-000000" in out
        assert "admitted" in out and "finished" in out

    def test_unknown_request_lists_known_chains(self, tmp_path, capsys):
        bundle = self.make_bundle(tmp_path)
        capsys.readouterr()
        assert main(
            ["trace-request", "req-999999", "--bundle", str(bundle)]
        ) == 1
        err = capsys.readouterr().err
        assert "req-999999" in err and "req-000000" in err

    def test_rejects_invalid_bundle_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert main(
            ["trace-request", "req-000000", "--bundle", str(bad)]
        ) == 2
        assert "invalid bundle" in capsys.readouterr().err
