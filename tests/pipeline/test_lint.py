"""SGL010 ``driver-bypass``: direct stage calls outside the pipeline.

The rule keeps the refactor honest going forward: any new code calling
``run_join``/``IterativeFilter`` directly — instead of going through the
pipeline/session layer where spans, stage timings, contract checks, and
artifact caching attach — is flagged.  The pipeline package itself (the one place
allowed to drive stages) is exempt, and the committed baseline absorbs
the intentional legacy shims.
"""

import pytest

from repro.analysis.linter import (
    lint_paths,
    lint_source,
    load_baseline,
    new_findings,
)

pytestmark = pytest.mark.pipeline


def sgl010(source, filename="core/demo.py"):
    return [f for f in lint_source(source, filename) if f.rule == "SGL010"]


class TestDriverBypass:
    def test_direct_run_join_flagged(self):
        src = "def f(fr, gmcr, cfg):\n    return run_join(fr, gmcr, cfg)\n"
        (finding,) = sgl010(src)
        assert "bypasses the pipeline executor" in finding.message
        assert "MatcherSession" in finding.message

    def test_direct_iterative_filter_flagged(self):
        src = (
            "def f(query, data, n_labels, cfg):\n"
            "    return IterativeFilter(query, data, n_labels, cfg).run()\n"
        )
        assert len(sgl010(src)) == 1

    def test_attribute_calls_flagged_too(self):
        src = "def f(join, fr, gmcr, cfg):\n    return join.run_join(fr, gmcr, cfg)\n"
        assert len(sgl010(src)) == 1

    def test_pipeline_package_is_exempt(self):
        src = "def f(fr, gmcr, cfg):\n    return run_join(fr, gmcr, cfg)\n"
        assert sgl010(src, "pipeline/stages.py") == []
        assert sgl010(src, "pipeline/session.py") == []
        # Only the package itself, not names that merely contain it.
        assert len(sgl010(src, "core/pipeline_adapter.py")) == 1

    def test_unrelated_calls_clean(self):
        src = (
            "def f(session, engine, data):\n"
            "    session.match(data)\n"
            "    return engine.run()\n"
        )
        assert sgl010(src) == []


def test_repo_is_clean_against_the_baseline():
    """The committed baseline absorbs every legacy shim's direct call."""
    findings = lint_paths()
    fresh = new_findings(findings, load_baseline())
    assert fresh == []
    # The baseline does accept some SGL010 findings (the documented shims),
    # so the rule is live, not vacuous.
    assert any(f.rule == "SGL010" for f in findings)
