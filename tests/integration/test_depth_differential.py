"""Seeded differential test: the filter's depth rule against a fixed cap.

With the edge-aware filter (the default), ``refinement_iterations`` is a
cap and :meth:`~repro.core.filtering.IterativeFilter.refine` stops at the
first depth where one more iteration cannot pay.  A run that stops at
depth ``k`` must equal the same config capped at ``k``, bit for bit: the
candidate bitmap, the GMCR, matches, matched pairs, embeddings in order
and every ``JoinStats`` counter.  Every recorded embedding is checked on
its own by :func:`repro.core.verify.verify_result`, and the numpy and
instrumented array backends must stop at the same depth for the same
reason with the same live counts.

Inputs are :mod:`repro.graph.generators` batches (the join differential's
seeded workloads, whose seeds also vary wildcard edge labels, induced
mode, the matching order and the word width) and
:mod:`repro.chem.generator` molecules with fragments cut from them.  The
query list is repeated 1, 4 or 16 times by seed: repeats share signature
groups, so the live bits outgrow the refine work and deeper depths are
reached too.  Contracts are on (``REPRO_CHECK=1``): at a depth-1 stop the
radius-1 node refine it leaves out must clear no bit.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.chem.generator import MoleculeGenerator
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.verify import verify_result
from repro.graph.generators import random_subgraph_pattern
from tests.integration.test_join_differential import _workload

#: Fixed seeds in tier-1 and CI; ``make fuzz`` widens the range through
#: ``REPRO_FUZZ_SEEDS``.
SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "6")))
SOURCES = ("generators", "chem")
ARRAY_BACKENDS = ("numpy", "instrumented")


@pytest.fixture(autouse=True)
def contracts_on(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")


def _inputs(source, seed):
    """(queries, data, config fields) of one seed of one source."""
    repeat = (1, 4, 16)[seed % 3]
    if source == "generators":
        queries, data, fields = _workload(seed)
        return queries * repeat, data, fields
    rng = np.random.default_rng(2000 + seed)
    data = [m.graph() for m in MoleculeGenerator(seed=seed).generate_batch(12)]
    queries = [
        random_subgraph_pattern(data[i], int(rng.integers(2, 7)), rng)[0]
        for i in range(6)
    ]
    return queries * repeat, data, {}


def _config(fields, backend):
    return SigmoConfig(
        record_embeddings=True, max_embeddings_recorded=1_000_000,
        array_backend=backend, **fields,
    )


def _embeddings(result):
    return [(r.data_graph, r.query_graph, r.mapping.tolist()) for r in result.embeddings]


@pytest.mark.parametrize("backend", ARRAY_BACKENDS)
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_stop_equals_fixed_cap_at_its_depth(seed, source, backend):
    queries, data, fields = _inputs(source, seed)
    config = _config(fields, backend)
    adaptive = SigmoEngine(queries, data, config).run()
    fr = adaptive.filter_result
    assert fr.cap == config.refinement_iterations
    assert 1 <= fr.depth <= fr.cap
    assert adaptive.stage_counts["filter"] == fr.depth
    fixed = SigmoEngine(
        queries, data, replace(config, refinement_iterations=fr.depth)
    ).run()
    assert fixed.filter_result.depth == fr.depth
    np.testing.assert_array_equal(fr.bitmap.words, fixed.filter_result.bitmap.words)
    assert [s.total_candidates for s in fr.iterations] == [
        s.total_candidates for s in fixed.filter_result.iterations
    ]
    for name in ("data_graph_offsets", "query_graph_indices", "matched"):
        np.testing.assert_array_equal(
            getattr(adaptive.gmcr, name), getattr(fixed.gmcr, name)
        )
    assert adaptive.total_matches == fixed.total_matches
    assert adaptive.matched_pairs() == fixed.matched_pairs()
    assert adaptive.join_result.stats == fixed.join_result.stats
    embeddings = _embeddings(adaptive)
    assert embeddings == _embeddings(fixed)
    assert len(embeddings) == adaptive.total_matches
    assert verify_result(adaptive, queries, data, config) == []


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_backends_stop_at_the_same_depth(seed, source):
    queries, data, fields = _inputs(source, seed)
    runs = [
        SigmoEngine(queries, data, _config(fields, backend)).run().filter_result
        for backend in ARRAY_BACKENDS
    ]
    a, b = runs
    assert (a.depth, a.stop_reason) == (b.depth, b.stop_reason)
    assert [s.live_candidates for s in a.iterations] == [
        s.live_candidates for s in b.iterations
    ]
    np.testing.assert_array_equal(a.bitmap.words, b.bitmap.words)


def test_seeds_reach_more_than_one_depth():
    """The tier-1 inputs exercise early stops and deeper refinement alike."""
    depths = set()
    for source in SOURCES:
        for seed in range(6):
            queries, data, fields = _inputs(source, seed)
            result = SigmoEngine(queries, data, SigmoConfig(**fields)).run()
            depths.add(result.filter_result.depth)
    assert 1 in depths and max(depths) >= 3
