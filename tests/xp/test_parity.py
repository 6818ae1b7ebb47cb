"""Cross-backend parity: the pipeline must be bitwise-identical per backend.

One seeded filter -> refine -> join run per registered-and-available
backend, compared field-by-field against the numpy reference: match
counts, matched pairs, embedding *order*, ``JoinStats`` work counters,
and truncation/resume tokens under a ``JoinBudget``.  Any further
registered backend joins the matrix automatically; the built-in matrix
is numpy vs. instrumented — which simultaneously proves the kernels
dispatch through the registry (the instrumented counters see the
traffic, the signature BFS's ``popcount``/``scatter_or`` included).
"""

import pytest

from repro.chem.datasets import build_benchmark
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_FIRST, JoinBudget
from repro.core.signatures import SignatureState
from repro.xp import backend_names, get_backend, use_backend

pytestmark = pytest.mark.xp

#: Backends exercised by the parity matrix: every registered backend.
PARITY_BACKENDS = [name for name in backend_names() if name != "numpy"]


@pytest.fixture(scope="module")
def dataset():
    return build_benchmark(scale=1.0, n_queries=8, n_data_graphs=40, seed=11)


def run_pipeline(dataset, backend, join_backend="auto", **kwargs):
    config = SigmoConfig(
        refinement_iterations=3,
        record_embeddings=True,
        array_backend=backend,
        join_backend=join_backend,
    )
    engine = SigmoEngine(dataset.queries, dataset.data, config)
    return engine.run(**kwargs)


def assert_bitwise_equal(got, want):
    assert got.total_matches == want.total_matches
    assert got.matched_pairs() == want.matched_pairs()
    # Embedding ORDER matters: resume tokens index into it.
    assert got.embeddings == want.embeddings
    gs, ws = got.join_result.stats, want.join_result.stats
    assert gs.pairs_joined == ws.pairs_joined
    assert gs.stack_pushes == ws.stack_pushes
    assert gs.candidate_visits == ws.candidate_visits
    assert gs.edge_checks == ws.edge_checks
    assert got.truncated == want.truncated
    assert got.resume_pair == want.resume_pair
    assert (
        got.filter_result.total_candidates
        == want.filter_result.total_candidates
    )


@pytest.mark.parametrize("backend", PARITY_BACKENDS)
class TestBackendParity:
    def test_find_all_matches_numpy_reference(self, dataset, backend):
        reference = run_pipeline(dataset, "numpy")
        got = run_pipeline(dataset, backend)
        assert_bitwise_equal(got, reference)

    def test_find_first_matches_numpy_reference(self, dataset, backend):
        reference = run_pipeline(dataset, "numpy", mode=FIND_FIRST)
        got = run_pipeline(dataset, backend, mode=FIND_FIRST)
        assert_bitwise_equal(got, reference)

    def test_budgeted_run_resumes_identically(self, dataset, backend):
        budget = JoinBudget(max_matches=3)
        reference = run_pipeline(dataset, "numpy", join_budget=budget)
        got = run_pipeline(dataset, backend, join_budget=budget)
        assert reference.truncated, "budget must actually truncate this run"
        assert_bitwise_equal(got, reference)
        # Resuming from the token must also agree bitwise.
        ref_rest = run_pipeline(
            dataset, "numpy", join_start_pair=reference.resume_pair
        )
        got_rest = run_pipeline(
            dataset, backend, join_start_pair=got.resume_pair
        )
        assert_bitwise_equal(got_rest, ref_rest)

    @pytest.mark.parametrize("join_backend", ["dfs", "fused", "tabular"])
    def test_forced_join_backends_match_numpy_reference(
        self, dataset, backend, join_backend
    ):
        for kwargs in (
            {},
            {"mode": FIND_FIRST},
            {"join_budget": JoinBudget(max_matches=3)},
        ):
            reference = run_pipeline(dataset, "numpy", join_backend, **kwargs)
            got = run_pipeline(dataset, backend, join_backend, **kwargs)
            assert_bitwise_equal(got, reference)


class TestInstrumentedBackendObservations:
    def test_pipeline_traffic_lands_in_the_counters(self):
        # A fresh dataset: the global signature/plan memos must MISS so
        # the signature kernel actually dispatches through the backend.
        fresh = build_benchmark(
            scale=1.0, n_queries=4, n_data_graphs=20, seed=4242
        )
        be = get_backend("instrumented")
        be.reset()
        run_pipeline(fresh, "instrumented")
        counts = be.op_counts()
        assert be.total_calls() > 0, "no kernel call dispatched via repro.xp"
        # The signature BFS runs on the backend's bitset ops.
        for op in ("popcount", "scatter_or"):
            assert counts.get(op, (0, 0))[0] > 0, f"xp.{op} never dispatched"
        # Core array traffic of the filter/join path.
        for op in ("zeros", "nonzero", "cumsum", "searchsorted"):
            assert counts.get(op, (0, 0))[0] > 0, f"xp.{op} never dispatched"

    def test_signature_step_dispatches_bitset_ops(self, dataset):
        batch = CSRGO.from_graphs(dataset.data)
        be = get_backend("instrumented")
        with use_backend("instrumented"):
            state = SignatureState(batch, int(batch.labels.max()) + 1)
            be.reset()
            state.step()
        counts = be.op_counts()
        # One neighbor OR per bitset word, ring sizes and label counts.
        assert counts["scatter_or"][0] >= 1
        assert counts["popcount"][0] >= 2

    def test_numpy_run_stays_out_of_the_counters(self, dataset):
        be = get_backend("instrumented")
        be.reset()
        run_pipeline(dataset, "numpy")
        assert be.total_calls() == 0
