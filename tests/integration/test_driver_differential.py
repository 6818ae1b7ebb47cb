"""Seeded differential test: every chunk driver against one whole-batch run.

The seeded batches of :mod:`tests.integration.test_join_differential`
run once through a whole-batch ``join_backend="dfs"``
:class:`~repro.core.engine.SigmoEngine` (the reference) and then through
each way the drivers cut and fold the same work:

* :func:`~repro.runtime.resilient.run_resilient` with chunk sizes 1, 3
  and the whole batch;
* ``run_resilient`` under a seeded :class:`~repro.core.join.JoinBudget`
  resumed in place (``on_truncate="resume"``);
* a ``"token"`` chain of budgeted runs merged by
  :func:`~repro.runtime.resilient.combine_results`;
* a checkpoint restart after a token stop;
* :func:`~repro.cluster.parallel.run_parallel` inline (1 worker) and
  with 2 worker processes.

In Find All every driver must equal the reference in total matches,
global matched pairs and embeddings, with the edge-aware filter pass on
(the default) and off; in Find First in matched pairs.
The ``fewest-candidates`` matching order is built from the candidate
counts of the batch being joined, so a chunk's work counters depend on
where the range was cut (its matches do not): each driver's summed
``JoinStats`` must equal the reference's summed over the same cuts, which
is the single whole-batch run when one chunk covers the batch.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.parallel import run_parallel
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_ALL, FIND_FIRST, JoinBudget, JoinStats
from repro.runtime import COMPLETE, combine_results, run_resilient
from tests.integration.test_join_differential import _workload, seed_flags

pytestmark = pytest.mark.robustness

#: Fixed seeds in tier-1 and CI; ``make fuzz`` widens the range through
#: ``REPRO_FUZZ_SEEDS``.
SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "8")))
#: Seeds that also run the 2-process pool (each run starts a pool).
POOL_SEEDS = (0, 5)


def _embeddings(records):
    return [(d, q, tuple(np.asarray(m).tolist())) for d, q, m in records]


def _reference(queries, data, config, mode):
    return SigmoEngine(queries, data, replace(config, join_backend="dfs")).run(mode=mode)


def _cuts(start, stop, size):
    return [(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def _reference_stats(queries, data, config, cuts):
    """Whole-chunk reference ``JoinStats`` summed over ``cuts``."""
    total = JoinStats()
    for lo, hi in cuts:
        stats = _reference(queries, data[lo:hi], config, FIND_ALL).join_result.stats
        for name in vars(total):
            setattr(total, name, getattr(total, name) + getattr(stats, name))
    return total


def _budget(ref, seed):
    """A visit budget that truncates somewhere inside the run."""
    visits = ref.join_result.stats.candidate_visits
    rng = np.random.default_rng(seed)
    return JoinBudget(max_visits=int(rng.integers(1, max(2, visits // 3))))


def _token_chain(queries, data, config, budget):
    parts = [
        run_resilient(
            queries, data, 3, config=config, join_budget=budget, on_truncate="token"
        )
    ]
    while parts[-1].resume_token is not None:
        assert len(parts) < 500, "token chain does not progress"
        parts.append(
            run_resilient(
                queries, data, 3, config=config, join_budget=budget,
                on_truncate="token", resume_token=parts[-1].resume_token,
            )
        )
    return combine_results(*parts)


def _pool_cuts(n, n_workers, size):
    block = -(-n // n_workers)
    return [cut for lo, hi in _cuts(0, n, block) for cut in _cuts(lo, hi, size)]


def _drivers(queries, data, config, mode, budget, tmp_path, seed):
    """(name, result, chunk cuts) of every driver configuration."""
    n = len(data)
    for size in (1, 3, n + 1):
        yield f"resilient[{size}]", run_resilient(
            queries, data, size, mode=mode, config=config
        ), _cuts(0, n, size)
    yield "resumed", run_resilient(
        queries, data, 3, mode=mode, config=config, join_budget=budget
    ), _cuts(0, n, 3)
    if mode == FIND_ALL:
        yield "token-chain", _token_chain(queries, data, config, budget), _cuts(0, n, 3)
        directory = tmp_path / f"ckpt-{seed}"
        stopped = run_resilient(
            queries, data, 3, config=config, join_budget=budget,
            on_truncate="token", checkpoint=directory,
        )
        assert stopped.resume_token is not None
        yield "restart", run_resilient(
            queries, data, 3, config=config, checkpoint=directory
        ), _cuts(0, n, 3)
    yield "parallel[1]", run_parallel(
        queries, data, n_workers=1, chunk_size=3, mode=mode, config=config
    ), _pool_cuts(n, 1, 3)
    if seed in POOL_SEEDS:
        yield "parallel[2]", run_parallel(
            queries, data, n_workers=2, chunk_size=3, mode=mode, config=config
        ), _pool_cuts(n, 2, 3)


@pytest.mark.parametrize(("seed", "edge_signatures"), seed_flags(SEEDS))
def test_find_all_drivers_equal_whole_batch(seed, edge_signatures, tmp_path):
    queries, data, fields = _workload(seed)
    config = SigmoConfig(
        record_embeddings=True, edge_signatures=edge_signatures, **fields
    )
    ref = _reference(queries, data, config, FIND_ALL)
    assert ref.join_result.stats.pairs_joined > 0
    budget = _budget(ref, seed)
    pairs = sorted(ref.matched_pairs())
    embeddings = sorted(_embeddings(ref.join_result.embeddings))
    for name, got, cuts in _drivers(
        queries, data, config, FIND_ALL, budget, tmp_path, seed
    ):
        assert got.status == COMPLETE, name
        assert got.total_matches == ref.total_matches, name
        assert sorted(got.matched_pairs) == pairs, name
        assert sorted(
            _embeddings((r.data_graph, r.query_graph, r.mapping) for r in got.embeddings)
        ) == embeddings, name
        assert got.join_stats == _reference_stats(queries, data, config, cuts), name


@pytest.mark.parametrize("seed", SEEDS)
def test_find_first_drivers_equal_whole_batch(seed, tmp_path):
    queries, data, fields = _workload(seed)
    config = SigmoConfig(record_embeddings=True, **fields)
    ref = _reference(queries, data, config, FIND_FIRST)
    assert ref.join_result.stats.pairs_joined > 0
    pairs = sorted(ref.matched_pairs())
    budget = _budget(ref, seed)
    for name, got, _ in _drivers(
        queries, data, config, FIND_FIRST, budget, tmp_path, seed
    ):
        assert got.status == COMPLETE, name
        assert sorted(got.matched_pairs) == pairs, name
