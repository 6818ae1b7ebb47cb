"""Memo tables: LRU semantics and the config-keying discipline.

The keying tests are the satellite requirement: every config field that
influences a memoized value must be part of its key, asserted by flipping
the field and observing a rebuild (a memo *miss*) instead of a stale hit.
"""

import numpy as np
import pytest

from repro.accel.memo import (
    PLAN_MEMO_BYTES,
    SIGNATURE_MEMO_BYTES,
    ContentMemo,
    array_hash,
    frozen_array,
    plan_memo,
    signature_memo,
)
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine

pytestmark = pytest.mark.perf_accel


class TestContentMemo:
    def test_get_put_roundtrip(self):
        memo = ContentMemo(4)
        assert memo.get("k") is None
        memo.put("k", 42)
        assert memo.get("k") == 42
        assert memo.stats.misses == 1
        assert memo.stats.hits == 1

    def test_weighted_capacity(self):
        memo = ContentMemo(10, weigh=len)
        memo.put("a", "xxxx")
        memo.put("b", "yyyy")
        memo.get("a")  # "b" is now least recent
        memo.put("c", "zzzz")  # 12 > 10: evicts "b"
        assert memo.get("b") is None
        assert memo.get("a") == "xxxx"
        assert memo.weight == 8
        memo.put("a", "x")  # refresh re-weighs
        assert memo.weight == 5
        assert memo.stats.evictions == 1

    def test_oversized_value_not_stored(self):
        memo = ContentMemo(3, weigh=len)
        memo.put("k", "small")
        assert memo.get("k") is None
        assert len(memo) == 0 and memo.weight == 0

    def test_lru_eviction_order(self):
        memo = ContentMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("a")  # refresh "a" -> "b" is now least recent
        memo.put("c", 3)
        assert memo.get("a") == 1
        assert memo.get("b") is None
        assert memo.stats.evictions == 1

    def test_none_rejected(self):
        with pytest.raises(ValueError, match="None"):
            ContentMemo(2).put("k", None)

    def test_get_or_build_builds_once(self):
        memo = ContentMemo(2)
        calls = []
        for _ in range(3):
            memo.get_or_build("k", lambda: calls.append(1) or "v")
        assert len(calls) == 1

    def test_clear_resets(self):
        memo = ContentMemo(2)
        memo.put("k", 1)
        memo.get("k")
        memo.clear()
        assert len(memo) == 0
        assert memo.stats.lookups == 0

    def test_array_hash_distinguishes_dtype_and_shape(self):
        a = np.zeros(4, dtype=np.int32)
        assert array_hash(a) != array_hash(a.astype(np.int64))
        assert array_hash(a) != array_hash(a.reshape(2, 2))
        assert array_hash(a) == array_hash(np.zeros(4, dtype=np.int32))

    def test_frozen_array_is_readonly_copy(self):
        a = np.arange(3)
        f = frozen_array(a)
        assert not f.flags.writeable
        a[0] = 99
        assert f[0] == 0


class TestPlanMemoKeying:
    def _run(self, bench, **config_fields):
        config = SigmoConfig(**config_fields)
        SigmoEngine(bench.queries, bench.data, config).run()

    def test_identical_run_hits(self, bench):
        self._run(bench)
        misses = plan_memo().stats.misses
        assert misses >= 1
        self._run(bench)
        assert plan_memo().stats.misses == misses
        assert plan_memo().stats.hits >= 1

    @pytest.mark.parametrize(
        "field_flip",
        [
            {"candidate_order": "bfs"},
            {"wildcard_edge_label": 0},
            {"induced": True},
        ],
    )
    def test_plan_affecting_field_forces_rebuild(self, bench, field_flip):
        self._run(bench)
        misses = plan_memo().stats.misses
        self._run(bench, **field_flip)
        assert plan_memo().stats.misses > misses, (
            f"flipping {field_flip} must rebuild the plans, not hit the memo"
        )

    def test_refinement_iterations_key_via_counts(self, bench):
        # More refinement shrinks candidate sets -> different counts hash
        # -> different plan key (the counts feed the matching order).  The
        # node-only filter runs every iteration it is given.
        self._run(bench, refinement_iterations=1, edge_signatures=False)
        misses = plan_memo().stats.misses
        self._run(bench, refinement_iterations=6, edge_signatures=False)
        assert plan_memo().stats.misses > misses


class TestPlanMemoBudget:
    def _run(self, bench, **config_fields):
        SigmoEngine(bench.queries, bench.data, SigmoConfig(**config_fields)).run()

    def test_budget_is_bytes_of_table_arrays(self, bench):
        assert plan_memo().capacity == PLAN_MEMO_BYTES
        self._run(bench)
        memo = plan_memo()
        assert len(memo) == 1
        (arrays, weight), = memo._entries.values()
        assert weight == memo.weight == sum(arr.nbytes for arr in arrays)
        assert all(isinstance(arr, np.ndarray) for arr in arrays)

    def test_eviction_under_budget(self, bench, monkeypatch):
        # Fresh candidate counts each run (different refinement depths of
        # the node-only filter, which runs every iteration it is given)
        # miss the memo; a two-table budget keeps the two newest only.
        node_only = {"edge_signatures": False}
        self._run(bench, refinement_iterations=1, **node_only)
        memo = plan_memo()
        per_table = memo.weight
        monkeypatch.setattr(memo, "capacity", 2 * per_table)
        for iterations in (3, 4, 5):
            self._run(bench, refinement_iterations=iterations, **node_only)
            assert memo.weight <= memo.capacity
        assert len(memo) == 2
        assert memo.stats.evictions == 2
        hits = memo.stats.hits
        self._run(bench, refinement_iterations=5, **node_only)
        assert memo.stats.hits == hits + 1


class TestSignatureMemoKeying:
    def _run(self, bench, **config_fields):
        # The node-only filter computes signatures at every radius up to
        # its depth; the default filter may stop before any.
        config = SigmoConfig(edge_signatures=False, **config_fields)
        SigmoEngine(bench.queries, bench.data, config).run()

    def test_identical_run_hits(self, bench):
        self._run(bench, refinement_iterations=3)
        misses = signature_memo().stats.misses
        assert misses >= 2  # query + data sides, radii 1..2
        self._run(bench, refinement_iterations=3)
        assert signature_memo().stats.misses == misses
        assert signature_memo().stats.hits >= misses

    def test_deeper_sweep_reuses_shallow_radii(self, bench):
        self._run(bench, refinement_iterations=3)  # radii 1, 2
        misses = signature_memo().stats.misses
        self._run(bench, refinement_iterations=4)  # adds radius 3 only
        new_misses = signature_memo().stats.misses - misses
        assert new_misses == 2  # query + data at radius 3, nothing else

    def test_wildcard_label_forces_rebuild(self, bench):
        self._run(bench, refinement_iterations=2)
        misses = signature_memo().stats.misses
        self._run(bench, refinement_iterations=2, wildcard_label=0)
        # The query side re-runs (different ignore_label in its key).
        assert signature_memo().stats.misses > misses

    def test_results_identical_through_memo(self, bench):
        config = SigmoConfig(refinement_iterations=4, record_embeddings=True)
        r1 = SigmoEngine(bench.queries, bench.data, config).run()
        r2 = SigmoEngine(bench.queries, bench.data, config).run()
        assert r1.total_matches == r2.total_matches
        assert np.array_equal(
            r1.join_result.pair_matches, r2.join_result.pair_matches
        )
        assert signature_memo().stats.hits > 0

    def test_size_guard_skips_memoization(self, bench, monkeypatch):
        # Every matrix is larger than a one-byte budget: none is stored.
        monkeypatch.setattr(signature_memo(), "capacity", 1)
        self._run(bench, refinement_iterations=3)
        assert len(signature_memo()) == 0
        assert signature_memo().stats.hits == 0

    def test_budget_is_bytes(self, bench):
        assert signature_memo().capacity == SIGNATURE_MEMO_BYTES
        self._run(bench, refinement_iterations=3)
        memo = signature_memo()
        assert 0 < memo.weight <= SIGNATURE_MEMO_BYTES
        # query + data sides at radii 1..2
        assert len(memo) == 4

    def test_budget_evicts_data_side_keeps_hot_query_side(self, bench, monkeypatch):
        # A session-like stream: one query batch, never-repeated data
        # batches.  The query-side matrices are hit every run, so LRU
        # keeps them while the budget pushes old data-side entries out.
        from repro.core.csrgo import CSRGO
        from repro.core.filtering import IterativeFilter

        query = CSRGO.from_graphs(bench.queries)
        batches = [CSRGO.from_graphs(bench.data[i::4]) for i in range(4)]
        config = SigmoConfig(refinement_iterations=2, edge_signatures=False)
        IterativeFilter(query, batches[0], config).run()
        memo = signature_memo()
        per_run = memo.weight
        monkeypatch.setattr(memo, "capacity", 2 * per_run)
        for data in batches[1:]:
            IterativeFilter(query, data, config).run()
        assert memo.weight <= memo.capacity
        assert memo.stats.evictions >= 1
        hits = memo.stats.hits
        IterativeFilter(query, batches[-1], config).run()
        # query and data side at radius 1
        assert memo.stats.hits == hits + 2
