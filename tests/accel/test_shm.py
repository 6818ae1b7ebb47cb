"""Shared-memory CSR-GO transport: roundtrip, isolation, and parity."""

import warnings

import numpy as np
import pytest

from repro.cluster import shm as shm_module
from repro.cluster.shm import (
    CSRGO_FIELDS,
    SharedCSRGO,
    attach_csrgo,
    attached_csrgo,
    detach_all,
)
from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.engine import SigmoEngine
from repro.runtime import run_resilient

pytestmark = pytest.mark.perf_accel


@pytest.fixture(autouse=True)
def clean_mappings():
    yield
    detach_all()


class TestRoundtrip:
    def test_arrays_survive_export_attach(self, bench):
        original = CSRGO.from_graphs(bench.data)
        with SharedCSRGO(original) as shared:
            attached, shm = attach_csrgo(shared.handle)
            try:
                for f in CSRGO_FIELDS:
                    assert np.array_equal(
                        getattr(attached, f), getattr(original, f)
                    ), f
                assert attached.content_hash() == original.content_hash()
            finally:
                del attached
                shm.close()

    def test_attached_arrays_are_readonly_views(self, bench):
        original = CSRGO.from_graphs(bench.data[:5])
        with SharedCSRGO(original) as shared:
            attached, shm = attach_csrgo(shared.handle)
            try:
                assert not attached.labels.flags.writeable
                with pytest.raises(ValueError):
                    attached.labels[0] = 99
            finally:
                del attached
                shm.close()

    def test_attach_cache_maps_once(self, bench):
        original = CSRGO.from_graphs(bench.data[:5])
        with SharedCSRGO(original) as shared:
            a = attached_csrgo(shared.handle)
            b = attached_csrgo(shared.handle)
            assert a is b
            detach_all()

    def test_slices_do_not_reference_shared_block(self, bench):
        # Worker results must survive the parent unlinking the block.
        original = CSRGO.from_graphs(bench.data)
        with SharedCSRGO(original) as shared:
            attached, shm = attach_csrgo(shared.handle)
            chunk = attached.slice_graphs(2, 7)
            for f in CSRGO_FIELDS:
                assert not np.shares_memory(
                    getattr(chunk, f), getattr(attached, f)
                ), f
            del attached
            shm.close()
        # Block is unlinked now; the chunk still works.
        assert chunk.n_graphs == 5
        assert SigmoEngine.from_csrgo(
            CSRGO.from_graphs(bench.queries), chunk
        ).run().total_matches >= 0


class TestChunkedCSRGO:
    def test_matches_list_based_chunking(self, bench):
        config = SigmoConfig(record_embeddings=True)
        by_list = run_resilient(bench.queries, bench.data, 7, config=config)
        by_csrgo = run_resilient(
            CSRGO.from_graphs(bench.queries),
            CSRGO.from_graphs(bench.data),
            7,
            config=config,
        )
        assert by_csrgo.total_matches == by_list.total_matches
        assert by_csrgo.n_chunks == by_list.n_chunks
        assert sorted(by_csrgo.matched_pairs) == sorted(by_list.matched_pairs)
        embs = lambda r: sorted(
            (e.data_graph, e.query_graph, tuple(e.mapping.tolist()))
            for e in r.embeddings
        )
        assert embs(by_csrgo) == embs(by_list)

    def test_graph_range_slice(self, bench):
        query = CSRGO.from_graphs(bench.queries)
        data = CSRGO.from_graphs(bench.data)
        whole = run_resilient(query, data, 7)
        part = run_resilient(query, data.slice_graphs(10, 30), 7)
        subset = [
            (d - 10, q) for d, q in whole.matched_pairs if 10 <= d < 30
        ]
        assert sorted(part.matched_pairs) == sorted(subset)

    def test_invalid_range_rejected(self, bench):
        data = CSRGO.from_graphs(bench.data[:5])
        with pytest.raises(ValueError, match="graph range"):
            data.slice_graphs(3, 9)


def _no_shared_memory(csrgo):
    raise OSError("shared memory disabled for this test")


def pickled(monkeypatch, *args, **kwargs):
    """A pooled ``run_resilient`` forced onto its pickle fallback."""
    with monkeypatch.context() as patch:
        patch.setattr(shm_module, "SharedCSRGO", _no_shared_memory)
        with pytest.warns(RuntimeWarning, match="falling back to pickle"):
            return run_resilient(*args, **kwargs)


def shared(*args, **kwargs):
    """A pooled ``run_resilient`` that must not fall back to pickle."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_resilient(*args, **kwargs)


class TestParallelSharedMemory:
    def test_bitwise_equal_to_pickle_transport(self, bench, monkeypatch):
        config = SigmoConfig(record_embeddings=True)
        pick = pickled(
            monkeypatch, bench.queries, bench.data, 9, config=config, n_workers=3,
        )
        shm = shared(bench.queries, bench.data, 9, config=config, n_workers=3)
        assert shm.total_matches == pick.total_matches
        assert shm.n_chunks == pick.n_chunks
        assert shm.matched_pairs == pick.matched_pairs
        assert shm.stage_counts == pick.stage_counts
        assert shm.join_stats == pick.join_stats
        embs = lambda r: sorted(
            (e.data_graph, e.query_graph, tuple(e.mapping.tolist()))
            for e in r.embeddings
        )
        assert embs(shm) == embs(pick)

    def test_single_worker_in_process_path(self, bench, monkeypatch):
        # One worker runs every attempt in process: no batch is exported,
        # so a platform without shared memory never warns.
        serial = run_resilient(bench.queries, bench.data, 9)
        monkeypatch.setattr(shm_module, "SharedCSRGO", _no_shared_memory)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = run_resilient(bench.queries, bench.data, 9, n_workers=1)
        assert one.total_matches == serial.total_matches
        assert one.matched_pairs == serial.matched_pairs

    def test_find_first_mode(self, bench, monkeypatch):
        pick = pickled(
            monkeypatch, bench.queries, bench.data, 9, mode="find-first", n_workers=2,
        )
        shm = shared(bench.queries, bench.data, 9, mode="find-first", n_workers=2)
        assert shm.total_matches == pick.total_matches
        assert shm.matched_pairs == pick.matched_pairs
