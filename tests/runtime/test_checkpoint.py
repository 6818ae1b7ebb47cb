"""Unit tests for the atomic, checksummed checkpoint store."""

import json

import numpy as np
import pytest

from repro.core.join import JoinStats
from repro.core.results import MatchRecord
from repro.io.serialization import file_sha256
from repro.runtime import ResilientResult, run_resilient
from repro.runtime.checkpoint import CheckpointMismatch, CheckpointStore, ChunkPayload

pytestmark = pytest.mark.robustness


def make_payload(start=0, stop=4, total_matches=3):
    return ChunkPayload(
        start=start,
        stop=stop,
        total_matches=total_matches,
        matched_pairs=[(start, 0), (start + 1, 1), (start + 2, 0)],
        embeddings=[
            MatchRecord(start, 0, np.array([0, 1], dtype=np.int32)),
            MatchRecord(start + 1, 1, np.array([2, 0, 1], dtype=np.int32)),
        ],
        timings={"join": 0.25, "filter": 0.5},
        peak_memory_bytes=4096,
    )


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", fingerprint="fp")
        store.save_chunk(make_payload())
        store.save_chunk(make_payload(start=4, stop=8))
        loaded = CheckpointStore(tmp_path / "ckpt", fingerprint="fp").load()
        assert set(loaded) == {(0, 4), (4, 8)}
        payload = loaded[(0, 4)]
        assert payload.total_matches == 3
        assert payload.matched_pairs == [(0, 0), (1, 1), (2, 0)]
        assert payload.timings == {"join": 0.25, "filter": 0.5}
        assert payload.peak_memory_bytes == 4096
        assert [(r.data_graph, r.query_graph, r.mapping.tolist()) for r in payload.embeddings] == [
            (0, 0, [0, 1]),
            (1, 1, [2, 0, 1]),
        ]

    def test_resave_overwrites(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(make_payload(total_matches=5))
        store.save_chunk(make_payload())
        loaded = CheckpointStore(tmp_path, fingerprint="fp").load()
        assert loaded[(0, 4)].total_matches == 3
        manifest = json.loads(store.manifest_path.read_text())
        assert [entry["total_matches"] for entry in manifest["chunks"]] == [3]

    def test_empty_directory_loads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path / "none", fingerprint="fp").load() == {}

    def test_no_stray_tmp_files(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(make_payload())
        assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]


class TestCorruption:
    def test_fingerprint_mismatch_refuses(self, tmp_path):
        CheckpointStore(tmp_path, fingerprint="a").save_chunk(make_payload())
        with pytest.raises(CheckpointMismatch):
            CheckpointStore(tmp_path, fingerprint="b").load()

    def test_version_mismatch_refuses(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(make_payload())
        manifest = json.loads(store.manifest_path.read_text())
        manifest["version"] = 999
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatch):
            CheckpointStore(tmp_path, fingerprint="fp").load()

    def test_corrupt_chunk_dropped(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(make_payload(0, 4))
        store.save_chunk(make_payload(4, 8))
        store.chunk_path(0, 4).write_bytes(b"garbage")
        reader = CheckpointStore(tmp_path, fingerprint="fp")
        loaded = reader.load()
        assert set(loaded) == {(4, 8)}  # corrupt range re-executes
        assert reader.dropped == {(0, 4): "checksum mismatch"}

    def test_missing_chunk_dropped(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(make_payload(0, 4))
        store.chunk_path(0, 4).unlink()
        reader = CheckpointStore(tmp_path, fingerprint="fp")
        assert reader.load() == {}
        assert reader.dropped == {(0, 4): "chunk file missing"}

    def test_truncated_entry_dropped(self, tmp_path):
        # Older releases wrote a resume pair into every entry and
        # persisted join-truncated chunks: a truncated entry is dropped
        # like a corrupt one (its range runs again), an ok one loads.
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(make_payload(0, 4))
        store.save_chunk(make_payload(4, 8))
        manifest = json.loads(store.manifest_path.read_text())
        manifest["chunks"][0].update(status="truncated", next_pair=17)
        manifest["chunks"][1].update(next_pair=0)
        store.manifest_path.write_text(json.dumps(manifest))
        reader = CheckpointStore(tmp_path, fingerprint="fp")
        assert set(reader.load()) == {(4, 8)}
        assert reader.dropped == {(0, 4): "status 'truncated' is not 'ok'"}

    def test_orphan_chunk_file_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(make_payload(0, 4))
        # a crash between chunk write and manifest write leaves an orphan
        store.chunk_path(4, 8).write_bytes(b"orphan")
        loaded = CheckpointStore(tmp_path, fingerprint="fp").load()
        assert set(loaded) == {(0, 4)}


class TestFormat:
    """The on-disk manifest format is pinned: old checkpoints stay loadable."""

    def test_manifest_entry_is_pinned(self, tmp_path):
        payload = make_payload(4, 8)
        payload.stage_counts = {"filter": 2, "join": 1}
        payload.join_stats = JoinStats(
            pairs_joined=2, stack_pushes=9, candidate_visits=31, edge_checks=14
        )
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(payload)
        manifest = json.loads(store.manifest_path.read_text())
        assert list(manifest) == ["chunks", "fingerprint", "version"]
        assert (manifest["fingerprint"], manifest["version"]) == ("fp", 1)
        (entry,) = manifest["chunks"]
        expected = {
            "file": "chunk-0000004-0000008.npz",
            "join_stats": {
                "candidate_visits": 31,
                "edge_checks": 14,
                "pairs_joined": 2,
                "stack_pushes": 9,
            },
            "peak_memory_bytes": 4096,
            "sha256": file_sha256(store.chunk_path(4, 8)),
            "stage_counts": {"filter": 2, "join": 1},
            "start": 4,
            "status": "ok",
            "stop": 8,
            "timings": {"filter": 0.5, "join": 0.25},
            "total_matches": 3,
        }
        assert list(entry.items()) == list(expected.items())
        with np.load(store.chunk_path(4, 8)) as arrays:
            assert sorted(arrays.files) == [
                "embedding_mappings", "embedding_offsets", "embedding_pairs",
                "matched_pairs",
            ]

    def test_pre_pipeline_entry_loads_and_merges(self, tmp_path):
        store = CheckpointStore(tmp_path, fingerprint="fp")
        store.save_chunk(make_payload(0, 4))
        manifest = json.loads(store.manifest_path.read_text())
        (entry,) = manifest["chunks"]
        manifest["chunks"] = [
            {
                key: entry[key]
                for key in (
                    "start", "stop", "file", "sha256", "status",
                    "total_matches", "timings", "stage_counts",
                )
            }
        ]
        store.manifest_path.write_text(json.dumps(manifest))
        loaded = CheckpointStore(tmp_path, fingerprint="fp").load()[(0, 4)]
        assert loaded.join_stats == JoinStats()
        assert loaded.peak_memory_bytes == 0
        fresh = make_payload(4, 8)
        fresh.join_stats = JoinStats(pairs_joined=3)
        merged = ResilientResult().add(loaded).add(fresh)
        assert merged.n_chunks == 2
        assert merged.total_matches == 6
        assert merged.join_stats == JoinStats(pairs_joined=3)
        assert merged.peak_memory_bytes == 4096
        assert merged.matched_pairs == loaded.matched_pairs + fresh.matched_pairs

    def test_pre_pipeline_checkpoint_resumes_a_run(self, tmp_path, small_dataset):
        queries, data = small_dataset.queries[:4], small_dataset.data[:12]
        full = run_resilient(queries, data, chunk_size=4, checkpoint=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for entry in manifest["chunks"]:
            for key in ("join_stats", "peak_memory_bytes"):
                del entry[key]
        del manifest["chunks"][1]  # this range re-executes
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        resumed = run_resilient(queries, data, chunk_size=4, checkpoint=tmp_path)
        assert resumed.chunks_from_checkpoint == 2
        assert resumed.total_matches == full.total_matches
        assert resumed.matched_pairs == full.matched_pairs
        # Old entries carry no counters: only the re-executed range counts.
        rerun = [r for r in resumed.chunk_records if not r.from_checkpoint]
        assert [(r.start, r.stop) for r in rerun] == [(4, 8)]
        fresh = run_resilient(queries, data[4:8], chunk_size=4)
        assert resumed.join_stats == fresh.join_stats
