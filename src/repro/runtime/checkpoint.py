"""Checkpoint store: durable per-chunk results with a checksummed manifest.

A resilient run persists every completed chunk so a killed process loses
at most the chunk in flight.  The layout is one directory::

    checkpoint_dir/
      manifest.json              # fingerprint + per-chunk index (atomic)
      chunk-0000000-0000064.npz  # matched pairs + embeddings, one per chunk

Durability rules:

* every file is written with atomic write-rename
  (:func:`repro.io.serialization.atomic_write_bytes`) — a reader never
  sees a torn file;
* the manifest records the SHA-256 of each chunk file; entries whose file
  is missing or fails its checksum are *dropped* on load (that chunk is
  simply re-executed — corruption degrades to recomputation, never to
  wrong results);
* every entry is written with status ``"ok"``; an entry with any other
  status (such as a ``"truncated"`` chunk an older release persisted
  with its join resume pair) is dropped the same way, so its range runs
  again from scratch;
* the manifest records a workload fingerprint
  (:func:`repro.io.serialization.graphs_fingerprint` over queries, data,
  mode, and config); resuming against different inputs raises
  :class:`CheckpointMismatch` instead of silently merging foreign
  results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.join import JoinStats
from repro.io.serialization import (
    atomic_write_bytes,
    atomic_write_json,
    file_sha256,
    npz_bytes,
    pack_match_records,
    unpack_match_records,
)
from repro.pipeline.aggregate import ResultFields, join_stats_dict

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: The status every persisted chunk carries; entries with another one
#: are dropped on load.
STATUS_OK = "ok"


class CheckpointMismatch(RuntimeError):
    """The checkpoint belongs to a different workload or format version."""


@dataclass
class ChunkPayload(ResultFields):
    """Everything persisted for one completed chunk.

    The summed result fields come from
    :class:`~repro.pipeline.aggregate.ResultFields` (``matched_pairs`` and
    ``embeddings`` use *global* data-graph indices).
    """

    start: int
    stop: int


class CheckpointStore:
    """Atomic, checksummed persistence of chunk results.

    Parameters
    ----------
    directory:
        Checkpoint directory (created on first save).
    fingerprint:
        Workload fingerprint the store is bound to; ``load`` refuses a
        manifest with a different one.
    """

    def __init__(self, directory: str | Path, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self._entries: dict[tuple[int, int], dict] = {}
        self._loaded = False
        #: Ranges whose persisted payload was missing/corrupt on the last
        #: ``load`` (with the reason) — those ranges get re-executed.
        self.dropped: dict[tuple[int, int], str] = {}

    # -- paths -------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Path of the manifest file."""
        return self.directory / MANIFEST_NAME

    def chunk_path(self, start: int, stop: int) -> Path:
        """Path of one chunk's payload file."""
        return self.directory / f"chunk-{start:07d}-{stop:07d}.npz"

    # -- load --------------------------------------------------------------------

    def load(self) -> dict[tuple[int, int], ChunkPayload]:
        """Read every verifiable chunk payload from the store.

        Returns an empty mapping when no manifest exists.  Entries whose
        status is not ``"ok"`` or whose chunk file is missing or corrupt
        (checksum mismatch, unreadable npz) are dropped — the driver
        re-executes those ranges.
        """
        self._entries = {}
        self._loaded = True
        self.dropped = {}
        if not self.manifest_path.is_file():
            return {}
        manifest = json.loads(self.manifest_path.read_text())
        if manifest.get("version") != MANIFEST_VERSION:
            raise CheckpointMismatch(
                f"manifest version {manifest.get('version')!r} != {MANIFEST_VERSION}"
            )
        if manifest.get("fingerprint") != self.fingerprint:
            raise CheckpointMismatch(
                f"checkpoint at {self.directory} was written for a different "
                "workload (fingerprint mismatch); refusing to merge"
            )
        payloads: dict[tuple[int, int], ChunkPayload] = {}
        for entry in manifest.get("chunks", []):
            key = (int(entry["start"]), int(entry["stop"]))
            path = self.directory / entry["file"]
            if entry.get("status") != STATUS_OK:
                self.dropped[key] = f"status {entry.get('status')!r} is not {STATUS_OK!r}"
                continue
            if not path.is_file():
                self.dropped[key] = "chunk file missing"
                continue  # re-execute this range
            if file_sha256(path) != entry["sha256"]:
                self.dropped[key] = "checksum mismatch"
                continue
            try:
                payload = self._read_chunk(path, entry)
            except (OSError, ValueError, KeyError) as exc:
                self.dropped[key] = f"unreadable payload: {exc}"
                continue
            payloads[key] = payload
            self._entries[key] = entry
        return payloads

    @staticmethod
    def _read_chunk(path: Path, entry: dict) -> ChunkPayload:
        with np.load(path) as arrays:
            pairs = [
                (int(d), int(q))
                for d, q in np.asarray(arrays["matched_pairs"], dtype=np.int64)
            ]
            embeddings = unpack_match_records(arrays)
        return ChunkPayload(
            start=int(entry["start"]),
            stop=int(entry["stop"]),
            total_matches=int(entry["total_matches"]),
            matched_pairs=pairs,
            embeddings=embeddings,
            timings={k: float(v) for k, v in entry.get("timings", {}).items()},
            stage_counts={
                k: int(v) for k, v in entry.get("stage_counts", {}).items()
            },
            # Absent in pre-pipeline manifests; zeros are the right merge
            # identity, so old checkpoints stay loadable.
            join_stats=JoinStats(
                **{k: int(v) for k, v in entry.get("join_stats", {}).items()}
            ),
            peak_memory_bytes=int(entry.get("peak_memory_bytes", 0)),
        )

    # -- save --------------------------------------------------------------------

    def save_chunk(self, payload: ChunkPayload) -> None:
        """Persist one chunk atomically and re-publish the manifest.

        The chunk file lands first, the manifest second; a crash between
        the two leaves an orphaned chunk file the next load ignores (its
        manifest entry is absent) — never a manifest pointing at a
        missing file.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.chunk_path(payload.start, payload.stop)
        arrays = pack_match_records(payload.embeddings)
        arrays["matched_pairs"] = np.asarray(
            payload.matched_pairs, dtype=np.int64
        ).reshape(len(payload.matched_pairs), 2)
        data = npz_bytes(**arrays)
        atomic_write_bytes(path, data)
        self._entries[(payload.start, payload.stop)] = {
            "start": payload.start,
            "stop": payload.stop,
            "file": path.name,
            "sha256": file_sha256(path),
            "status": STATUS_OK,
            "total_matches": payload.total_matches,
            "timings": {k: float(v) for k, v in payload.timings.items()},
            "stage_counts": {k: int(v) for k, v in payload.stage_counts.items()},
            "join_stats": join_stats_dict(payload.join_stats),
            "peak_memory_bytes": payload.peak_memory_bytes,
        }
        self._write_manifest()

    def _write_manifest(self) -> None:
        chunks = [self._entries[key] for key in sorted(self._entries)]
        atomic_write_json(
            self.manifest_path,
            {
                "version": MANIFEST_VERSION,
                "fingerprint": self.fingerprint,
                "chunks": chunks,
            },
        )
