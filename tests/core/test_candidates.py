"""Unit tests for the candidate bitmap."""

import numpy as np
import pytest

from repro.core.candidates import CandidateBitmap, segment_counts, segment_ids


class TestConstruction:
    def test_starts_empty(self):
        b = CandidateBitmap(3, 100)
        assert b.total_candidates() == 0
        assert b.words.shape == (3, 2)

    def test_word_width(self):
        b = CandidateBitmap(1, 100, word_bits=32)
        assert b.words.shape == (1, 4)
        assert b.words.dtype == np.uint32

    def test_negative_dims(self):
        with pytest.raises(ValueError):
            CandidateBitmap(-1, 5)

    def test_from_bool_roundtrip(self, rng):
        dense = rng.random((4, 90)) < 0.3
        b = CandidateBitmap.from_bool(dense)
        np.testing.assert_array_equal(b.to_bool(), dense)

    def test_copy_is_deep(self):
        b = CandidateBitmap.from_bool(np.ones((1, 10), dtype=bool))
        c = b.copy()
        c.words[:] = 0
        assert b.total_candidates() == 10


class TestRowOps:
    def test_set_and_test(self):
        b = CandidateBitmap(2, 70)
        b.set_row_bool(0, np.arange(70) % 3 == 0)
        assert b.test(0, 0) and b.test(0, 69)
        assert not b.test(0, 1)

    def test_and_row_is_monotone(self, rng):
        b = CandidateBitmap(1, 50)
        first = rng.random(50) < 0.6
        second = rng.random(50) < 0.6
        b.set_row_bool(0, first)
        b.and_row_bool(0, second)
        np.testing.assert_array_equal(b.row_bool(0), first & second)

    def test_shape_validation(self):
        b = CandidateBitmap(1, 10)
        with pytest.raises(ValueError):
            b.set_row_bool(0, np.zeros(11, dtype=bool))
        with pytest.raises(ValueError):
            b.and_row_bool(0, np.zeros(9, dtype=bool))

    def test_test_bounds(self):
        b = CandidateBitmap(1, 10)
        with pytest.raises(IndexError):
            b.test(0, 10)
        with pytest.raises(IndexError):
            b.test(1, 0)


class TestQueries:
    def test_candidates_of_window(self):
        b = CandidateBitmap(1, 200)
        b.set_row_bool(0, np.isin(np.arange(200), [5, 64, 150]))
        np.testing.assert_array_equal(b.candidates_of(0), [5, 64, 150])
        np.testing.assert_array_equal(b.candidates_of(0, 60, 151), [64, 150])
        assert b.candidates_of(0, 151).size == 0
        np.testing.assert_array_equal(b.candidates_of(0, -5, 1000), [5, 64, 150])
        assert b.candidates_of(0, 90, 10).size == 0

    def test_row_counts(self):
        b = CandidateBitmap(2, 100)
        b.set_row_bool(0, np.arange(100) < 7)
        np.testing.assert_array_equal(b.row_counts(), [7, 0])

    def test_counts_per_segment(self):
        b = CandidateBitmap(2, 10)
        b.set_row_bool(0, np.array([1, 1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=bool))
        b.set_row_bool(1, np.zeros(10, dtype=bool))
        seg = b.counts_per_segment(np.array([0, 4, 10]))
        np.testing.assert_array_equal(seg, [[2, 2], [0, 0]])

    def test_nbytes_matches_paper_formula(self):
        # paper 5.1.3: candidate size = |V_Q| x |V_D| / 8 bytes
        b = CandidateBitmap(100, 6400)
        assert b.nbytes() == 100 * 6400 // 8

    def test_repr(self):
        assert "CandidateBitmap" in repr(CandidateBitmap(1, 1))


def _dense_counts(dense, offsets):
    """Oracle: set bits of every (row, segment), from the unpacked matrix."""
    out = np.zeros((dense.shape[0], offsets.size - 1), dtype=np.int64)
    for g in range(offsets.size - 1):
        out[:, g] = dense[:, offsets[g] : offsets[g + 1]].sum(axis=1)
    return out


def _dense_ids(dense, offsets, rows, graphs):
    """Oracle: sorted ids of each requested segment, concatenated."""
    lists = [
        np.flatnonzero(dense[r, offsets[g] : offsets[g + 1]]) + offsets[g]
        for r, g in zip(rows, graphs)
    ]
    return lists


#: Node splits covering the adversarial shapes: boundaries on and off
#: word edges, zero-node graphs at the start, middle and end, a batch
#: inside one word and a last word that is only partly used.
SPLITS = {
    "word-edges": [8, 8, 16, 32, 64],
    "off-edges": [3, 5, 7, 9, 11, 13, 17, 19, 23],
    "zero-start": [0, 0, 5, 12],
    "zero-middle": [4, 0, 9, 0, 0, 7],
    "zero-end": [6, 10, 0, 0],
    "one-word": [1, 2, 3],
    "partial-last-word": [64, 64, 70],
    "all-empty": [0, 0, 0],
}


class TestSegmentPrimitives:
    """``segment_counts`` / ``segment_ids`` against the dense ``to_bool()``."""

    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("split", sorted(SPLITS))
    def test_parity_with_dense(self, word_bits, split):
        rng = np.random.default_rng(word_bits * 31 + len(split))
        sizes = np.asarray(SPLITS[split], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for density in (0.0, 0.1, 0.5, 1.0):
            dense = rng.random((7, int(offsets[-1]))) < density
            dense[2] = False  # an all-zero row
            bitmap = CandidateBitmap.from_bool(dense, word_bits)
            np.testing.assert_array_equal(bitmap.to_bool(), dense)
            want = _dense_counts(dense, offsets)
            got = segment_counts(bitmap, offsets)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(bitmap.counts_per_segment(offsets), want)
            # Point queries: a 2-D block of rows against broadcast graphs.
            rows = rng.integers(0, 7, size=(11, 4))
            graphs = rng.integers(0, sizes.size, size=(11, 1))
            np.testing.assert_array_equal(
                segment_counts(bitmap, offsets, rows, graphs), want[rows, graphs]
            )
            rows, graphs = np.indices(want.shape)
            rows, graphs = rows.ravel(), graphs.ravel()
            perm = rng.permutation(rows.size)
            rows, graphs = rows[perm], graphs[perm]
            ids, off = segment_ids(bitmap, offsets, rows, graphs)
            assert ids.dtype == np.int64 and off.dtype == np.int64
            assert off.tolist() == [0, *np.cumsum(want[rows, graphs]).tolist()]
            for i, expect in enumerate(_dense_ids(dense, offsets, rows, graphs)):
                np.testing.assert_array_equal(ids[off[i] : off[i + 1]], expect)

    def test_no_rows_no_graphs_no_nodes(self):
        empty = CandidateBitmap(0, 0)
        assert segment_counts(empty, np.array([0])).shape == (0, 0)
        bitmap = CandidateBitmap(3, 0)
        np.testing.assert_array_equal(
            segment_counts(bitmap, np.array([0, 0, 0])), np.zeros((3, 2))
        )
        ids, off = segment_ids(bitmap, np.array([0, 0]), np.array([1, 2]), np.array([0, 0]))
        assert ids.size == 0 and off.tolist() == [0, 0, 0]
        none = np.empty(0, dtype=np.int64)
        ids, off = segment_ids(CandidateBitmap(2, 9), np.array([0, 9]), none, none)
        assert ids.size == 0 and off.tolist() == [0]

    def test_padding_bits_are_never_read(self):
        # Stray bits past n_data_nodes in the last word stay invisible.
        bitmap = CandidateBitmap.from_bool(np.ones((2, 70), dtype=bool), 64)
        bitmap.words[:, -1] |= np.uint64(1) << np.uint64(63)
        offsets = np.array([0, 64, 70])
        np.testing.assert_array_equal(segment_counts(bitmap, offsets), [[64, 6], [64, 6]])
        ids, _ = segment_ids(bitmap, offsets, np.array([0]), np.array([1]))
        np.testing.assert_array_equal(ids, np.arange(64, 70))
