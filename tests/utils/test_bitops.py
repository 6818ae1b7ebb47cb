"""Unit tests for the bitmap primitives."""

import numpy as np
import pytest

from repro.utils import bitops


class TestWordDtype:
    def test_valid_widths(self):
        assert bitops.word_dtype(32) == np.uint32
        assert bitops.word_dtype(64) == np.uint64

    def test_invalid_width(self):
        with pytest.raises(ValueError, match="word_bits"):
            bitops.word_dtype(12)


class TestBitmapWords:
    def test_exact_multiple(self):
        assert bitops.bitmap_words(128, 64) == 2

    def test_round_up(self):
        assert bitops.bitmap_words(65, 64) == 2

    def test_zero_bits(self):
        assert bitops.bitmap_words(0, 64) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bitops.bitmap_words(-1)


class TestPackUnpack:
    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_roundtrip(self, word_bits):
        rng = np.random.default_rng(0)
        rows = rng.random((5, 77)) < 0.4
        packed = bitops.pack_bool_rows(rows, word_bits)
        assert packed.dtype == bitops.word_dtype(word_bits)
        back = bitops.unpack_bitmap_rows(packed, 77, word_bits)
        np.testing.assert_array_equal(back, rows)

    def test_lsb_first_layout(self):
        rows = np.zeros((1, 64), dtype=bool)
        rows[0, 0] = True
        packed = bitops.pack_bool_rows(rows, 64)
        assert packed[0, 0] == 1  # bit 0 is the LSB

    def test_bit_index_matches_column(self):
        rows = np.zeros((1, 70), dtype=bool)
        rows[0, 65] = True
        packed = bitops.pack_bool_rows(rows, 64)
        assert packed[0, 0] == 0
        assert packed[0, 1] == 2  # bit 1 of word 1 == column 65

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            bitops.pack_bool_rows(np.zeros(8, dtype=bool))

    def test_empty_rows(self):
        packed = bitops.pack_bool_rows(np.zeros((0, 10), dtype=bool))
        assert packed.shape == (0, 1)


class TestPopcount:
    def test_scalar_words(self):
        assert bitops.popcount(np.uint64(0b1011)) == 3

    def test_row_popcount(self):
        rows = np.array([[True] * 10 + [False] * 5, [False] * 15])
        packed = bitops.pack_bool_rows(rows)
        np.testing.assert_array_equal(bitops.row_popcount(packed), [10, 0])

    def test_row_popcount_requires_2d(self):
        with pytest.raises(ValueError):
            bitops.row_popcount(np.zeros(3, dtype=np.uint64))


class TestRaggedAt:
    def test_runs_in_order(self):
        got = bitops.ragged_at(np.array([5, 0, 9]), np.array([2, 0, 3]))
        np.testing.assert_array_equal(got, [5, 6, 9, 10, 11])
        assert got.dtype == np.int64

    def test_no_runs(self):
        empty = np.empty(0, dtype=np.int64)
        assert bitops.ragged_at(empty, empty).size == 0


class TestSetTestBit:
    def test_set_then_test(self):
        words = np.zeros((2, 2), dtype=np.uint64)
        bitops.set_bits(words, 1, np.array([0, 65, 127]))
        assert bitops.test_bit(words, 1, 65)
        assert not bitops.test_bit(words, 1, 64)
        assert not bitops.test_bit(words, 0, 0)

    def test_set_empty_positions_noop(self):
        words = np.zeros((1, 1), dtype=np.uint64)
        bitops.set_bits(words, 0, np.array([], dtype=np.int64))
        assert words[0, 0] == 0
