"""Shim contract: numpy-native shims, reference oracles, overflow guards.

Every backend implements the :data:`repro.xp.contract.SHIM_FUNCTIONS`
surface; the numpy backend uses native fast paths (``np.packbits``,
``np.bitwise_or.at``, ``np.bitwise_count``).  These tests pin each
native shim bitwise-equal to a portable oracle written only in
array-API operations (plus basic indexing) — the reference a new
backend's shims must also reproduce.
"""

import numpy as np
import pytest

from repro.xp import MAX_FLAT_STRIDE, NumpyBackend, get_backend

pytestmark = pytest.mark.xp

BE = NumpyBackend()

_UNSIGNED_BY_BITS = {8: "uint8", 16: "uint16", 32: "uint32", 64: "uint64"}


# -- portable oracles: array-API operations on the backend ``be`` only -------


def pack_bits_generic(be, padded, word_bits: int):
    """LSB-first word packing: bit ``j`` of a word contributes ``2**j``."""
    n_rows = padded.shape[0]
    grouped = be.astype(padded.reshape(n_rows, -1, word_bits), be.uint64)
    weights = be.uint64(1) << be.arange(word_bits, dtype=be.uint64)
    words = (grouped * weights).sum(axis=-1, dtype=be.uint64)
    return be.astype(words, be.dtype(getattr(be, _UNSIGNED_BY_BITS[word_bits])))


def unpack_bits_generic(be, words, n_bits: int, word_bits: int):
    """Inverse of :func:`pack_bits_generic` (trailing padding dropped)."""
    words = be.astype(be.asarray(words), be.uint64)
    shifts = be.arange(word_bits, dtype=be.uint64)
    bits = (words[..., None] >> shifts) & be.uint64(1)
    flat = bits.reshape(*words.shape[:-1], -1)
    return be.astype(flat[..., :n_bits], be.bool_)


def view_u8_generic(be, arr):
    """Little-endian byte expansion of an unsigned integer array."""
    arr = be.asarray(arr)
    wide = be.astype(arr, be.uint64)
    shifts = be.uint64(8) * be.arange(arr.dtype.itemsize, dtype=be.uint64)
    bytes_ = (wide[..., None] >> shifts) & be.uint64(0xFF)
    return be.astype(bytes_.reshape(*arr.shape[:-1], -1), be.uint8)


def scatter_or_generic(be, target, idx, values) -> None:
    """In-place grouped OR, one scalar update at a time."""
    del be  # uniform shim signature
    for i, v in zip(idx.tolist(), values.tolist()):
        target[i] |= v


def divmod_generic(be, a, b):
    """Simultaneous floor quotient and remainder."""
    return be.floor_divide(a, b), be.remainder(a, b)


def popcount_generic(be, arr):
    """Per-element population count via shift-and-mask accumulation."""
    arr = be.asarray(arr)
    wide = be.astype(arr, be.uint64)
    shifts = be.arange(arr.dtype.itemsize * 8, dtype=be.uint64)
    bits = (wide[..., None] >> shifts) & be.uint64(1)
    return be.astype(bits.sum(axis=-1, dtype=be.uint64), arr.dtype)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


class TestPackUnpackParity:
    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_pack_matches_generic(self, rng, word_bits):
        rows = rng.random((5, 3 * word_bits)) < 0.4
        padded = np.ascontiguousarray(rows)
        native = BE.pack_bits(padded, word_bits)
        generic = pack_bits_generic(BE, padded, word_bits)
        assert native.dtype == generic.dtype
        np.testing.assert_array_equal(native, generic)

    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_unpack_roundtrips_both_ways(self, rng, word_bits):
        n_bits = 2 * word_bits + 5
        rows = rng.random((4, word_bits * 3)) < 0.5
        rows[:, n_bits:] = False
        packed = BE.pack_bits(np.ascontiguousarray(rows), word_bits)
        native = BE.unpack_bits(packed, n_bits, word_bits)
        generic = unpack_bits_generic(BE, packed, n_bits, word_bits)
        np.testing.assert_array_equal(native, rows[:, :n_bits])
        np.testing.assert_array_equal(generic, rows[:, :n_bits])


class TestScalarShims:
    def test_view_u8_matches_generic(self, rng):
        arr = rng.integers(0, 2**63, size=16, dtype=np.uint64)
        np.testing.assert_array_equal(BE.view_u8(arr), view_u8_generic(BE, arr))

    def test_popcount_matches_generic(self, rng):
        arr = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        np.testing.assert_array_equal(
            BE.popcount(arr), popcount_generic(BE, arr)
        )

    def test_divmod_matches_generic(self, rng):
        a = rng.integers(0, 10**6, size=100)
        q1, r1 = BE.divmod_(a, 7)
        q2, r2 = divmod_generic(BE, a, 7)
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(r1, r2)

    @pytest.mark.parametrize("divisor", [1, 2, 8, 64, 6])
    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint32, np.uint64]
    )
    def test_divmod_word_widths_match_generic(self, rng, dtype, divisor):
        info = np.iinfo(dtype)
        a = rng.integers(info.min, info.max, size=200, dtype=dtype, endpoint=True)
        q1, r1 = BE.divmod_(a, divisor)
        q2, r2 = divmod_generic(BE, a, divisor)
        assert q1.dtype == q2.dtype and r1.dtype == r2.dtype
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(r1, r2)

    def test_scatter_or_accumulates_duplicates(self):
        # np.bitwise_or.at semantics: repeated indices OR together.
        idx = np.array([0, 1, 1, 2, 1], dtype=np.int64)
        values = np.array([1, 2, 4, 8, 16], dtype=np.uint64)
        native = np.zeros(3, dtype=np.uint64)
        generic = np.zeros(3, dtype=np.uint64)
        BE.scatter_or(native, idx, values)
        scatter_or_generic(BE, generic, idx, values)
        np.testing.assert_array_equal(native, [1, 22, 8])
        np.testing.assert_array_equal(native, generic)


class TestFlatStrideOverflowGuard:
    """Regression for the latent int64 wraparound in the flat edge keys.

    ``accel/fused.py`` and the CSR views build flat keys as
    ``u * width + v``; a bare ``np.int64(width)`` multiplication wraps
    silently once ``width**2`` exceeds 2**63.  The shim refuses such
    widths instead of corrupting every join probe.
    """

    @pytest.mark.parametrize("backend", ["numpy", "instrumented"])
    def test_max_width_accepted(self, backend):
        be = get_backend(backend)
        stride = be.checked_flat_stride(MAX_FLAT_STRIDE)
        assert int(stride) == MAX_FLAT_STRIDE
        # The guard boundary is exactly floor(sqrt(2**63 - 1)).
        assert MAX_FLAT_STRIDE**2 <= 2**63 - 1
        assert (MAX_FLAT_STRIDE + 1) ** 2 > 2**63 - 1

    @pytest.mark.parametrize("backend", ["numpy", "instrumented"])
    def test_overflowing_width_refused(self, backend):
        be = get_backend(backend)
        with pytest.raises(OverflowError, match="flat edge keys"):
            be.checked_flat_stride(MAX_FLAT_STRIDE + 1)

    def test_stride_result_is_int64(self):
        stride = BE.checked_flat_stride(1000)
        assert np.asarray(stride).dtype == np.int64
