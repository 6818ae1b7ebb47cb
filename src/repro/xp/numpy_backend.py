"""The default ``numpy`` backend — bitwise-identical to the historical
direct-NumPy kernels.

Unknown attributes fall through to :mod:`numpy` (and are cached on the
instance), so the backend automatically satisfies the whole
:data:`repro.xp.contract.ARRAY_API_FUNCTIONS` surface; only the
:data:`repro.xp.contract.SHIM_FUNCTIONS` need explicit definitions.
"""

from __future__ import annotations

import numpy as np

from repro.xp.contract import MAX_FLAT_STRIDE


class NumpyBackend:
    """NumPy-backed implementation of the ``repro.xp`` contract."""

    name = "numpy"

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            raise AttributeError(attr)
        value = getattr(np, attr)
        object.__setattr__(self, attr, value)  # cache for next lookup
        return value

    # -- shims ----------------------------------------------------------

    def pack_bits(self, padded, word_bits: int):
        """LSB-first word packing of ``bool[n_rows, n_words * word_bits]``."""
        word_np = np.dtype(f"uint{word_bits}")
        # One pass along the bit axis: a fresh C-contiguous byte array,
        # so the word view needs no copy.
        return np.packbits(padded, axis=-1, bitorder="little").view(word_np)

    def unpack_bits(self, words, n_bits: int, word_bits: int):
        """Inverse of :meth:`pack_bits` (trailing padding dropped)."""
        del word_bits  # byte view is width-agnostic on numpy
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        if as_bytes.ndim == 1:
            bits = np.unpackbits(as_bytes, bitorder="little")
            return bits[:n_bits].astype(bool)
        bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
        return bits[..., :n_bits].astype(bool)

    def view_u8(self, arr):
        """Little-endian byte reinterpretation of an unsigned array."""
        return np.ascontiguousarray(arr).view(np.uint8)

    def scatter_or(self, target, idx, values) -> None:
        """Grouped in-place OR (duplicate indices accumulate)."""
        np.bitwise_or.at(target, idx, values)

    def divmod_(self, a, b):
        """Simultaneous floor quotient and remainder."""
        if (
            isinstance(b, int)
            and b > 0
            and not b & (b - 1)
            and isinstance(a, np.ndarray)
            and a.dtype.kind in "iu"
        ):
            # Every caller divides by a word width: for a power of two an
            # arithmetic shift and a mask give the same floor quotient and
            # remainder (negative values included), about 4x faster.
            return a >> (b.bit_length() - 1), a & (b - 1)
        return np.divmod(a, b)

    def popcount(self, arr):
        """Per-element population count."""
        return np.bitwise_count(arr)

    def checked_flat_stride(self, width):
        """``int64(width)`` guarded so flat keys ``u * width + v`` with
        ``u, v < width`` cannot wrap past 2^63."""
        width = int(width)
        if width > MAX_FLAT_STRIDE:
            raise OverflowError(
                f"flat edge keys overflow int64: width {width} exceeds "
                f"{MAX_FLAT_STRIDE}"
            )
        return np.int64(width)
