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
        """Grouped in-place OR (duplicate indices accumulate).

        Rows of values (``values.ndim >= 2``, one row per index) are
        OR-ed per index with one ``np.bitwise_or.reduceat`` over the rows
        in stable index order, then stored once per distinct index: about
        2x faster than ``np.bitwise_or.at`` on the refine kernel's group
        unions.  Scalar values (the signature BFS, ``set_bits``) keep
        ``np.bitwise_or.at``, whose 1-D loop is faster there, and so do
        empty, negative and broadcast indices.
        """
        idx = np.asarray(idx)
        values = np.asarray(values)
        if (
            values.ndim < 2
            or idx.ndim != 1
            or idx.shape[0] == 0
            or values.shape[0] != idx.shape[0]
        ):
            np.bitwise_or.at(target, idx, values)
            return
        order = np.argsort(idx, kind="stable")
        ordered = idx[order]
        if ordered[0] < 0:
            np.bitwise_or.at(target, idx, values)
            return
        starts = np.flatnonzero(
            np.concatenate(([True], ordered[1:] != ordered[:-1]))
        )
        target[ordered[starts]] |= np.bitwise_or.reduceat(
            values[order], starts, axis=0
        )

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
