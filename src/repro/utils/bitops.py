"""Word-packed bitmap primitives.

SIGMo stores candidate sets as row-major arrays of unsigned integer words,
one bit per data node (paper section 4.3).  These helpers implement the
pack/unpack/popcount operations shared by the candidate bitmaps, the GMCR
match booleans and the device simulator's memory transaction accounting.

All functions go through the :mod:`repro.xp` backend namespace and are
fully vectorized; none of the hot paths loop in Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import xp
from repro.analysis.markers import kernel

if TYPE_CHECKING:
    import numpy as np

#: Number of bits per bitmap word.  The paper tunes this per device
#: (32-bit on NVIDIA/Intel, 64-bit on AMD; Table 1); 64 is the library
#: default because NumPy's uint64 ops are the fastest on CPU.
WORD_BITS = 64

_WORD_DTYPES = {8: "uint8", 16: "uint16", 32: "uint32", 64: "uint64"}


def word_dtype(word_bits: int = WORD_BITS) -> np.dtype:
    """Return the backend dtype for a given bitmap word width.

    Parameters
    ----------
    word_bits:
        Width of a bitmap word in bits; one of 8, 16, 32, 64.
    """
    try:
        return xp.dtype(getattr(xp, _WORD_DTYPES[word_bits]))
    except KeyError:
        raise ValueError(
            f"word_bits must be one of {sorted(_WORD_DTYPES)}, got {word_bits}"
        ) from None


def bitmap_words(n_bits: int, word_bits: int = WORD_BITS) -> int:
    """Number of words needed to hold ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be >= 0, got {n_bits}")
    return -(-n_bits // word_bits)


@kernel(writes=())
def pack_bool_rows(rows: np.ndarray, word_bits: int = WORD_BITS) -> np.ndarray:
    """Pack a 2-D boolean array into row-major bitmap words.

    Bit ``j`` of row ``i`` is stored in word ``j // word_bits`` at bit
    position ``j % word_bits`` (LSB-first), matching the layout in paper
    Fig. 4 where consecutive data nodes occupy consecutive bits.

    Parameters
    ----------
    rows:
        Boolean array of shape ``(n_rows, n_bits)``.
    word_bits:
        Bitmap word width.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n_rows, bitmap_words(n_bits))`` with unsigned
        integer dtype of the requested width.
    """
    rows = xp.asarray(rows, dtype=xp.bool_)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    n_rows, n_bits = rows.shape
    n_words = bitmap_words(n_bits, word_bits)
    if n_rows == 0 or n_words == 0:
        return xp.zeros((n_rows, n_words), dtype=word_dtype(word_bits))
    padded = xp.zeros((n_rows, n_words * word_bits), dtype=xp.bool_)
    padded[:, :n_bits] = rows
    packed = xp.pack_bits(padded, word_bits)
    if packed.shape != (n_rows, n_words):  # pragma: no cover - layout guard
        raise AssertionError("bitmap packing produced unexpected shape")
    return packed


def unpack_bitmap_rows(
    words: np.ndarray, n_bits: int, word_bits: int = WORD_BITS
) -> np.ndarray:
    """Inverse of :func:`pack_bool_rows`.

    Parameters
    ----------
    words:
        Packed bitmap of shape ``(n_rows, n_words)``.
    n_bits:
        Number of valid bits per row (trailing padding is dropped).
    word_bits:
        Bitmap word width used when packing.
    """
    words = xp.asarray(words)
    if words.ndim != 2:
        raise ValueError(f"words must be 2-D, got shape {words.shape}")
    return xp.unpack_bits(words, n_bits, word_bits)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element population count of an unsigned integer array."""
    return xp.popcount(xp.asarray(words))


def row_popcount(words: np.ndarray) -> np.ndarray:
    """Total set bits per row of a packed bitmap."""
    words = xp.asarray(words)
    if words.ndim != 2:
        raise ValueError(f"words must be 2-D, got shape {words.shape}")
    return popcount(words).sum(axis=1, dtype=xp.int64)


def ragged_at(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``starts[i] + arange(sizes[i])``, in order.

    Gathers the words a bit range covers and the ragged per-slot columns
    of the fused join table in one fancy index.
    """
    ends = xp.cumsum(sizes)
    total = int(ends[-1]) if ends.size else 0
    return xp.arange(total, dtype=xp.int64) + xp.repeat(starts - ends + sizes, sizes)


@kernel(writes=("words",))
def set_bits(
    words: np.ndarray, row: int, positions: np.ndarray, word_bits: int = WORD_BITS
) -> None:
    """Set bits at ``positions`` in ``words[row]`` in place.

    Mirrors the atomic-OR updates in the GPU bitmap (section 4.3); on the
    NumPy substrate a grouped ``xp.scatter_or`` is the moral equivalent.
    """
    positions = xp.asarray(positions, dtype=xp.int64)
    if positions.size == 0:
        return
    dtype = words.dtype
    word_idx = positions // word_bits
    bit_idx = positions % word_bits
    values = (xp.uint64(1) << bit_idx.astype(xp.uint64)).astype(dtype)
    xp.scatter_or(words[row], word_idx, values)


def test_bit(
    words: np.ndarray, row: int, position: int, word_bits: int = WORD_BITS
) -> bool:
    """Return whether bit ``position`` of row ``row`` is set."""
    word = int(words[row, position // word_bits])
    return bool((word >> (position % word_bits)) & 1)
