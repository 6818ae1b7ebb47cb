"""Shared low-level utilities: bit manipulation and validation."""

from repro.utils.bitops import (
    WORD_BITS,
    bitmap_words,
    pack_bool_rows,
    popcount,
    unpack_bitmap_rows,
)
from repro.utils.validation import (
    check_array_1d,
    check_nonnegative_int,
    check_positive_int,
)

__all__ = [
    "WORD_BITS",
    "bitmap_words",
    "pack_bool_rows",
    "popcount",
    "unpack_bitmap_rows",
    "check_array_1d",
    "check_nonnegative_int",
    "check_positive_int",
]
