"""The ``repro.xp`` call contract: what a backend must provide.

This module is pure data (no numpy import) so the static analyzer
(:mod:`repro.analysis.dataflow.surface`) can share the exact same sets
the runtime backends are built from.  A kernel-reachable call through an
``xp`` alias is *portable* iff its name appears here; everything else —
including any direct ``np.*`` call — fails the SGL014 backend gate.

Three tiers:

* :data:`ARRAY_API_FUNCTIONS` — the array-API subset the kernels use
  (2023 standard core plus the repro-accepted extras), provided 1:1 by
  NumPy/CuPy and trivially adapted for torch.
* :data:`SHIM_FUNCTIONS` — the explicit shims covering the historically
  unportable call sites (``docs/backend_surface.md`` before the
  migration): bit packing/unpacking, byte reinterpretation, scatter-OR,
  ``divmod``, popcount and the overflow-guarded flat-key stride.
* :data:`DTYPE_ATTRS` — dtype objects exposed as plain attributes
  (usable both as ``dtype=xp.int64`` and as scalar constructors).
"""

from __future__ import annotations

#: Array-API subset accepted in kernel code.  Core of the 2023 array API
#: standard plus the repro-accepted extras listed at the end.
ARRAY_API_FUNCTIONS = frozenset(
    {
        # creation
        "zeros", "ones", "empty", "full",
        "zeros_like", "ones_like", "empty_like", "full_like",
        "arange", "asarray", "linspace", "eye",
        # manipulation
        "reshape", "ravel", "concatenate", "concat", "stack", "repeat",
        "tile", "broadcast_to", "expand_dims", "squeeze", "flip", "roll",
        # search / sort / set
        "nonzero", "flatnonzero", "unique", "unique_values", "searchsorted",
        "sort", "argsort", "argmax", "argmin", "where", "isin", "take",
        # reductions
        "sum", "prod", "cumsum", "cumulative_sum", "max", "min", "mean",
        "all", "any", "count_nonzero",
        # elementwise
        "add", "subtract", "multiply", "divide", "floor_divide", "mod",
        "remainder", "abs", "sign", "sqrt", "clip", "maximum", "minimum",
        "equal", "not_equal", "less", "less_equal", "greater",
        "greater_equal", "logical_and", "logical_or", "logical_not",
        "logical_xor", "bitwise_and", "bitwise_or", "bitwise_xor",
        "bitwise_invert", "invert", "left_shift", "right_shift",
        "matmul",
        # dtype machinery
        "dtype", "result_type", "can_cast", "finfo", "iinfo", "astype",
        "bool_", "int8", "int16", "int32", "int64", "uint8", "uint16",
        "uint32", "uint64", "float32", "float64", "intp", "uintp",
        # repro-accepted extras: contiguity is provided by every candidate
        # backend (CuPy native, torch via .contiguous()), and diff/bincount
        # have one-line ports.
        "ascontiguousarray", "diff", "bincount",
    }
)

#: Explicit backend shims for the historically unportable call sites.
SHIM_FUNCTIONS = frozenset(
    {
        # LSB-first word packing (was np.packbits + .view)
        "pack_bits",
        # inverse (was .view(uint8) + np.unpackbits)
        "unpack_bits",
        # byte reinterpretation of a contiguous unsigned array (was .view)
        "view_u8",
        # grouped in-place OR (was np.bitwise_or.at)
        "scatter_or",
        # simultaneous quotient/remainder (was np.divmod)
        "divmod_",
        # per-element population count (was np.bitwise_count)
        "popcount",
        # int64 flat-key stride with a 2^63 overflow guard
        "checked_flat_stride",
    }
)

#: Dtype objects every backend exposes as attributes.  They double as
#: scalar constructors (``xp.uint64(1)``), so the instrumented backend
#: must hand them through unwrapped.
DTYPE_ATTRS = frozenset(
    {
        "bool_", "int8", "int16", "int32", "int64", "uint8", "uint16",
        "uint32", "uint64", "float32", "float64", "intp", "uintp",
    }
)

#: Every callable name a kernel may reach through ``xp``.
XP_FUNCTIONS = ARRAY_API_FUNCTIONS | SHIM_FUNCTIONS

#: Flat edge keys are ``u * width + v`` with ``u, v < width``; the stride
#: is safe iff ``width**2`` fits a signed 64-bit integer.
MAX_FLAT_STRIDE = 3_037_000_499  # floor(sqrt(2**63 - 1))
