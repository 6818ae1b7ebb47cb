"""``repro.xp`` — the pluggable array namespace every kernel goes through.

Kernel modules write ``from repro import xp`` and call ``xp.zeros(...)``
etc.; module-level ``__getattr__`` forwards each access to the backend
active in the current context (:func:`use_backend`), so the same kernel
source runs on NumPy today and on a device library tomorrow.  The legal
call surface is pinned by :mod:`repro.xp.contract` and enforced
statically by the SGL014 ``backend-unportable`` gate.

Two backends register at import time:

* ``numpy`` (default) — bitwise-identical to the historical kernels.
* ``instrumented`` — numpy wrapped in per-op call/byte counters with
  dtype strictness.

Further backends register with :func:`register_backend`; the recipe is
in ``docs/backends.md``.
"""

from __future__ import annotations

from repro.xp.contract import (
    ARRAY_API_FUNCTIONS,
    DTYPE_ATTRS,
    MAX_FLAT_STRIDE,
    SHIM_FUNCTIONS,
    XP_FUNCTIONS,
)
from repro.xp.instrumented import BackendStrictnessError, InstrumentedBackend
from repro.xp.numpy_backend import NumpyBackend
from repro.xp.registry import (
    BackendError,
    backend_name,
    backend_names,
    current_backend,
    get_backend,
    register_backend,
    use_backend,
)

__all__ = [
    "ARRAY_API_FUNCTIONS",
    "BackendError",
    "BackendStrictnessError",
    "DTYPE_ATTRS",
    "InstrumentedBackend",
    "MAX_FLAT_STRIDE",
    "NumpyBackend",
    "SHIM_FUNCTIONS",
    "XP_FUNCTIONS",
    "backend_name",
    "backend_names",
    "current_backend",
    "get_backend",
    "register_backend",
    "use_backend",
]

register_backend(NumpyBackend())
register_backend(InstrumentedBackend())


def __getattr__(name: str):
    """Forward array calls (``xp.zeros`` ...) to the active backend."""
    return getattr(current_backend(), name)
