"""The ``instrumented`` backend: the numpy backend wrapped in counters.

Every contract call is tallied (call count + bytes produced) and
allocation ops must pass an explicit ``dtype`` — so running the parity
suite on this backend simultaneously proves the registry is actually
consulted (no host-side NumPy leaks: leaked ``np.*`` calls don't show up
in the counters) and that kernels never rely on NumPy's default dtypes
(which differ across device libraries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.xp.contract import DTYPE_ATTRS
from repro.xp.numpy_backend import NumpyBackend

#: Allocation ops whose default dtype differs between array libraries;
#: the strict mode requires callers to spell the dtype out.
STRICT_DTYPE_OPS = frozenset({"zeros", "ones", "empty", "full", "arange"})


class BackendStrictnessError(TypeError):
    """A kernel relied on an implicit default dtype."""


@dataclass
class OpStats:
    """Tally for one contract op."""

    calls: int = 0
    bytes: int = 0


def _result_bytes(out: object) -> int:
    if isinstance(out, np.ndarray):
        return out.nbytes
    if isinstance(out, tuple):
        return sum(o.nbytes for o in out if isinstance(o, np.ndarray))
    return 0


class InstrumentedBackend:
    """Counting/strictness wrapper around another backend (numpy by
    default).  Dtype attributes pass through unwrapped so ``dtype=
    xp.int64`` and scalar construction keep working."""

    name = "instrumented"

    def __init__(
        self, inner: object | None = None, *, strict_dtypes: bool = True
    ) -> None:
        self._inner = inner if inner is not None else NumpyBackend()
        self._strict_dtypes = strict_dtypes
        self._counters: dict[str, OpStats] = {}

    # -- counters -------------------------------------------------------

    def reset(self) -> None:
        """Zero all counters."""
        self._counters.clear()

    def op_counts(self) -> dict[str, tuple[int, int]]:
        """Snapshot: op name -> (calls, bytes produced)."""
        return {
            name: (stats.calls, stats.bytes)
            for name, stats in sorted(self._counters.items())
        }

    def total_calls(self) -> int:
        """Contract calls since the last :meth:`reset`."""
        return sum(stats.calls for stats in self._counters.values())

    def _tally(self, name: str, out: object) -> None:
        stats = self._counters.setdefault(name, OpStats())
        stats.calls += 1
        stats.bytes += _result_bytes(out)

    # -- dispatch -------------------------------------------------------

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            raise AttributeError(attr)
        target = getattr(self._inner, attr)
        if attr in DTYPE_ATTRS or not callable(target):
            return target

        def wrapper(*args, **kwargs):
            if (
                self._strict_dtypes
                and attr in STRICT_DTYPE_OPS
                and len(args) < 2
                and kwargs.get("dtype") is None
            ):
                raise BackendStrictnessError(
                    f"xp.{attr} called without an explicit dtype; default "
                    "dtypes differ across array backends"
                )
            out = target(*args, **kwargs)
            self._tally(attr, out)
            return out

        wrapper.__name__ = attr
        object.__setattr__(self, attr, wrapper)  # cache for next lookup
        return wrapper
