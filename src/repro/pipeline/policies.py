"""Execution policies around the one pipeline call.

A *policy* decides how a workload is cut up, retried, or bounded — never
how a stage computes.  The one chunk loop
(:func:`repro.runtime.resilient.run_resilient`, serial or pooled)
composes them:

* :func:`chunk_ranges` — the one range planner: contiguous fixed-width
  ranges, whichever process runs each one.
* :class:`RetryPolicy` — attempt bounds + exponential backoff with seeded
  jitter (the chunk loop's and the matching service's retry schedule).
* :func:`chunk_size_for_budget` — the chunk size whose candidate bitmap
  fits a device budget, raising :class:`BudgetInfeasible` when even one
  graph cannot fit (``run_resilient`` degrades to single-graph chunks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def chunk_ranges(start: int, stop: int, size: int) -> list[tuple[int, int]]:
    """Contiguous ``size``-wide ranges covering ``[start, stop)``.

    The one range planner: the chunk loop cuts every uncovered gap into
    chunks with it.  The cut points — and so the aggregation order and
    each chunk's work counters — are a pure function of the inputs and
    the chunk size, never of the worker count.

    Examples
    --------
    >>> chunk_ranges(0, 25, 10)
    [(0, 10), (10, 20), (20, 25)]
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    return [(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt bound plus exponential backoff with seeded jitter.

    ``jitter`` spreads each unit's retry delay uniformly over
    ``[base, base * (1 + jitter)]`` so simultaneously failed units don't
    re-dispatch in lockstep (the retry-storm synchronization problem).
    The draw is a pure function of ``(seed, unit, attempt)`` — the same
    decision-function discipline as :class:`~repro.runtime.faults.
    FaultPlan` — so faulted runs stay bit-for-bit replayable.
    """

    max_attempts: int = 5
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError(
                "backoff_base must be >= 0 and backoff_factor >= 1"
            )
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def delay(self, attempt: int, unit: int = 0) -> float:
        """Seconds to wait before retry number ``attempt`` (0 ⇒ no wait)."""
        if not attempt:
            return 0.0
        base = self.backoff_base * self.backoff_factor**attempt
        if base == 0.0 or self.jitter == 0.0:
            return base
        draw = float(np.random.default_rng([self.seed, unit, attempt]).random())
        return base * (1.0 + self.jitter * draw)

    def exhausted(self, attempt: int) -> bool:
        """Whether ``attempt`` (0-based) is past the allowed bound."""
        return attempt >= self.max_attempts


#: Share of a chunk's device footprint the candidate bitmap takes (~80 %,
#: paper section 5.1.3).
BITMAP_SHARE = 0.8


class BudgetInfeasible(ValueError):
    """No chunk size can satisfy the memory budget.

    Raised by :func:`chunk_size_for_budget` when even a single data graph's
    candidate-bitmap share exceeds the budget — chunking cannot help, the
    run needs a bigger device (or the resilient driver's degradation to
    single-graph chunks, which catches this error).
    """

    def __init__(self, message: str, required_bytes: int, budget_bytes: int) -> None:
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


def chunk_size_for_budget(
    n_query_nodes: int,
    mean_nodes_per_data_graph: float,
    budget_bytes: int,
) -> int:
    """Chunk size whose candidate bitmap fits a memory budget.

    Solves ``n_query_nodes * chunk_size * mean_nodes / 8 <= budget *
    BITMAP_SHARE``.

    Raises
    ------
    BudgetInfeasible
        When even a single graph's bitmap share exceeds the budget; a
        chunk size of 1 would still OOM, so returning it silently would
        only defer the failure to the device.
    """
    if budget_bytes <= 0:
        raise ValueError("budget_bytes must be > 0")
    if n_query_nodes <= 0 or mean_nodes_per_data_graph <= 0:
        raise ValueError("node counts must be > 0")
    bytes_per_graph = n_query_nodes * mean_nodes_per_data_graph / 8
    usable = budget_bytes * BITMAP_SHARE
    size = int(usable // max(bytes_per_graph, 1e-9))
    if size < 1:
        raise BudgetInfeasible(
            f"a single data graph needs ~{bytes_per_graph:.0f} bitmap bytes "
            f"but only {usable:.0f} of {budget_bytes} are usable "
            f"(bitmap_share={BITMAP_SHARE})",
            required_bytes=int(bytes_per_graph),
            budget_bytes=int(budget_bytes),
        )
    return size
