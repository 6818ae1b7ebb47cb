"""Composable execution policies around the pipeline executor.

A *policy* decides how a workload is cut up, placed, retried, or bounded —
never how a stage computes.  The two drivers
(:func:`repro.runtime.resilient.run_resilient` and
:func:`repro.cluster.parallel.run_parallel`) compose them:

* :class:`ChunkingPolicy` — split a data range into memory-bounded
  chunks; the only chunk planner.
* :func:`partition_slices` — the static per-worker block partitioning of
  the pool driver (identical blocks ⇒ bitwise-equal aggregation
  regardless of worker count).
* :class:`RetryPolicy` — attempt bounds + exponential backoff with seeded
  jitter (the pool driver's retry schedule).
* :class:`MemoryBudgetPolicy` — derive chunk sizes from a device budget
  (:func:`chunk_size_for_budget`) and degrade on infeasibility
  (``run_resilient``'s sizing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WorkUnit:
    """One contiguous data-graph range ``[start, stop)``."""

    start: int
    stop: int

    @property
    def size(self) -> int:
        """Graphs covered by the unit."""
        return self.stop - self.start


@dataclass(frozen=True)
class ChunkingPolicy:
    """Fixed-size chunking of a data range (the memory-wall workaround)."""

    chunk_size: int

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    def units(self, start: int, stop: int) -> list[WorkUnit]:
        """Contiguous ``chunk_size`` ranges covering ``[start, stop)``."""
        return [
            WorkUnit(lo, min(lo + self.chunk_size, stop))
            for lo in range(start, stop, self.chunk_size)
        ]


def partition_slices(n_items: int, n_workers: int) -> list[tuple[int, int]]:
    """Static per-worker block partitioning of the pool driver.

    Blocks are ``ceil(n_items / n_workers)`` wide, so the cut points —
    and therefore the aggregation order — are a pure function of the
    inputs, which is what keeps parallel runs bitwise-equal to serial.
    """
    if n_items < 1:
        raise ValueError("at least one item is required")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    block = -(-n_items // n_workers)
    return [
        (start, min(start + block, n_items)) for start in range(0, n_items, block)
    ]


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

    max_attempts: int = 4
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


class BudgetInfeasible(ValueError):
    """No chunk size can satisfy the memory budget.

    Raised by :func:`chunk_size_for_budget` when even a single data graph's
    candidate-bitmap share exceeds the budget — chunking cannot help, the
    run needs a bigger device (or :class:`MemoryBudgetPolicy`'s
    degradation to single-graph chunks, which catches this error).
    """

    def __init__(self, message: str, required_bytes: int, budget_bytes: int) -> None:
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


def chunk_size_for_budget(
    n_query_nodes: int,
    mean_nodes_per_data_graph: float,
    budget_bytes: int,
    word_bits: int = 64,
    bitmap_share: float = 0.8,
) -> int:
    """Chunk size whose candidate bitmap fits a memory budget.

    Solves ``n_query_nodes * chunk_size * mean_nodes / 8 <= budget *
    bitmap_share`` (the bitmap is ~80 % of the footprint, section 5.1.3).

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
    usable = budget_bytes * bitmap_share
    size = int(usable // max(bytes_per_graph, 1e-9))
    if size < 1:
        raise BudgetInfeasible(
            f"a single data graph needs ~{bytes_per_graph:.0f} bitmap bytes "
            f"but only {usable:.0f} of {budget_bytes} are usable "
            f"(bitmap_share={bitmap_share})",
            required_bytes=int(bytes_per_graph),
            budget_bytes=int(budget_bytes),
        )
    return size


@dataclass(frozen=True)
class MemoryBudgetPolicy:
    """Chunk sizing under a device-memory budget, degrading to 1.

    ``auto_chunk_size`` mirrors the resilient driver's behavior: solve the
    bitmap-share inequality for the chunk size and, when even one average
    graph cannot fit, fall back to single-graph chunks and let the
    per-chunk lease decide which graphs truly cannot run.
    """

    capacity_bytes: int | None = None

    def auto_chunk_size(
        self,
        n_query_nodes: int,
        mean_nodes_per_data_graph: float,
        n_data: int,
        word_bits: int = 64,
    ) -> tuple[int, str | None]:
        """Chunk size for the budget plus a degradation note (or ``None``)."""
        if self.capacity_bytes is None:
            return n_data, None
        try:
            size = chunk_size_for_budget(
                max(n_query_nodes, 1),
                max(mean_nodes_per_data_graph, 1e-9),
                self.capacity_bytes,
                word_bits=word_bits,
            )
            return size, None
        except BudgetInfeasible as exc:
            return 1, str(exc)
