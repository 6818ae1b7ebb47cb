"""Device memory accounting with out-of-memory semantics.

The candidate bitmap dominates SIGMo's footprint (|V_Q| x |V_D| / 8 bytes,
~80 % of ~1 GB at benchmark scale, paper section 5.1.3), and the single-GPU
scaling study (Fig. 12) ends where the V100S's 32 GB run out.  This
allocator reproduces that accounting: named allocations against a capacity,
with peak tracking and a typed OOM error.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from repro.device.spec import DeviceSpec


class DeviceOutOfMemory(MemoryError):
    """An allocation exceeded the simulated device capacity."""

    def __init__(self, message: str, requested: int, available: int) -> None:
        super().__init__(message)
        self.requested = requested
        self.available = available

    def __reduce__(self):
        # default Exception pickling would replay only args[0]; crossing a
        # process pool must preserve the sizes
        return (type(self), (self.args[0], self.requested, self.available))


class DeviceMemory:
    """Named-allocation tracker for one device.

    Parameters
    ----------
    device:
        Device spec providing the capacity, or use ``capacity_bytes``.
    capacity_bytes:
        Explicit capacity override.
    reserve_fraction:
        Share of VRAM reserved for the runtime/driver (not allocatable) —
        real devices never expose their full capacity.
    """

    def __init__(
        self,
        device: DeviceSpec | None = None,
        capacity_bytes: int | None = None,
        reserve_fraction: float = 0.06,
    ) -> None:
        if capacity_bytes is None:
            if device is None:
                raise ValueError("provide a device or capacity_bytes")
            capacity_bytes = device.vram_bytes
        if not 0 <= reserve_fraction < 1:
            raise ValueError("reserve_fraction must be in [0, 1)")
        self.capacity = int(capacity_bytes * (1 - reserve_fraction))
        self.allocations: OrderedDict[str, int] = OrderedDict()
        self.peak = 0

    @property
    def used(self) -> int:
        """Currently allocated bytes."""
        return sum(self.allocations.values())

    @property
    def available(self) -> int:
        """Bytes still allocatable."""
        return self.capacity - self.used

    def allocate(self, name: str, nbytes: int) -> None:
        """Allocate ``nbytes`` under ``name``; raises on OOM or reuse."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if name in self.allocations:
            raise ValueError(f"allocation {name!r} already exists")
        if nbytes > self.available:
            raise DeviceOutOfMemory(
                f"cannot allocate {nbytes} bytes for {name!r}: "
                f"{self.available} available of {self.capacity}",
                requested=int(nbytes),
                available=self.available,
            )
        self.allocations[name] = int(nbytes)
        self.peak = max(self.peak, self.used)

    def free(self, name: str) -> None:
        """Release a named allocation."""
        try:
            del self.allocations[name]
        except KeyError:
            raise KeyError(f"no allocation named {name!r}") from None

    def would_fit(self, nbytes: int) -> bool:
        """Whether an allocation of ``nbytes`` would currently succeed."""
        return nbytes <= self.available

    def report(self) -> dict[str, int]:
        """Copy of the live allocation table."""
        return dict(self.allocations)


class DeviceMemoryPool:
    """Shared-capacity allocator handing out transactional leases.

    The resilient runtime (:mod:`repro.runtime`) takes one :meth:`lease`
    per chunk attempt before dispatching it: the chunk's predicted
    allocations are claimed (raising :class:`DeviceOutOfMemory` *before*
    any work is done when the chunk cannot fit) and released at once, as
    if the chunk ran alone — every pool worker models its own device —
    so no allocation ever leaks between chunks.  Peak usage is tracked across leases, reproducing the
    "largest chunk footprint" bound that chunking buys (Fig. 12).
    """

    def __init__(
        self,
        device: DeviceSpec | None = None,
        capacity_bytes: int | None = None,
        reserve_fraction: float = 0.06,
    ) -> None:
        self._memory = DeviceMemory(device, capacity_bytes, reserve_fraction)
        self._lease_counter = 0

    @property
    def capacity(self) -> int:
        """Allocatable bytes (after the driver reserve)."""
        return self._memory.capacity

    @property
    def used(self) -> int:
        """Bytes currently held by live leases."""
        return self._memory.used

    @property
    def available(self) -> int:
        """Bytes a new lease could still claim."""
        return self._memory.available

    @property
    def peak(self) -> int:
        """High-water mark across all leases so far."""
        return self._memory.peak

    def would_fit(self, allocations: dict[str, int]) -> bool:
        """Whether a lease over ``allocations`` would currently succeed."""
        return self._memory.would_fit(sum(allocations.values()))

    @contextmanager
    def lease(self, allocations: dict[str, int], tag: str = "") -> Iterator[dict[str, int]]:
        """Claim ``allocations`` for the duration of the ``with`` block.

        Names are prefixed with a unique lease id (and ``tag`` when given)
        so concurrent or nested leases never collide.  If any allocation
        fails, the ones already claimed are rolled back before the
        :class:`DeviceOutOfMemory` propagates.
        """
        self._lease_counter += 1
        prefix = f"lease{self._lease_counter}{'/' + tag if tag else ''}"
        claimed: list[str] = []
        try:
            for name in sorted(allocations):
                full = f"{prefix}/{name}"
                self._memory.allocate(full, allocations[name])
                claimed.append(full)
            yield dict(allocations)
        finally:
            for full in claimed:
                self._memory.free(full)


def sigmo_footprint_bytes(
    n_query_nodes: int,
    n_data_nodes: int,
    n_data_adjacency: int,
    n_query_adjacency: int = 0,
    word_bits: int = 64,
) -> dict[str, int]:
    """Predicted device allocations of a SIGMo run (section 5.1.3).

    Returns a name -> bytes mapping suitable for :class:`DeviceMemory`:
    the candidate bitmap at ``|V_Q| * |V_D| / 8`` bytes, CSR-GO structures,
    and one packed 64-bit signature per node per side.
    """
    words_per_row = -(-n_data_nodes // word_bits)
    return {
        "candidate_bitmap": n_query_nodes * words_per_row * (word_bits // 8),
        "data_csrgo": n_data_nodes * (8 + 4) + n_data_adjacency * (4 + 4),
        "query_csrgo": n_query_nodes * (8 + 4) + n_query_adjacency * (4 + 4),
        "signatures": (n_query_nodes + n_data_nodes) * 8,
    }
