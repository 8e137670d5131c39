"""Heap-object handles used by the simulated machine.

Workload code manipulates :class:`HeapObject` handles rather than raw
addresses; the handle records the address assigned by whichever allocator is
in force, the request size, and bookkeeping the profiler needs (allocation
sequence number, liveness).  This mirrors what the Pin tool in the paper
reconstructs by interposing on the POSIX.1 memory-management functions:
"tracking live data at an object-level granularity" (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class HeapError(Exception):
    """Raised on invalid heap operations (double free, use-after-free...)."""


@dataclass(slots=True)
class HeapObject:
    """A live (or once-live) heap allocation.

    Attributes:
        oid: Stable object identity, unique per machine run.
        addr: Current base address (changes across ``realloc``).
        size: Current size in bytes.
        alloc_seq: Global allocation sequence number (chronological order of
            allocations; used by the co-allocatability constraint).
        alive: False once freed.
    """

    oid: int
    addr: int
    size: int
    alloc_seq: int
    alive: bool = True

    def check_alive(self) -> None:
        """Raise :class:`HeapError` if this object has been freed."""
        if not self.alive:
            raise HeapError(f"use of freed object #{self.oid}")

    def end(self) -> int:
        """One past the last byte of the object."""
        return self.addr + self.size


class ObjectTable:
    """Tracks live heap objects by address.

    The table enforces basic heap discipline (no double frees, no overlapping
    live objects at the same base address) and provides address → object
    lookup for diagnostics.
    """

    def __init__(self) -> None:
        self._by_addr: dict[int, HeapObject] = {}
        self._next_oid = 0
        self._next_seq = 0
        self.live_count = 0
        self.total_allocated = 0

    def create(self, addr: int, size: int) -> HeapObject:
        """Register a new allocation at *addr* of *size* bytes."""
        if addr in self._by_addr:
            raise HeapError(f"allocator returned in-use address {addr:#x}")
        obj = HeapObject(self._next_oid, addr, size, self._next_seq)
        self._next_oid += 1
        self._next_seq += 1
        self._by_addr[addr] = obj
        self.live_count += 1
        self.total_allocated += 1
        return obj

    def destroy(self, obj: HeapObject) -> None:
        """Mark *obj* freed and release its address slot.

        A freed object is never registered, so the registration check also
        rejects a double free; liveness is only examined to name the error.
        """
        if self._by_addr.get(obj.addr) is not obj:
            obj.check_alive()
            raise HeapError(f"object #{obj.oid} is not registered at {obj.addr:#x}")
        del self._by_addr[obj.addr]
        obj.alive = False
        self.live_count -= 1

    def move(self, obj: HeapObject, new_addr: int, new_size: int) -> None:
        """Relocate *obj* (realloc support); rejects a freed or foreign object."""
        if self._by_addr.get(obj.addr) is not obj:
            obj.check_alive()
            raise HeapError(f"object #{obj.oid} is not registered at {obj.addr:#x}")
        if new_addr != obj.addr and new_addr in self._by_addr:
            raise HeapError(f"realloc target {new_addr:#x} is in use")
        del self._by_addr[obj.addr]
        obj.addr = new_addr
        obj.size = new_size
        self._by_addr[new_addr] = obj

    def at(self, addr: int) -> Optional[HeapObject]:
        """Return the live object based at *addr*, if any."""
        return self._by_addr.get(addr)

    def live_objects(self) -> list[HeapObject]:
        """All currently live objects (unspecified order)."""
        return list(self._by_addr.values())
