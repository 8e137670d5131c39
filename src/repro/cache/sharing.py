"""Contention and false-sharing accounting for multi-threaded runs.

When the mix scheduler interleaves tenant tick streams as simulated
threads, placement quality acquires a new axis: two threads whose data
share a cache line ping the line between cores regardless of how good
each thread's own locality is.  Allocators *cause* this — a free list
that hands thread B the other half of the line thread A's object sits in
manufactures false sharing; per-thread arenas exist to prevent it.

:class:`FalseSharingTracker` is a machine listener that watches the
event stream and attributes cache lines to threads:

* **allocation ownership** — each line covered by a live object belongs
  to the thread that allocated it; a line carrying live objects from two
  different threads is *false shared* (``false_sharing_lines``).  Line
  tenancy is reference-counted, so a line fully freed and later reused
  by another thread is re-owned, not miscounted — only genuinely
  concurrent co-tenancy counts;
* **access sharing** — a line touched by two different threads while its
  tenancy persists is *shared* (``shared_lines``), and every touch of a
  line the toucher does not own is a ``cross_thread_access`` — the
  contention proxy (coherence traffic in a real machine).

Single-threaded runs (every existing workload) keep all counters at
zero (``threads_seen`` is 1); the tracker only ever *observes*, so measurements are
unchanged whether it is attached or not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..allocators.base import CACHE_LINE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.heap import HeapObject
    from ..machine.machine import Machine

from ..machine.events import Listener


class FalseSharingTracker(Listener):
    """Listener attributing cache lines to the threads that own and touch them."""

    def __init__(self, line_size: int = CACHE_LINE) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line size must be a power of two, got {line_size}")
        self._shift = line_size.bit_length() - 1
        # line -> [owning thread (-1 once co-tenanted), live-object refcount]
        self._tenancy: dict[int, list[int]] = {}
        # line -> first-touching thread (-1 once another thread touched it);
        # entries die with their line's tenancy, so reuse re-owns cleanly.
        self._touched: dict[int, int] = {}
        #: Threads that allocated at least once.
        self.threads: set[int] = set()
        self.false_sharing_lines = 0
        self.shared_lines = 0
        self.cross_thread_accesses = 0

    # -- tenancy and touches (also driven directly by the columnar engine) --

    def claim(self, addr: int, size: int, thread: int) -> None:
        """*thread* places a live object over ``[addr, addr + size)``."""
        shift = self._shift
        tenancy = self._tenancy
        for line in range(addr >> shift, (addr + size - 1 >> shift) + 1):
            entry = tenancy.get(line)
            if entry is None:
                tenancy[line] = [thread, 1]
                continue
            entry[1] += 1
            if entry[0] not in (thread, -1):
                entry[0] = -1
                self.false_sharing_lines += 1

    def alloc(self, addr: int, size: int, thread: int) -> None:
        """*thread* allocated ``[addr, addr + size)``."""
        self.threads.add(thread)
        self.claim(addr, size, thread)

    def release(self, addr: int, size: int) -> None:
        """The live object over ``[addr, addr + size)`` went away."""
        shift = self._shift
        tenancy = self._tenancy
        for line in range(addr >> shift, (addr + size - 1 >> shift) + 1):
            entry = tenancy.get(line)
            if entry is None:
                continue
            entry[1] -= 1
            if entry[1] <= 0:
                del tenancy[line]
                self._touched.pop(line, None)

    def touch(self, addr: int, size: int, thread: int) -> None:
        """*thread* loaded or stored ``[addr, addr + size)``."""
        shift = self._shift
        touched = self._touched
        for line in range(addr >> shift, (addr + size - 1 >> shift) + 1):
            owner = touched.get(line)
            if owner is None:
                touched[line] = thread
            elif owner != thread:
                self.cross_thread_accesses += 1
                if owner != -1:
                    touched[line] = -1
                    self.shared_lines += 1

    # -- listener hooks ---------------------------------------------------

    def on_alloc(self, machine: "Machine", obj: "HeapObject") -> None:
        self.alloc(obj.addr, obj.size, machine.thread_id)

    def on_free(self, machine: "Machine", obj: "HeapObject") -> None:
        self.release(obj.addr, obj.size)

    def on_realloc(
        self, machine: "Machine", obj: "HeapObject", old_addr: int, old_size: int
    ) -> None:
        self.release(old_addr, old_size)
        self.claim(obj.addr, obj.size, machine.thread_id)

    def on_access(
        self,
        machine: "Machine",
        obj: "HeapObject",
        offset: int,
        size: int,
        is_store: bool,
    ) -> None:
        self.touch(obj.addr + offset, size, machine.thread_id)

    # -- harvest ----------------------------------------------------------

    def as_counters(self) -> dict[str, int]:
        """Integer counters for the observability harvest (``measure.cache.*``)."""
        return {
            "false_sharing_lines": self.false_sharing_lines,
            "shared_lines": self.shared_lines,
            "cross_thread_accesses": self.cross_thread_accesses,
            "threads_seen": len(self.threads),
        }


__all__ = ["FalseSharingTracker"]
