"""Execution-event interface between the machine and its observers.

The Pin tool in the paper observes three kinds of program behaviour: calls to
memory-management functions, cross-function control transfers, and heap loads
and stores.  The :class:`Machine` delivers exactly these to any number of
registered listeners.  The profiler (:mod:`repro.profiling`) is one listener;
the measurement harness installs others (e.g. peak-memory trackers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .heap import HeapObject
    from .machine import Machine
    from .program import CallSite


class Listener:
    """Base class for machine-event observers.  All hooks default to no-ops.

    Subclass and override the hooks of interest.  Hooks receive the machine
    so they can inspect the live call stack (the profiler reads it to form
    allocation contexts).
    """

    def on_call(self, machine: "Machine", site: "CallSite") -> None:
        """Control entered *site* (the call instruction executed)."""

    def on_return(self, machine: "Machine", site: "CallSite") -> None:
        """Control returned past *site*."""

    def on_alloc(self, machine: "Machine", obj: "HeapObject") -> None:
        """A heap object was allocated."""

    def on_free(self, machine: "Machine", obj: "HeapObject") -> None:
        """A heap object was freed (still carries its final addr/size)."""

    def on_realloc(
        self, machine: "Machine", obj: "HeapObject", old_addr: int, old_size: int
    ) -> None:
        """A heap object was reallocated (obj already has its new placement)."""

    def on_access(
        self,
        machine: "Machine",
        obj: "HeapObject",
        offset: int,
        size: int,
        is_store: bool,
    ) -> None:
        """A load or store hit *size* bytes at *offset* within *obj*."""

    def on_work(self, machine: "Machine", cycles: float) -> None:
        """The workload accounted *cycles* of non-memory compute.

        Needed by observers that reconstruct complete executions (the
        event-trace recorder): compute cycles are part of the cost model, so
        a replay that dropped them could not reproduce measured cycle
        counts.
        """

    def on_thread(self, machine: "Machine", thread_id: int) -> None:
        """The simulated executing thread switched to *thread_id*.

        ``machine.thread_id`` already holds the new value.  The event-trace
        recorder stores switches so replays route heap ops to the right
        per-thread arena.
        """

    def on_finish(self, machine: "Machine") -> None:
        """The workload finished executing."""
