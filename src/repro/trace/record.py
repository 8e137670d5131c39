"""Recording machine executions into event traces.

:class:`TraceRecorder` is a :class:`~repro.machine.events.Listener`: attach
it to any :class:`~repro.machine.machine.Machine` and it streams every
event — calls, returns, allocations, reallocations, frees, heap accesses,
compute work — and every simulated-thread switch into the columns of a
:class:`~repro.trace.format.TraceWriter`.  This is the analogue of the
paper's Pin tool attaching to a live process (Section 4.1), except the
"process" is the simulated machine.

:func:`record_workload` is the one-call convenience used by the harness
and CLI: run a named workload once under a recorder and return the trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..machine.events import Listener
from .format import (
    OP_ALLOC,
    OP_CALL,
    OP_FREE,
    OP_LOAD,
    OP_REALLOC,
    OP_RETURN,
    OP_STORE,
    OP_WORK,
    EventTrace,
    TraceWriter,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.heap import HeapObject
    from ..machine.machine import Machine
    from ..machine.program import CallSite
    from ..workloads.base import Workload


class TraceRecorder(Listener):
    """Listener that captures the complete event stream of one execution.

    The recorder is single-use: after the machine's ``finish`` fires (or
    after an explicit :meth:`close`), the completed trace is available as
    :attr:`trace`.

    Args:
        workload: Workload name stored in the trace header.
        scale: Input scale the workload runs at.
        seed: Address-space seed of the recorded run (informational only —
            the event stream is placement-independent).
        program: Program name stored in the trace header.
    """

    def __init__(
        self,
        workload: str = "",
        scale: str = "test",
        seed: int = 0,
        program: str = "",
    ) -> None:
        self.writer = writer = TraceWriter(
            workload=workload, scale=scale, seed=seed, program=program
        )
        self.trace: Optional[EventTrace] = None
        # The hooks append straight onto the writer's columns.
        self._kinds = writer._kinds
        self._op_a = writer._op_a
        self._resize = writer._resize
        self._acc_oid = writer._acc_oid
        self._acc_offset = writer._acc_offset
        self._acc_size = writer._acc_size
        self._works = writer._works

    # -- Listener hooks ----------------------------------------------------

    def on_call(self, machine: "Machine", site: "CallSite") -> None:
        """Record a call event (the site address; context is implicit)."""
        self._kinds.append(OP_CALL)
        self._op_a.append(site.addr)

    def on_return(self, machine: "Machine", site: "CallSite") -> None:
        """Record a return past the innermost call."""
        self._kinds.append(OP_RETURN)
        self._op_a.append(0)

    def on_alloc(self, machine: "Machine", obj: "HeapObject") -> None:
        """Record an allocation; oids are implicit (sequential)."""
        self._kinds.append(OP_ALLOC)
        self._op_a.append(obj.size)
        writer = self.writer
        if obj.oid != writer._next_oid:  # pragma: no cover - defensive
            raise RuntimeError(
                f"trace oid {writer._next_oid} diverged from machine oid {obj.oid}; "
                "was the recorder attached mid-run?"
            )
        writer._next_oid += 1

    def on_free(self, machine: "Machine", obj: "HeapObject") -> None:
        """Record a free by object id."""
        self._kinds.append(OP_FREE)
        self._op_a.append(obj.oid)

    def on_realloc(
        self, machine: "Machine", obj: "HeapObject", old_addr: int, old_size: int
    ) -> None:
        """Record a reallocation (new size; the old one is trace history)."""
        self._kinds.append(OP_REALLOC)
        self._op_a.append(obj.oid)
        self._resize.append(obj.size)

    def on_access(
        self,
        machine: "Machine",
        obj: "HeapObject",
        offset: int,
        size: int,
        is_store: bool,
    ) -> None:
        """Record a load or store within an object."""
        self._kinds.append(OP_STORE if is_store else OP_LOAD)
        self._acc_oid.append(obj.oid)
        self._acc_offset.append(offset)
        self._acc_size.append(size)

    def on_work(self, machine: "Machine", cycles: float) -> None:
        """Record compute-cycle accounting."""
        self._kinds.append(OP_WORK)
        self._works.append(cycles)

    def on_thread(self, machine: "Machine", thread_id: int) -> None:
        """Record a simulated-thread switch (a switch-table entry, not an event)."""
        self.writer.thread(thread_id)

    def on_finish(self, machine: "Machine") -> None:
        """Record end-of-run and finalise the trace.

        Idempotent: some pipeline paths signal ``finish`` twice (the
        workload's own ``run`` plus the profiling driver); only the first
        is part of the recorded stream.
        """
        if self.trace is None:
            self.writer.end()
            self.trace = self.writer.close()

    # -- finalisation ------------------------------------------------------

    def close(self) -> EventTrace:
        """Finalise and return the trace (normally done by ``on_finish``)."""
        if self.trace is None:
            self.trace = self.writer.close()
        return self.trace


def record_workload(
    workload: Union[str, "Workload"],
    scale: str = "test",
    seed: int = 0,
) -> EventTrace:
    """Execute *workload* once and return its complete event trace.

    The machine uses the default size-class allocator; placement does not
    influence the event stream (workloads never observe heap addresses), so
    any recorded run stands in for every allocator/cache configuration.
    """
    from time import perf_counter

    from ..allocators.base import AddressSpace
    from ..allocators.size_class import SizeClassAllocator
    from ..machine.machine import Machine
    from ..workloads import get_workload
    from .. import obs

    if isinstance(workload, str):
        workload = get_workload(workload)
    recorder = TraceRecorder(
        workload=workload.name,
        scale=scale,
        seed=seed,
        program=workload.program.name,
    )
    machine = Machine(
        workload.program,
        SizeClassAllocator(AddressSpace(seed=seed)),
        listeners=[recorder],
    )
    started = perf_counter()
    workload.run(machine, scale)
    trace = recorder.close()
    if obs.active_registry() is not None:
        # Record throughput harvest (events and wall seconds per workload).
        obs.inc("trace.records", 1, workload=workload.name)
        obs.inc("trace.record.events", trace.header.events, workload=workload.name)
        obs.inc("trace.record.seconds", perf_counter() - started, workload=workload.name)
    return trace
