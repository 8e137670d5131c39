"""Recording machine executions into event traces.

:class:`RecordingMachine` is the one production recorder: a
:class:`~repro.machine.machine.Machine` whose event methods append every
call, return, allocation, reallocation, free, heap access, unit of compute
work and simulated-thread switch straight onto the columns of a
:class:`~repro.trace.format.TraceWriter`, with no listener in between.
This is the analogue of the paper's Pin tool (Section 4.1), which observes
the process and runs no second heap: the machine places nothing and
tracks no page residency, because the event stream is
placement-independent (workloads never observe heap addresses).  Where a
run's heap matters (a ``halo serve`` request on the shared heap), the
recording's heap ops are placed afterwards
(:func:`~repro.columnar.engine.place_heap_ops`).

:class:`TraceRecorder` is the same recorder as a
:class:`~repro.machine.events.Listener` on a plain ``Machine``: the
oracle :class:`RecordingMachine` is held to, column for column.

:func:`record_workload` is the one-call convenience used by the harness,
Calder and the CLI: run a named workload once and return its trace.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .. import obs
from ..allocators.base import AddressSpace
from ..machine.events import Listener
from ..machine.heap import HeapError, HeapObject, ObjectTable
from ..machine.machine import Machine, MachineMetrics, _new_scope, out_of_bounds
from ..machine.program import CallSite, Program
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
    from ..workloads.base import Workload


class _RecordingScope:
    """:class:`~repro.machine.machine._CallScope` for a
    :class:`RecordingMachine`: the same stack, nesting check and
    unwinding, with each call and return written to the columns."""

    __slots__ = ("_machine", "_sites", "_innermost")

    def __enter__(self) -> None:
        machine = self._machine
        known = machine.program.sites
        stack = machine.stack
        kinds = machine._kinds
        op_a = machine._op_a
        entered = 0
        try:
            for site in self._sites:
                # The program's own site object resolves with one probe;
                # anything else (an address, a copy) takes the checked path.
                if type(site) is CallSite and known.get(site.addr) is site:
                    resolved = site
                else:
                    resolved = machine._resolve_site(site)
                stack.append(resolved)
                entered += 1
                self._innermost = resolved
                kinds.append(OP_CALL)
                op_a.append(resolved.addr)
        except BaseException:
            # A site that fails to enter unwinds the ones already entered.
            self._sites = self._sites[:entered]
            self.__exit__(None, None, None)
            raise

    def __exit__(self, exc_type, exc, tb) -> bool:
        machine = self._machine
        stack = machine.stack
        sites = self._sites
        # Scopes close innermost first: this one's sites are on top.
        assert not sites or stack[-1] is self._innermost
        kinds = machine._kinds
        op_a = machine._op_a
        for _ in sites:
            kinds.append(OP_RETURN)
            op_a.append(0)
            stack.pop()
        return False


class RecordingMachine(Machine):
    """A machine that writes its own event trace.

    Every check :class:`~repro.machine.machine.Machine` makes stays, with
    the same exception and message: liveness, bounds, positive sizes,
    membership of each call site in the program, unwinding a chain whose
    site fails to enter, and the object table's registration checks.
    What goes is the listener hop: each event is appended to the trace
    columns by the method that executes it.  The recording is final after
    :meth:`finish` (the end-of-run marker) or :meth:`close` (none) as
    :attr:`trace`.

    Each object gets a fresh, never-reused address: nothing is placed or
    made resident.

    Args:
        program: Static program model; every call site must belong to it.
        workload: Workload name stored in the trace header.
        scale: Input scale stored in the trace header.
        seed: Seed stored in the trace header (informational only: the
            event stream is placement-independent).

    A recording machine has no listeners and refuses any (``TypeError``):
    one would silently miss the events it writes itself.  Attach
    listeners to a plain ``Machine``, with a :class:`TraceRecorder` for
    the trace.
    """

    #: The machine simulates no cache: a recording only observes.
    memory = None

    def __init__(
        self, program: Program, *, workload: str = "", scale: str = "test", seed: int = 0
    ) -> None:
        self.program = program
        self.objects = ObjectTable()
        self.stack: list[CallSite] = []
        self.thread_id = 0
        self.trace: Optional[EventTrace] = None
        self._writer = writer = TraceWriter(
            workload=workload, scale=scale, seed=seed, program=program.name
        )
        self._kinds = writer._kinds
        self._op_a = writer._op_a
        self._resize = writer._resize
        self._acc_oid = writer._acc_oid
        self._acc_offset = writer._acc_offset
        self._acc_size = writer._acc_size
        self._works = writer._works
        #: Next fresh address.
        self._cursor = AddressSpace.HEAP_BASE
        self._started = perf_counter()

    # ------------------------------------------------------------------
    # Listeners: refused
    # ------------------------------------------------------------------

    @property
    def listeners(self) -> tuple:
        """Always empty: a recording machine dispatches to no listener."""
        return ()

    @listeners.setter
    def listeners(self, value: Iterable[Listener]) -> None:
        if tuple(value):
            self._refuse()

    def add_listener(self, listener: Listener) -> Listener:
        """Refused: see the class docstring."""
        self._refuse()

    def remove_listener(self, listener: Listener) -> None:
        """Refused: no listener is ever registered."""
        raise ValueError(f"{listener!r} is not registered on a RecordingMachine")

    @staticmethod
    def _refuse() -> None:
        raise TypeError(
            "a RecordingMachine writes its trace itself and dispatches no "
            "listener; attach listeners to a Machine (with a TraceRecorder)"
        )

    @property
    def metrics(self) -> MachineMetrics:
        """The run's counters, counted from the recorded columns on demand
        (the event methods keep none of their own)."""
        if self.trace is not None:
            columns = self.trace.columns()
            kinds, works = columns.kinds, columns.works.tolist()
        else:
            kinds, works = self._kinds, self._works
        counts = Counter(kinds)
        return MachineMetrics(
            loads=counts[OP_LOAD], stores=counts[OP_STORE], allocs=counts[OP_ALLOC],
            frees=counts[OP_FREE], reallocs=counts[OP_REALLOC], calls=counts[OP_CALL],
            compute_cycles=sum(works, 0.0),
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def call(self, *sites: Union[CallSite, int]) -> _RecordingScope:
        """Execute a call through *sites* (see :meth:`Machine.call`)."""
        scope = _new_scope(_RecordingScope)
        scope._machine = self
        scope._sites = sites
        return scope

    def set_thread(self, thread_id: int) -> None:
        """Switch the simulated thread (a switch-table entry, not an event)."""
        self.thread_id = thread_id
        self._writer.thread(thread_id)

    def _fresh(self, size: int) -> int:
        addr = self._cursor
        self._cursor = addr + size
        return addr

    def malloc(self, size: int) -> HeapObject:
        """Allocate *size* bytes at a fresh address."""
        if size <= 0:
            raise HeapError(f"invalid allocation size {size}")
        obj = self.objects.create(self._fresh(size), size)
        self._kinds.append(OP_ALLOC)
        self._op_a.append(size)
        return obj

    def calloc(self, count: int, size: int) -> HeapObject:
        """Allocate ``count * size`` bytes (zeroing touches nothing here)."""
        return self.malloc(count * size)

    def free(self, obj: HeapObject) -> None:
        """Free *obj* (its liveness is checked before it is recorded)."""
        obj.check_alive()
        self._kinds.append(OP_FREE)
        self._op_a.append(obj.oid)
        self.objects.destroy(obj)

    def realloc(self, obj: HeapObject, new_size: int) -> HeapObject:
        """Resize *obj* to a fresh address."""
        obj.check_alive()
        if new_size <= 0:
            raise HeapError(f"invalid realloc size {new_size}")
        self.objects.move(obj, self._fresh(new_size), new_size)
        self._kinds.append(OP_REALLOC)
        self._op_a.append(obj.oid)
        self._resize.append(new_size)
        return obj

    def load(self, obj: HeapObject, offset: int = 0, size: int = 8) -> None:
        """Record a load of *size* bytes at *offset* within *obj*.

        The hottest call of a recording: the checks and the four column
        appends, inline.  :meth:`store` is its twin.
        """
        if not obj.alive:
            raise HeapError(f"use of freed object #{obj.oid}")
        if offset < 0 or size <= 0 or offset + size > obj.size:
            raise out_of_bounds(obj, offset, size)
        self._kinds.append(OP_LOAD)
        self._acc_oid.append(obj.oid)
        self._acc_offset.append(offset)
        self._acc_size.append(size)

    def store(self, obj: HeapObject, offset: int = 0, size: int = 8) -> None:
        """Record a store of *size* bytes at *offset* within *obj*."""
        if not obj.alive:
            raise HeapError(f"use of freed object #{obj.oid}")
        if offset < 0 or size <= 0 or offset + size > obj.size:
            raise out_of_bounds(obj, offset, size)
        self._kinds.append(OP_STORE)
        self._acc_oid.append(obj.oid)
        self._acc_offset.append(offset)
        self._acc_size.append(size)

    def work(self, cycles: float) -> None:
        """Record *cycles* of non-memory compute."""
        self._kinds.append(OP_WORK)
        self._works.append(cycles)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Write the end-of-run marker and finalise the trace.

        Idempotent: only the first ``finish`` is part of the stream.
        """
        if self.trace is None:
            self._writer.end()
            self.close()

    def close(self) -> EventTrace:
        """Finalise and return the trace (normally done by :meth:`finish`).

        The one harvest point of recording: each trace counts once in
        ``trace.records``, ``trace.record.events`` and
        ``trace.record.seconds`` (from construction to here), and only
        while observability is on.
        """
        if self.trace is None:
            self.trace = trace = self._writer.close()
            if obs.active_registry() is not None:
                workload = trace.header.workload
                obs.inc("trace.records", 1, workload=workload)
                obs.inc("trace.record.events", trace.header.events, workload=workload)
                obs.inc("trace.record.seconds", perf_counter() - self._started, workload=workload)
        return self.trace


class TraceRecorder(Listener):
    """Listener that captures the complete event stream of one execution.

    The oracle of :class:`RecordingMachine`: attached to a plain
    :class:`~repro.machine.machine.Machine`, it writes the same columns
    through the listener hooks.  The recorder is single-use: after the machine's ``finish`` fires (or
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
    """Execute *workload* once on a :class:`RecordingMachine` and return
    its complete event trace.

    Nothing is placed and no page is touched: workloads never observe heap
    addresses, so the event stream is placement-independent and one
    recording stands in for every allocator/cache configuration.  *seed*
    is only stored in the header.
    """
    from ..workloads import get_workload

    if isinstance(workload, str):
        workload = get_workload(workload)
    machine = RecordingMachine(
        workload.program, workload=workload.name, scale=scale, seed=seed
    )
    workload.run(machine, scale)
    return machine.close()
