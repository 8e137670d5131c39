"""The simulated machine that executes workloads.

A :class:`Machine` plays the role of the CPU + OS process in the paper's
evaluation: it maintains the call stack, routes allocation requests to the
configured allocator, drives the cache hierarchy with every heap load/store,
toggles group-state bits for instrumented call sites (the work the BOLT pass
injects into the rewritten binary, Section 4.3), and broadcasts every event
to registered listeners (the Pin tool's view, Section 4.1).

Workloads drive the machine through a small explicit API::

    with machine.call(site):          # control transfer through `site`
        obj = machine.malloc(64)      # heap allocation
    with machine.call(a, b, c):       # the nested chain a → b → c, one scope
        ...
    machine.load(obj, 0, 8)           # heap access
    machine.work(25)                  # `25` cycles of non-memory compute
    machine.free(obj)

Per-event cost is the simulator's budget: a direct measurement or an
event replay is nothing but these calls.  So one slotted scope serves a
call through one site or a whole chain, and :meth:`Machine.load`/
:meth:`Machine.store` each do their checks, page touch, cache access and
listener dispatch in one call.
Recording is not done here: :class:`~repro.trace.record.RecordingMachine`
(a subclass that writes the trace columns from its own event methods,
with the same checks) records every workload and serve request, and a
:class:`~repro.trace.record.TraceRecorder` listener on this class is its
oracle.

Determinism: given the same workload code, RNG seed and allocator placement,
two runs produce identical event streams and identical cache behaviour.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..allocators.base import PAGE_SHIFT
from .events import Listener
from .heap import HeapError, HeapObject, ObjectTable
from .program import CallSite, Program, ProgramError


@dataclass(slots=True)
class MachineMetrics:
    """Dynamic instruction-level counters for one run."""

    loads: int = 0
    stores: int = 0
    allocs: int = 0
    frees: int = 0
    reallocs: int = 0
    calls: int = 0
    compute_cycles: float = 0.0
    #: Bit set/clear operations executed for instrumented call sites — the
    #: runtime overhead the rewriting pass introduces.
    instrumentation_toggles: int = 0

    @property
    def accesses(self) -> int:
        """Total heap accesses (loads + stores)."""
        return self.loads + self.stores

    def as_counters(self) -> dict[str, int]:
        """Integer counters for the observability harvest (``measure.machine.*``).

        ``compute_cycles`` is deliberately excluded: it is a float, and
        the deterministic ``measure.*`` family guarantees bit-identical
        totals regardless of summation order, which only integers give.
        """
        return {
            "loads": self.loads,
            "stores": self.stores,
            "allocs": self.allocs,
            "frees": self.frees,
            "reallocs": self.reallocs,
            "calls": self.calls,
            "instrumentation_toggles": self.instrumentation_toggles,
        }


class GroupStateVector:
    """The shared 'group state' bit vector from Section 4.3.

    The rewritten binary sets bit *i* when control passes through the *i*-th
    instrumented call site and clears it on the way back out.  The
    specialised allocator reads the whole vector (as an integer) on every
    allocation to evaluate group selectors.
    """

    def __init__(self) -> None:
        self.value = 0

    def set(self, bit: int) -> None:
        """Set bit *bit*."""
        self.value |= 1 << bit

    def clear(self, bit: int) -> None:
        """Clear bit *bit*.

        Faithful to the paper's set-then-unset scheme: a recursive re-entry
        through the same site does not reference-count, so the inner return
        clears the bit even if an outer activation is still live.
        """
        self.value &= ~(1 << bit)

    def test(self, bit: int) -> bool:
        """Return whether bit *bit* is set."""
        return bool(self.value >> bit & 1)


class _ListenerList(list):
    """Listener container that keeps the machine's dispatch fast path fresh.

    The machine skips listener dispatch entirely when none are registered,
    via a cached dispatch tuple (``Machine._dispatch``).  Any mutation of
    the listener list — including a registration made *mid-run*, while
    events are already flowing — must invalidate that cache, or the new
    listener would silently miss every subsequent event.  This subclass
    rebuilds the cache on every mutating operation, so plain
    ``machine.listeners.append(listener)`` stays safe.  The machine is held
    by weak reference: a strong one would make every machine a reference
    cycle, kept alive (with its allocator and object table) until the
    cyclic collector next runs.
    """

    __slots__ = ("_machine",)

    def __init__(self, machine: "Machine", iterable: Iterable[Listener] = ()) -> None:
        super().__init__(iterable)
        self._machine = weakref.ref(machine)

    def _refresh(self) -> None:
        machine = self._machine()
        if machine is not None:
            machine._dispatch = tuple(self)

    def append(self, listener: Listener) -> None:
        """Register *listener* and refresh the dispatch fast path."""
        super().append(listener)
        self._refresh()

    def extend(self, listeners: Iterable[Listener]) -> None:
        """Register each listener and refresh the dispatch fast path."""
        super().extend(listeners)
        self._refresh()

    def insert(self, index: int, listener: Listener) -> None:
        """Insert *listener* at *index* and refresh the dispatch fast path."""
        super().insert(index, listener)
        self._refresh()

    def remove(self, listener: Listener) -> None:
        """Deregister *listener* and refresh the dispatch fast path."""
        super().remove(listener)
        self._refresh()

    def pop(self, index: int = -1) -> Listener:
        """Remove and return the listener at *index*, refreshing dispatch."""
        listener = super().pop(index)
        self._refresh()
        return listener

    def clear(self) -> None:
        """Deregister every listener and refresh the dispatch fast path."""
        super().clear()
        self._refresh()

    def __setitem__(self, index, listener) -> None:
        super().__setitem__(index, listener)
        self._refresh()

    def __delitem__(self, index) -> None:
        super().__delitem__(index)
        self._refresh()

    def __iadd__(self, listeners):
        result = super().__iadd__(listeners)
        self._refresh()
        return result


def out_of_bounds(obj: HeapObject, offset: int, size: int) -> HeapError:
    """The error an access of *size* bytes at *offset* outside *obj* raises
    (a zero-size access counts as outside)."""
    return HeapError(
        f"out-of-bounds access to object #{obj.oid}: "
        f"[{offset}, {offset + size}) of {obj.size} bytes"
    )


#: :meth:`Machine.call` fills a scope's slots itself: a Python ``__init__``
#: frame per call was a measurable share of a replayed call event.
_new_scope = object.__new__


class _CallScope:
    """Context manager for one simulated call through one or more sites.

    ``machine.call(a, b, c)`` enters the nested chain ``a → b → c``
    (outermost first) and unwinds it innermost first: the same events,
    stack, bits and counters as three nested ``with`` blocks.  All entry
    work happens in ``__enter__`` (constructing the scope does nothing).
    The scope keeps only its sites and the innermost resolved site (for
    the nesting check on exit): no ``@contextmanager``/``ExitStack`` and
    no per-site record, because calls are among the simulator's hottest
    events and generator machinery and per-call allocations dominated
    their cost.  Exit clears each site's bit from the machine's
    instrumentation map, which is installed before a run, never during
    a call.
    """

    __slots__ = ("_machine", "_sites", "_innermost")

    def __enter__(self) -> None:
        machine = self._machine
        instrumentation = machine.instrumentation
        listeners = machine._dispatch
        entered = 0
        try:
            for site in self._sites:
                if type(site) is int:
                    # A known address resolves with one probe.
                    try:
                        resolved = machine.program.sites[site]
                    except KeyError:
                        resolved = machine._resolve_site(site)  # raises
                else:
                    resolved = machine._resolve_site(site)
                machine.stack.append(resolved)
                entered += 1
                self._innermost = resolved
                machine.metrics.calls += 1
                if instrumentation:
                    bit = instrumentation.get(resolved.addr)
                    if bit is not None:
                        machine.state_vector.set(bit)
                        machine.metrics.instrumentation_toggles += 1
                if listeners:
                    for listener in listeners:
                        listener.on_call(machine, resolved)
        except BaseException:
            # A site that fails to enter (a foreign site, say) unwinds the
            # ones already on the stack before the error propagates.
            self._sites = self._sites[:entered]
            self.__exit__(None, None, None)
            raise

    def __exit__(self, exc_type, exc, tb) -> bool:
        machine = self._machine
        stack = machine.stack
        sites = self._sites
        # Scopes close innermost first: this one's sites are on top.
        assert not sites or stack[-1] is self._innermost
        listeners = machine._dispatch
        instrumentation = machine.instrumentation
        for _ in sites:
            if listeners:
                resolved = stack[-1]
                for listener in listeners:
                    listener.on_return(machine, resolved)
            resolved = stack.pop()
            if instrumentation:
                bit = instrumentation.get(resolved.addr)
                if bit is not None:
                    machine.state_vector.clear(bit)
                    machine.metrics.instrumentation_toggles += 1
        return False


class Machine:
    """Executes workload code against a program, allocator, and memory model.

    Args:
        program: Static program model; every call site passed to
            :meth:`call` must belong to it.
        allocator: Object implementing the :class:`repro.allocators.base.Allocator`
            interface.  Must expose ``.space`` for residency accounting.
        memory: Optional cache hierarchy; when present, every heap access is
            simulated through it.  Profiling runs omit it for speed.
        listeners: Event observers.
        instrumentation: Optional mapping ``site addr -> state-vector bit``
            produced by the BOLT rewriting pass.  When present, entering and
            leaving those sites toggles bits in ``state_vector``.
        state_vector: The shared group state vector (created on demand).
    """

    def __init__(
        self,
        program: Program,
        allocator,
        memory=None,
        listeners: Iterable[Listener] = (),
        instrumentation: Optional[dict[int, int]] = None,
        state_vector: Optional[GroupStateVector] = None,
    ) -> None:
        self.program = program
        self.allocator = allocator
        self.memory = memory
        #: Dispatch fast path: a tuple snapshot of the listener list, kept
        #: in sync by :class:`_ListenerList` / the ``listeners`` setter so a
        #: mid-run registration can never miss events.
        self._dispatch: tuple[Listener, ...] = ()
        self.listeners = listeners  # property setter wraps + refreshes
        self.instrumentation = dict(instrumentation or {})
        self.state_vector = state_vector if state_vector is not None else GroupStateVector()
        self.objects = ObjectTable()
        self.metrics = MachineMetrics()
        #: The true dynamic call stack, innermost last.
        self.stack: list[CallSite] = []
        #: Simulated hardware thread currently executing.  Multi-tenant
        #: workloads switch it as the mix scheduler interleaves tick
        #: streams; single-threaded workloads never leave thread 0.
        self.thread_id = 0

    # ------------------------------------------------------------------
    # Listener registration
    # ------------------------------------------------------------------

    @property
    def listeners(self) -> "_ListenerList":
        """The registered event observers (mutations stay dispatch-safe)."""
        return self._listeners

    @listeners.setter
    def listeners(self, value: Iterable[Listener]) -> None:
        self._listeners = _ListenerList(self, value)
        self._dispatch = tuple(self._listeners)

    def add_listener(self, listener: Listener) -> Listener:
        """Register *listener* (valid mid-run: it sees all later events)."""
        self._listeners.append(listener)
        return listener

    def remove_listener(self, listener: Listener) -> None:
        """Deregister *listener*; it receives no further events."""
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def _resolve_site(self, site: Union[CallSite, int]) -> CallSite:
        if isinstance(site, CallSite):
            known = self.program.sites.get(site.addr)
            # Workloads pass the program's own site objects: the identity
            # test settles them without the frozen dataclass's field-wise
            # ``__eq__``, which only an equal copy still pays.
            if known is not site and known != site:
                raise ProgramError(f"site {site.describe()} is not part of {self.program.name}")
            return site
        return self.program.site(site)

    def call(self, *sites: Union[CallSite, int]) -> "_CallScope":
        """Execute a call through *sites*; the body runs inside the callee.

        Returns a context manager.  Entry pushes each site on the call
        stack, outermost first (toggling its instrumented bit and notifying
        listeners); exit pops them innermost first.  ``call(a, b, c)`` is
        the chain ``a → b → c`` in one scope, the same events as three
        nested ``with`` blocks; ``call()`` enters nothing.  If a site fails
        to enter (a :class:`ProgramError` for a foreign site), the sites
        already entered are unwound before the error propagates.
        """
        scope = _new_scope(_CallScope)
        scope._machine = self
        scope._sites = sites
        return scope

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def set_thread(self, thread_id: int) -> None:
        """Switch the simulated executing thread to *thread_id*.

        Thread-aware allocators (per-thread arenas) are notified so later
        heap ops route to the right arena; thread-oblivious allocators
        ignore the switch entirely.  Deterministic: the mix scheduler
        drives this from a seeded interleave, never from host threads.
        """
        self.thread_id = thread_id
        forward = getattr(self.allocator, "set_thread", None)
        if forward is not None:
            forward(thread_id)
        for listener in self._dispatch:
            listener.on_thread(self, thread_id)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> HeapObject:
        """Allocate *size* bytes through the configured allocator."""
        if size <= 0:
            raise HeapError(f"invalid allocation size {size}")
        addr = self.allocator.malloc(size)
        obj = self.objects.create(addr, size)
        self.metrics.allocs += 1
        listeners = self._dispatch
        if listeners:
            for listener in listeners:
                listener.on_alloc(self, obj)
        return obj

    def calloc(self, count: int, size: int) -> HeapObject:
        """Allocate and zero ``count * size`` bytes (zeroing touches pages)."""
        obj = self.malloc(count * size)
        # calloc writes the whole region; model the residency effect without
        # charging the workload cache traffic for it.
        self.allocator.space.touch_range(obj.addr, obj.size)
        return obj

    def free(self, obj: HeapObject) -> None:
        """Free *obj* (its liveness is checked once, before any listener)."""
        obj.check_alive()
        for listener in self._dispatch:
            listener.on_free(self, obj)
        self.allocator.free(obj.addr)
        self.objects.destroy(obj)
        self.metrics.frees += 1

    def realloc(self, obj: HeapObject, new_size: int) -> HeapObject:
        """Resize *obj*, possibly moving it.  Returns the same handle."""
        obj.check_alive()
        if new_size <= 0:
            raise HeapError(f"invalid realloc size {new_size}")
        old_addr, old_size = obj.addr, obj.size
        new_addr = self.allocator.realloc(obj.addr, new_size)
        self.objects.move(obj, new_addr, new_size)
        self.metrics.reallocs += 1
        for listener in self._dispatch:
            listener.on_realloc(self, obj, old_addr, old_size)
        return obj

    # ------------------------------------------------------------------
    # Data accesses and compute
    # ------------------------------------------------------------------

    def load(self, obj: HeapObject, offset: int = 0, size: int = 8) -> None:
        """Simulate a load of *size* bytes at *offset* within *obj*.

        The hottest call in the simulator: every workload load lands here.
        The liveness and bounds checks, the page touch, the cache access
        and the listener dispatch all run inline, with dispatch skipped
        when no listeners are registered.  :meth:`store` is its twin.
        """
        if not obj.alive:
            raise HeapError(f"use of freed object #{obj.oid}")
        if offset < 0 or size <= 0 or offset + size > obj.size:
            raise out_of_bounds(obj, offset, size)
        addr = obj.addr + offset
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        if first == last:  # nearly every access stays within one page
            self.allocator.space._touched_pages.add(first)
        else:
            self.allocator.space.touch_range(addr, size)
        memory = self.memory
        if memory is not None:
            memory.access(addr, size, False)
        listeners = self._dispatch
        if listeners:
            for listener in listeners:
                listener.on_access(self, obj, offset, size, False)
        self.metrics.loads += 1

    def store(self, obj: HeapObject, offset: int = 0, size: int = 8) -> None:
        """Simulate a store of *size* bytes at *offset* within *obj*."""
        if not obj.alive:
            raise HeapError(f"use of freed object #{obj.oid}")
        if offset < 0 or size <= 0 or offset + size > obj.size:
            raise out_of_bounds(obj, offset, size)
        addr = obj.addr + offset
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        if first == last:
            self.allocator.space._touched_pages.add(first)
        else:
            self.allocator.space.touch_range(addr, size)
        memory = self.memory
        if memory is not None:
            memory.access(addr, size, True)
        listeners = self._dispatch
        if listeners:
            for listener in listeners:
                listener.on_access(self, obj, offset, size, True)
        self.metrics.stores += 1

    def work(self, cycles: float) -> None:
        """Account *cycles* of non-memory compute (models instruction work)."""
        self.metrics.compute_cycles += cycles
        listeners = self._dispatch
        if listeners:
            for listener in listeners:
                listener.on_work(self, cycles)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Signal end of run to listeners."""
        for listener in self._dispatch:
            listener.on_finish(self)

    def validate_heap(self) -> list:
        """Cross-check the object table against the allocator's bookkeeping.

        Returns the list of sanitizer :class:`~repro.sanitize.Finding`
        violations (empty when the heap is coherent).  This is the
        on-demand entry point; continuous checking attaches a
        :class:`~repro.sanitize.SanitizerListener` instead.
        """
        from ..sanitize.invariants import validate_machine

        return validate_machine(self)
