"""Re-driving the pipeline from a recorded event trace.

Two replay paths, trading fidelity against speed:

* :meth:`TraceReplayer.drive` re-executes the event stream against a real
  :class:`~repro.machine.machine.Machine` — allocator, cache hierarchy,
  instrumentation bits and listeners all behave exactly as in a direct run,
  so measurements (cycles, miss counts, fragmentation) are bit-identical to
  re-running the workload.  Use it to sweep allocator and cache-geometry
  configurations from one recording.
* :func:`replay_profile` skips the machine entirely and feeds the profiler
  through a minimal shim.  The profiler only ever observes object ids,
  sizes, allocation order, and the call stack — all of which the trace
  reproduces exactly — so the resulting
  :class:`~repro.profiling.profiler.ProfileResult` (affinity graph,
  contexts, HDS reference trace) is bit-identical to profiling the live
  workload, at a fraction of the cost.  Use it to sweep affinity-window
  sizes, merge tolerances, and group counts.

Both paths rely on the machine's oid-assignment invariant (sequential from
zero, ``oid == alloc_seq``), which lets the trace omit allocation ids.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from ..machine.heap import HeapObject
from .. import obs
from .format import (
    OP_ALLOC,
    OP_CALL,
    OP_END,
    OP_FREE,
    OP_LOAD,
    OP_REALLOC,
    OP_RETURN,
    OP_STORE,
    OP_WORK,
    EventTrace,
    TraceFormatError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import HaloParams
    from ..machine.machine import Machine
    from ..machine.program import Program
    from ..profiling.profiler import ProfileResult


class TraceReplayer:
    """Full-fidelity replay of an event trace onto a live machine.

    Args:
        trace: The recorded event stream.
        program: The static program of the recorded workload (call events
            are resolved against its call sites).
    """

    def __init__(self, trace: EventTrace, program: "Program") -> None:
        self.trace = trace
        self.program = program

    def drive(self, machine: "Machine") -> None:
        """Replay every event through *machine*'s public API.

        Calls ``machine.call/malloc/free/realloc/load/store/work/finish``
        in recorded order — and ``machine.set_thread`` at each recorded
        thread switch — so the allocator, cache hierarchy, state vector
        and any attached listeners observe an execution indistinguishable
        from the original workload run.  Usable as the ``driver`` argument
        of :func:`repro.harness.runner.run_measurement`.
        """
        if machine.program is not self.program and (
            machine.program.name != self.trace.header.program
        ):
            raise TraceFormatError(
                f"trace was recorded against program {self.trace.header.program!r}, "
                f"machine runs {machine.program.name!r}"
            )
        started = perf_counter()
        cols = self.trace.columns()
        feeds = (
            cols.access_rows().__next__,
            next(cols.segments(ctrl=True, threaded=False))[1].__next__,
            iter(cols.works.tolist()).__next__,
        )
        objects: dict[int, HeapObject] = {}
        scopes: list = []
        done = 0
        for position, thread in self.trace.switches():
            _drive_events(machine, cols.kinds[done:position], feeds, objects, scopes)
            machine.set_thread(thread)
            done = position
        _drive_events(machine, cols.kinds[done:], feeds, objects, scopes)
        while scopes:  # pragma: no cover - only on truncated traces
            scopes.pop().__exit__(None, None, None)
        _publish_replay_metrics(self.trace, perf_counter() - started)


def _drive_events(
    machine: "Machine", kinds: bytes, feeds: tuple, objects: dict, scopes: list
) -> None:
    """Feed one thread's run of events through *machine*'s public API.

    *kinds* holds the run's opcodes in stream order; *feeds* pulls the
    next access row, control-op row and work entry from the trace columns.
    """
    next_access, next_op, next_work = feeds
    load = machine.load
    store = machine.store
    for kind in kinds:
        if kind == OP_LOAD:
            oid, offset, size, _ = next_access()
            load(objects[oid], offset, size)
        elif kind == OP_STORE:
            oid, offset, size, _ = next_access()
            store(objects[oid], offset, size)
        elif kind == OP_WORK:
            machine.work(next_work())
        elif kind == OP_END:
            machine.finish()
        else:
            _, a, b, _ = next_op()
            if kind == OP_CALL:
                scope = machine.call(a)
                scope.__enter__()
                scopes.append(scope)
            elif kind == OP_RETURN:
                scopes.pop().__exit__(None, None, None)
            elif kind == OP_ALLOC:
                obj = machine.malloc(a)
                objects[obj.oid] = obj
            elif kind == OP_FREE:
                machine.free(objects.pop(a))
            else:  # OP_REALLOC
                machine.realloc(objects[a], b)


def _publish_replay_metrics(trace: EventTrace, elapsed: float) -> None:
    """Replay-throughput harvest (``trace.replay.*``); no-op when obs is off."""
    if obs.active_registry() is None:
        return
    workload = trace.header.workload
    obs.inc("trace.replays", 1, workload=workload)
    obs.inc("trace.replay.events", trace.header.events, workload=workload)
    obs.inc("trace.replay.seconds", elapsed, workload=workload)


class _ProfileShim:
    """Minimal machine stand-in for :func:`replay_profile`.

    The profiler reads exactly one machine attribute — the live call stack —
    so the lightweight replay maintains only that.
    """

    __slots__ = ("stack",)

    def __init__(self) -> None:
        self.stack: list = []


def replay_profile(
    trace: EventTrace,
    program: "Program",
    params: Optional["HaloParams"] = None,
    record_trace: bool = False,
) -> "ProfileResult":
    """Re-drive the affinity profiler from *trace* without a machine.

    Bit-identical to :func:`repro.core.pipeline.profile_workload` on the
    recorded (workload, scale) — same affinity graph, context table, object
    maps and (with ``record_trace=True``) HDS reference trace — but skips
    the workload body, the allocator, bounds checks and metrics, which is
    what makes warm parameter sweeps cheap.
    """
    from ..core.pipeline import HaloParams
    from ..profiling.profiler import Profiler

    params = params or HaloParams()
    started = perf_counter()
    cols = trace.columns()
    profiler = Profiler(program, params.affinity, record_trace=record_trace)
    shim = _ProfileShim()
    stack = shim.stack
    sites = program.sites
    objects: dict[int, HeapObject] = {}
    next_oid = 0
    on_access = profiler.on_access
    on_alloc = profiler.on_alloc
    on_free = profiler.on_free
    accesses = cols.access_rows()
    pos = 0
    _, ops = next(cols.segments(ctrl=True, threaded=False))
    for op, a, b, ptr in ops:
        if ptr != pos:
            # The loads/stores recorded before this op, in stream order.
            for oid, offset, size, is_store in islice(accesses, ptr - pos):
                on_access(shim, objects[oid], offset, size, is_store)
            pos = ptr
        if op == OP_CALL:
            stack.append(sites[a])
        elif op == OP_RETURN:
            stack.pop()
        elif op == OP_ALLOC:
            obj = HeapObject(next_oid, 0, a, next_oid)
            objects[next_oid] = obj
            next_oid += 1
            on_alloc(shim, obj)
        elif op == OP_FREE:
            obj = objects.pop(a)
            obj.alive = False
            on_free(shim, obj)
        else:  # OP_REALLOC
            objects[a].size = b
    for oid, offset, size, is_store in accesses:
        on_access(shim, objects[oid], offset, size, is_store)
    _publish_replay_metrics(trace, perf_counter() - started)
    return profiler.result()
