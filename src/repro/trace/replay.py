"""Re-driving the pipeline from a recorded event trace.

Two replay paths, trading fidelity against speed:

* :meth:`TraceReplayer.drive` re-executes the event stream against a real
  :class:`~repro.machine.machine.Machine` — allocator, cache hierarchy,
  instrumentation bits and listeners all behave exactly as in a direct run,
  so measurements (cycles, miss counts, fragmentation) are bit-identical to
  re-running the workload.  Use it to sweep allocator and cache-geometry
  configurations from one recording.
* :func:`replay_profile` skips the machine entirely and works on the
  trace's columns.  The profiler only ever observes object ids, sizes,
  allocation order, and the call stack — all of which the trace
  reproduces exactly — so the resulting
  :class:`~repro.profiling.profiler.ProfileResult` (affinity graph,
  contexts, HDS reference trace) is bit-identical to profiling the live
  workload, at a fraction of the cost.  One walk over the control ops
  gives every object its context, site and size; numpy builds the
  macro-access columns; and the compiled ``halo_affinity`` kernel walks
  the affinity window (without a compiler, the same columns drive
  :class:`~repro.profiling.affinity.AffinityRecorder`).  Use it to sweep
  affinity-window sizes, merge tolerances, and group counts.

Both paths rely on the machine's oid-assignment invariant (sequential from
zero, ``oid == alloc_seq``), which lets the trace omit allocation ids.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..columnar import kernel
from ..machine.heap import HeapObject
from ..profiling.affinity import AffinityParams, AffinityRecorder
from ..profiling.graph import AffinityGraph
from ..profiling.profiler import ContextStats, ProfileResult, publish_profile_metrics
from ..profiling.shadow import ContextTable, reduced_context
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
    TraceColumns,
    TraceFormatError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import HaloParams
    from ..machine.machine import Machine
    from ..machine.program import Program


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


def replay_profile(
    trace: EventTrace,
    program: "Program",
    params: Optional["HaloParams"] = None,
    record_trace: bool = False,
    contexts: Optional[ContextTable] = None,
) -> ProfileResult:
    """Re-drive the affinity profiler from *trace* without a machine.

    Bit-identical to :func:`repro.core.pipeline.profile_workload` on the
    recorded (workload, scale) — same affinity graph (edge and node order
    included), context table, object maps and (with ``record_trace=True``)
    HDS reference trace — but skips the workload body, the allocator,
    bounds checks and metrics, which is what makes warm parameter sweeps
    cheap.  Runs as two spans: ``profiling.contexts`` (the control walk)
    and ``profiling.affinity`` (the access columns and the queue).
    New contexts are interned into *contexts* (default: a fresh table), so
    replays sharing one table keep their context ids stable.
    """
    from ..core.pipeline import HaloParams

    params = params or HaloParams()
    affinity = params.affinity
    started = perf_counter()
    cols = trace.columns()
    with obs.span("profiling.contexts"):
        objects = _ObjectColumns(cols, program, contexts)
    # One int object per oid, shared by the per-object maps and the HDS trace.
    oid_ints = list(range(objects.cid.shape[0]))
    with obs.span("profiling.affinity"):
        full_graph, access_bytes, queue_length, hds_trace = replay_accesses(
            cols, objects.cid, objects.sizes, affinity, oid_ints if record_trace else None
        )
        graph = full_graph.filtered_by_coverage(affinity.node_coverage)
    publish_profile_metrics(
        program, len(objects.contexts), graph, cols.accesses, access_bytes,
        queue_length, objects.depth_max,
    )
    result = ProfileResult(
        program=program,
        params=affinity,
        graph=graph,
        full_graph=full_graph,
        contexts=objects.contexts,
        context_stats=objects.context_stats(cols),
        **objects.maps(oid_ints),
        trace=hds_trace,
        total_accesses=full_graph.total_accesses,
        machine_accesses=cols.accesses,
    )
    _publish_replay_metrics(trace, perf_counter() - started)
    return result


class _ObjectColumns:
    """Per-object columns of a trace, from one pass over its control ops.

    An object's id is its allocation sequence number, so every column is
    indexed by oid.  Each object's allocation is a node of the trace's
    :class:`~repro.trace.format.CallTrie`; each distinct allocating node
    resolves its reduced context once, in first-allocation order, so
    context ids are interned exactly as the listener interns them.

    Attributes:
        contexts: The context table.
        cid: Context id of each object (int32).
        sizes: Allocation size of each object (int64).
        nodes: Trie node of each object's allocation (int32).
        site_of: Trie node -> immediate allocation call site (None for
            the root: an allocation outside any call).
        depth_max: Deepest call stack seen at an allocation.
    """

    __slots__ = ("contexts", "cid", "sizes", "nodes", "site_of", "depth_max")

    def __init__(
        self, cols: TraceColumns, program: "Program", contexts: Optional[ContextTable] = None
    ) -> None:
        ops, args = cols.ctrl[0], cols.ctrl[1]
        trie = cols.call_trie()
        allocs = np.flatnonzero(ops == OP_ALLOC)
        alloc_node = trie.nodes(allocs)
        contexts = ContextTable() if contexts is None else contexts
        node_cid = np.zeros(trie.count, dtype=np.int32)
        site_of: dict[int, Optional[int]] = {0: None}
        for at in first_seen(alloc_node):
            path = trie.path(at)
            stack = [program.sites[addr] for addr in path]
            node_cid[at] = contexts.intern(reduced_context(program, stack))
            site_of[at] = path[-1] if path else None
        self.contexts = contexts
        self.cid = node_cid[alloc_node]
        self.sizes = args[ops == OP_ALLOC]
        self.nodes = alloc_node
        self.site_of = site_of
        self.depth_max = int(trie.depth[allocs].max(initial=0))

    def maps(self, oid_ints: list[int]) -> dict[str, dict]:
        """The profile's per-object maps, keyed by the ints of *oid_ints*.

        The three maps share their key objects and table layout (each copy
        is sized once, then its values are overwritten in place), and
        equal sizes share one int object.
        """
        object_context = dict(zip(oid_ints, self.cid.tolist()))
        object_site = object_context.copy()
        object_site.update(enumerate(map(self.site_of.__getitem__, self.nodes.tolist())))
        distinct, inverse = np.unique(self.sizes, return_inverse=True)
        object_sizes = object_context.copy()
        object_sizes.update(enumerate(map(distinct.tolist().__getitem__, inverse.tolist())))
        return {
            "object_context": object_context,
            "object_site": object_site,
            "object_sizes": object_sizes,
        }

    def context_stats(self, cols: TraceColumns) -> dict:
        """Allocation statistics of each context allocated from, in id order."""
        count = len(self.contexts)
        cid, sizes = self.cid, self.sizes
        allocs = np.bincount(cid, minlength=count)
        allocated = np.zeros(count, dtype=np.int64)
        np.add.at(allocated, cid, sizes)
        largest = np.zeros(count, dtype=np.int64)
        np.maximum.at(largest, cid, sizes)
        ops_column, oid_column = cols.ctrl[0], cols.ctrl[1]
        frees = np.bincount(cid[oid_column[ops_column == OP_FREE]], minlength=count)
        return {
            context: ContextStats(*row)
            for context, row in enumerate(
                zip(allocs.tolist(), allocated.tolist(), largest.tolist(), frees.tolist())
            )
            if row[0]
        }


def first_seen(values: np.ndarray) -> list[int]:
    """The distinct entries of *values*, in order of first occurrence."""
    seen, first = np.unique(values, return_index=True)
    return seen[np.argsort(first)].tolist()


def replay_accesses(
    cols: TraceColumns,
    cid: np.ndarray,
    sizes: np.ndarray,
    params: AffinityParams,
    oid_ints: Optional[list[int]] = None,
) -> tuple[AffinityGraph, int, int, Optional[list[int]]]:
    """Feed the trace's macro accesses through the affinity queue.

    *cid* is each object's graph node and *sizes* its allocation size, by
    oid.  Returns the full affinity graph, the macro accesses' byte total,
    the window length at the end and, given the oids' int objects, the HDS
    reference trace built from them.  The compiled ``halo_affinity`` walks
    the window when the kernel library is available; otherwise the columns
    drive :class:`~repro.profiling.affinity.AffinityRecorder` directly.
    """
    acc_oid = cols.acc_oid
    # Consecutive accesses to one object form one macro access; it
    # carries its first access's size.
    macro = np.ones(acc_oid.shape[0], dtype=bool)
    np.not_equal(acc_oid[1:], acc_oid[:-1], out=macro[1:])
    oids = acc_oid[macro].astype(np.int32)
    nbytes = cols.acc_size[macro].astype(np.int32)
    hds_trace = None if oid_ints is None else _hds_trace(
        cols, sizes, oids, macro, params, oid_ints
    )
    del macro
    groupable = sizes < params.max_object_size
    prev, next_ = _context_neighbours(cid)
    edges = kernel.affinity(
        oids, nbytes, cid, groupable, prev, next_,
        params.distance, params.enforce_co_allocatability,
    )
    del prev, next_
    if edges is None:
        recorder = AffinityRecorder(params)
        on_alloc = recorder.on_alloc
        for oid, (context, size) in enumerate(zip(cid.tolist(), sizes.tolist())):
            on_alloc(oid, context, size, oid)
        record = recorder.record_access
        for oid, size in zip(oids.tolist(), nbytes.tolist()):
            record(oid, size)
        return (
            recorder.graph, recorder.total_access_bytes, recorder.queue_length, hds_trace,
        )
    lo, hi, weight, queue_length = edges
    access_cid = cid[oids]
    counts = np.bincount(access_cid)
    order = first_seen(access_cid)
    graph = AffinityGraph(
        node_accesses=dict(zip(order, counts[order].tolist())),
        edges=dict(zip(zip(lo.tolist(), hi.tolist()), weight.astype(np.float64).tolist())),
        total_accesses=int(oids.shape[0]),
    )
    return graph, int(nbytes.sum(dtype=np.int64)), queue_length, hds_trace


def _context_neighbours(cid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each object's previous and next allocation from its own context.

    -1 and ``INT32_MAX`` mark none.  The recorder only learns a "next"
    allocation once it happens, but the precomputed one answers every
    co-allocatability test the same way: a next allocation still in the
    future is greater than both sequence numbers being compared.
    """
    order = np.argsort(cid, kind="stable").astype(np.int32)
    same = cid[order[1:]] == cid[order[:-1]]
    prev = np.full(cid.shape[0], -1, dtype=np.int32)
    next_ = np.full(cid.shape[0], np.iinfo(np.int32).max, dtype=np.int32)
    prev[order[1:][same]] = order[:-1][same]
    next_[order[:-1][same]] = order[1:][same]
    return prev, next_


def _hds_trace(
    cols: TraceColumns,
    sizes: np.ndarray,
    oids: np.ndarray,
    macro: np.ndarray,
    params: AffinityParams,
    oid_ints: list[int],
) -> list[int]:
    """The HDS reference trace: macro accesses, large objects as breakers.

    An access to an object at or above ``max_object_size`` — at the time
    of the access, so a realloc changes the size of later accesses —
    becomes a unique descending sentinel (-1, -2, ...).  Object ids are
    taken from *oid_ints*, so the trace adds no int object per entry.
    """
    large = sizes[oids] >= params.max_object_size
    ops_column, oid_column, size_column, ptr_column = cols.ctrl
    resized = np.flatnonzero(ops_column == OP_REALLOC)
    if resized.shape[0]:
        positions = np.flatnonzero(macro)
        for at in resized.tolist():
            oid, size, ptr = int(oid_column[at]), int(size_column[at]), int(ptr_column[at])
            later = int(np.searchsorted(positions, ptr))
            large[later:][oids[later:] == oid] = size >= params.max_object_size
    # Index into oid_ints extended by the breakers -1, -2, ...
    index = np.where(large, len(oid_ints) - 1 + np.cumsum(large), oids)
    symbols = oid_ints + list(range(-1, -int(np.count_nonzero(large)) - 1, -1))
    return list(map(symbols.__getitem__, index.tolist()))
