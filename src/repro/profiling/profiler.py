"""The profiling listener: this reproduction's stand-in for the Pin tool.

Attach a :class:`Profiler` to a :class:`~repro.machine.machine.Machine` and
run a workload; it reconstructs allocation contexts from the live call stack
(shadow-stack rules of Section 4.1), feeds every heap access through the
affinity queue, and optionally records the object-level reference trace that
the hot-data-streams comparison technique needs.

The paper reports profiling slowdowns of "up to 500×" with no sampling; the
profiler reports an analogous estimated overhead factor for its run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..machine.events import Listener
from ..machine.heap import HeapObject
from ..machine.machine import Machine
from ..machine.program import Program
from .. import obs
from .affinity import AffinityParams, AffinityRecorder
from .graph import AffinityGraph
from .shadow import ContextTable, reduced_context


@dataclass
class ContextStats:
    """Per-context allocation statistics gathered during profiling."""

    allocs: int = 0
    bytes_allocated: int = 0
    max_object_size: int = 0
    frees: int = 0


@dataclass
class ProfileResult:
    """Everything downstream stages consume.

    Attributes:
        program: The profiled program.
        params: Profiling parameters used.
        graph: The noise-filtered affinity graph (90 % coverage).
        full_graph: The unfiltered graph (for diagnostics/ablations).
        contexts: Context-id interning table.
        context_stats: Per-context allocation statistics.
        object_context: oid -> context id, for every profiled allocation.
        object_site: oid -> immediate allocation call site — the *raw*
            innermost call site on the true stack, with no origin tracing.
            This is the identification key of the HDS baseline, and the
            reason it cannot see through wrapper functions (Section 5.2).
        object_sizes: oid -> size in bytes.
        trace: Object-level reference trace (macro accesses), present only
            when trace recording was requested.
        total_accesses: Macro-level heap accesses observed.
        machine_accesses: Machine-level heap accesses observed.
    """

    program: Program
    params: AffinityParams
    graph: AffinityGraph
    full_graph: AffinityGraph
    contexts: ContextTable
    context_stats: dict[int, ContextStats]
    object_context: dict[int, int]
    object_site: dict[int, Optional[int]]
    object_sizes: dict[int, int]
    trace: Optional[list[int]]
    total_accesses: int
    machine_accesses: int

    def describe_context(self, cid: int) -> str:
        """Render context *cid* using the profiled program's symbols."""
        return self.contexts.describe(cid, self.program)

    def immediate_site_of_context(self, cid: int) -> Optional[int]:
        """Innermost recorded call site of a context (HDS identification key)."""
        chain = self.contexts.chain(cid)
        return chain[-1] if chain else None


#: Rough slowdown of the paper's unoptimised Pin instrumentation.
PIN_SLOWDOWN_ESTIMATE = 500.0


class Profiler(Listener):
    """Machine listener that builds a :class:`ProfileResult`."""

    def __init__(
        self,
        program: Program,
        params: AffinityParams | None = None,
        record_trace: bool = False,
    ) -> None:
        self.program = program
        self.params = params or AffinityParams()
        self.contexts = ContextTable()
        self.recorder = AffinityRecorder(self.params)
        self.context_stats: dict[int, ContextStats] = {}
        self.object_context: dict[int, int] = {}
        self.object_site: dict[int, Optional[int]] = {}
        self.object_sizes: dict[int, int] = {}
        self.trace: Optional[list[int]] = [] if record_trace else None
        self._last_trace_oid: Optional[int] = None
        self._next_breaker = -1
        self.machine_accesses = 0
        #: Deepest shadow call stack seen at an allocation (observability).
        self.max_stack_depth = 0

    # -- listener hooks -----------------------------------------------------

    def on_alloc(self, machine: Machine, obj: HeapObject) -> None:
        if len(machine.stack) > self.max_stack_depth:
            self.max_stack_depth = len(machine.stack)
        chain = reduced_context(self.program, machine.stack)
        cid = self.contexts.intern(chain)
        self.object_context[obj.oid] = cid
        self.object_site[obj.oid] = machine.stack[-1].addr if machine.stack else None
        self.object_sizes[obj.oid] = obj.size
        stats = self.context_stats.get(cid)
        if stats is None:
            stats = self.context_stats[cid] = ContextStats()
        stats.allocs += 1
        stats.bytes_allocated += obj.size
        if obj.size > stats.max_object_size:
            stats.max_object_size = obj.size
        self.recorder.on_alloc(obj.oid, cid, obj.size, obj.alloc_seq)

    def on_free(self, machine: Machine, obj: HeapObject) -> None:
        cid = self.object_context.get(obj.oid)
        if cid is not None:
            self.context_stats[cid].frees += 1

    def on_access(
        self, machine: Machine, obj: HeapObject, offset: int, size: int, is_store: bool
    ) -> None:
        self.machine_accesses += 1
        if self.trace is not None and obj.oid != self._last_trace_oid:
            # The HDS trace is macro-level too (Section 5.1 replicates the
            # original paper, whose trace abstraction collapses consecutive
            # references to one object).  Accesses to large objects act as
            # *stream terminators* — Section 5.2: "large, widely accessed
            # objects ... cause almost any access pattern in which they are
            # present ... to immediately terminate" — modelled as unique
            # sentinel symbols no grammar rule can span.
            if obj.size >= self.params.max_object_size:
                self.trace.append(self._next_breaker)
                self._next_breaker -= 1
            else:
                self.trace.append(obj.oid)
            self._last_trace_oid = obj.oid
        self.recorder.record_access(obj.oid, size)

    # -- results --------------------------------------------------------------

    def result(self) -> ProfileResult:
        """Finalise profiling and return the collected profile.

        Everything observable is folded from stats this listener already
        gathered, so the per-event hooks stay uninstrumented.
        """
        full_graph = self.recorder.graph
        graph = self.recorder.filtered_graph()
        publish_profile_metrics(
            self.program, len(self.contexts), graph, self.machine_accesses,
            self.recorder.total_access_bytes, self.recorder.queue_length,
            self.max_stack_depth,
        )
        return ProfileResult(
            program=self.program,
            params=self.params,
            graph=graph,
            full_graph=full_graph,
            contexts=self.contexts,
            context_stats=self.context_stats,
            object_context=self.object_context,
            object_site=self.object_site,
            object_sizes=self.object_sizes,
            trace=self.trace,
            total_accesses=full_graph.total_accesses,
            machine_accesses=self.machine_accesses,
        )

    @property
    def estimated_overhead_factor(self) -> float:
        """Estimated profiling slowdown versus native execution (paper: ≤500×)."""
        return PIN_SLOWDOWN_ESTIMATE


def publish_profile_metrics(
    program: Program,
    contexts: int,
    graph: AffinityGraph,
    machine_accesses: int,
    access_bytes: int,
    queue_length: int,
    stack_depth_max: int,
) -> None:
    """The ``profile.*`` observability harvest; a no-op when obs is off.

    The one harvest point of both profiling paths (the :class:`Profiler`
    listener and the columnar trace replay).  *graph* is the filtered
    graph, *queue_length* the affinity window's length at the end.
    """
    if obs.active_registry() is None:
        return
    labels = {"program": program.name}
    obs.inc("profile.runs", 1, **labels)
    obs.inc("profile.contexts", contexts, **labels)
    obs.inc("profile.graph_nodes", len(graph), **labels)
    obs.inc("profile.graph_edges", len(graph.edges), **labels)
    obs.inc("profile.machine_accesses", machine_accesses, **labels)
    obs.inc("profile.access_bytes", access_bytes, **labels)
    obs.gauge_max("profile.affinity_queue_len", queue_length, **labels)
    obs.gauge_max("profile.shadow_stack_depth_max", stack_depth_max, **labels)
