"""Machine-event trace subsystem: record once, re-run the pipeline many times.

The paper's pipeline re-executes its workload for every profiling and
measurement run.  This package removes that cost the way trace-driven
binary-optimisation pipelines do: a :class:`RecordingMachine` writes the
complete machine-event stream (calls, returns, allocations, frees,
reallocations, heap accesses, compute work) into a compact varint/delta
binary format; :func:`replay_profile` re-drives the affinity profiler from
it, the columnar engine (:mod:`repro.columnar`) measures allocator/cache
configurations from its columns, and :class:`TraceReplayer` re-drives a
full per-event :class:`~repro.machine.machine.Machine` as the oracle.

Because workloads are deterministic in ``(name, scale)`` and never observe
heap addresses, one trace per workload serves *every* parameter
configuration — see :mod:`repro.trace.sweep` for the record-once,
sweep-many helpers (one in-process path each, ``halo trace sweep``
included) and :mod:`repro.trace.access` for byte-address traces derived
from the columnar placement.
"""

from .access import AccessTrace, AccessTraceRecorder, derive_access_trace
from .format import (
    EventTrace,
    TraceFormatError,
    TraceHeader,
    TraceReader,
    TraceWriter,
)
from .record import RecordingMachine, TraceRecorder, record_workload
from .replay import TraceReplayer, replay_profile
from .sweep import (
    sweep_affinity_distances,
    sweep_cache_geometries,
    sweep_group_counts,
    sweep_merge_tolerances,
    sweep_pipeline,
)

__all__ = [
    "AccessTrace",
    "AccessTraceRecorder",
    "EventTrace",
    "RecordingMachine",
    "TraceFormatError",
    "TraceHeader",
    "TraceReader",
    "TraceRecorder",
    "TraceReplayer",
    "TraceWriter",
    "derive_access_trace",
    "record_workload",
    "replay_profile",
    "sweep_affinity_distances",
    "sweep_cache_geometries",
    "sweep_group_counts",
    "sweep_merge_tolerances",
    "sweep_pipeline",
]
