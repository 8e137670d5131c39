"""Catalogue of every metric the pipeline emits.

One place maps metric names to one-line help strings; the Prometheus
exporter renders them as ``# HELP`` lines and ``docs/OBSERVABILITY.md``
documents the same set.  Names are dot-separated, grouped by family:

* ``measure.*`` — harvested from finished :class:`Measurement` runs.
  Integer-valued and fully deterministic: serial and ``--jobs N`` runs
  produce bit-identical totals (the determinism test relies on this).
* ``profile.*`` / ``analyse.*`` — profiling/grouping work actually
  executed; totals depend on cache warmth (a cache hit skips the work).
* ``trace.*`` — event-trace record/decode/replay throughput.
* ``kernel.calls`` — compiled-library entry points, by kernel and backend.
* ``columnar.*`` — selector keys a grouped columnar cell resolved; its
  spans ``columnar.selectors|place|hierarchy|residency`` are in the docs.
* ``harness.*`` — resilient-runner operational counters; inherently
  nondeterministic (retries, latencies).
* ``phase.seconds`` / spans — wall time; nondeterministic by nature.
"""

from __future__ import annotations

__all__ = ["CATALOGUE", "help_for"]

#: Metric name -> help line (Prometheus ``# HELP``; docs catalogue).
CATALOGUE: dict[str, str] = {
    # phase timing
    "phase.seconds": "Wall seconds spent in a pipeline phase (label: phase).",
    # measurement harvest (deterministic; labels: workload, config)
    "measure.runs": "Finished measurement runs (workload seeds executed).",
    "measure.machine.loads": "Heap load operations executed by the simulated machine.",
    "measure.machine.stores": "Heap store operations executed by the simulated machine.",
    "measure.machine.allocs": "Allocations serviced by the simulated machine.",
    "measure.machine.frees": "Frees serviced by the simulated machine.",
    "measure.machine.reallocs": "Reallocs serviced by the simulated machine.",
    "measure.machine.calls": "Function calls entered on the simulated machine.",
    "measure.machine.instrumentation_toggles": "HALO monitoring state-vector flips.",
    "measure.cache.accesses": "Accesses presented to the cache hierarchy.",
    "measure.cache.l1_hits": "L1D hits.",
    "measure.cache.l1_misses": "L1D misses.",
    "measure.cache.l2_hits": "L2 hits.",
    "measure.cache.l2_misses": "L2 misses.",
    "measure.cache.l3_hits": "L3 hits.",
    "measure.cache.l3_misses": "L3 misses.",
    "measure.cache.tlb_misses": "TLB misses.",
    "measure.alloc.allocs": "Allocations serviced by the allocator under test.",
    "measure.alloc.frees": "Frees serviced by the allocator under test.",
    "measure.alloc.grouped_allocs": "Allocations placed into HALO group chunks.",
    "measure.alloc.forwarded_allocs": "Allocations forwarded to the fallback allocator.",
    "measure.alloc.degraded_allocs": "Allocations degraded to fallback after chunk-budget exhaustion.",
    "measure.alloc.faulted_matches": "Selector matches dropped by injected faults.",
    "measure.alloc.chunks_created": "Group chunks created (chunk churn).",
    "measure.alloc.chunks_reused": "Group chunks reused after emptying (chunk churn).",
    "measure.alloc.chunks_purged": "Group chunks returned to the OS (chunk churn).",
    "measure.alloc.migrated_regions": "Live regions moved by group-table hot-swaps.",
    "measure.alloc.migrated_bytes": "Bytes copied by group-table hot-swaps.",
    "measure.peak_live_bytes": "Sum over runs of peak live heap bytes.",
    # per-engine measurement throughput (labels: engine, workload, config;
    # runs/events are deterministic, seconds is wall time)
    "engine.measure.runs": "Measurement runs per backend (labels: engine, workload, config).",
    "engine.measure.events": "Trace events (or direct accesses) measured per backend.",
    "engine.measure.seconds": "Wall seconds spent measuring, per backend.",
    # columnar placement (labels: workload, config; deterministic)
    "columnar.selector.keys": "Distinct (state, stack) selector keys a grouped cell resolved.",
    # profiling harvest (labels: program)
    "profile.runs": "Profiles built, by trace replay or the listener (cache hits do not profile).",
    "profile.contexts": "Allocation contexts in the profile's context table.",
    "profile.graph_nodes": "Nodes in the recorded affinity graph.",
    "profile.graph_edges": "Edges in the recorded affinity graph.",
    "profile.machine_accesses": "Machine accesses observed while profiling.",
    "profile.access_bytes": "Bytes of heap access traffic folded into affinity.",
    "profile.affinity_queue_len": "Affinity sliding-window queue length at harvest (gauge).",
    "profile.shadow_stack_depth_max": "Deepest shadow call stack seen while profiling (gauge).",
    # analysis harvest (labels: program)
    "analyse.runs": "Grouping/identification pipeline executions.",
    "analyse.groups": "Affinity groups kept by grouping.",
    "analyse.grouped_contexts": "Contexts covered by the kept groups.",
    "analyse.monitored_sites": "Allocation sites monitored by the synthesised allocator.",
    "analyse.selectors": "Context selectors synthesised for the grouped allocator.",
    "analyse.grouping.seeds": "Seed edges considered by the Figure-6 grouping loop.",
    "analyse.grouping.merge_steps": "Members merged into candidate groups (grouping iterations).",
    # trace record/replay (labels: workload)
    "trace.records": "Workload executions recorded to an event trace.",
    "trace.record.events": "Events written while recording traces.",
    "trace.record.seconds": "Wall seconds spent recording traces.",
    "trace.replays": "Profiles driven from a recorded trace.",
    "trace.replay.events": "Events replayed from traces.",
    "trace.replay.seconds": "Wall seconds spent replaying traces.",
    "trace.decode.events": "Events decoded from trace bodies (fresh recordings keep their columns).",
    "trace.decode.seconds": "Wall seconds spent decoding trace bodies into columns.",
    # compiled kernel library (labels: kernel, backend)
    "kernel.calls": (
        "Kernel entry-point calls by backend (c, or the python fallback); "
        "kernel=place counts only allocators the placement kernel replicates."
    ),
    # heap sanitizer (deterministic: op counts fix the check schedule)
    "sanitize.checks": "Full heap-invariant walks executed by the sanitizer.",
    "sanitize.findings": "Invariant/oracle violations the sanitizer reported.",
    "sanitize.shadow.ops": "Heap operations mirrored into the shadow-heap oracle.",
    # serving daemon (deterministic: decision-level counters only)
    "serve.requests": "Requests served by the long-running allocation service.",
    "serve.epochs": "Serve epochs completed (request batches between decisions).",
    "serve.swaps": "Group-table hot-swaps committed to the live allocator.",
    "serve.rollbacks": "Candidate tables rejected by the canary (kept incumbent).",
    "serve.swap_aborts": "Swaps aborted mid-migration (fault flip; incumbent kept).",
    "serve.drift_events": "Windowed drift detections that triggered re-grouping.",
    "serve.migrated_regions": "Live regions moved across all committed swaps.",
    "serve.migrated_bytes": "Bytes copied across all committed swaps.",
    "serve.regroup_attempts": "Re-grouping attempts (scheduled or drift-triggered).",
    "serve.regroup_stalls": "Re-grouper stalls absorbed (service kept serving).",
    "serve.snapshots": "Crash-safe service snapshots flushed to the journal.",
    "serve.sanitize_checks": "Heap-consistency walks run at swap/epoch boundaries.",
    "serve.sanitize_findings": "Heap-consistency violations found while serving.",
    "serve.live_bytes": "Live retained bytes on the service heap (gauge).",
    # generated scenarios (deterministic: specs are pure functions of seeds)
    "scenario.workloads": "Generated workload classes compiled and registered from specs.",
    "scenario.runs": "Executions of generated scenario/mix workloads.",
    "scenario.ticks": "Scheduling ticks driven through generated workloads (label: workload).",
    "scenario.tenants": "Tenant generators interleaved by mix runs (label: workload).",
    "scenario.corpus.entries": "Corpus entries derived while building/verifying corpora.",
    "scenario.fuzz.ops": "Heap ops contributed to the fuzz matrix by generated scenarios.",
    # resilient-runner operations
    "harness.tasks": "Parallel tasks submitted (label: kind).",
    "harness.task_seconds": "Per-task wall latency histogram (label: kind).",
    "harness.task_retries": "Task attempts retried after a tolerated failure.",
    "harness.task_timeouts": "Tasks cancelled for exceeding their deadline.",
    "harness.task_requeues": "Healthy bystander tasks requeued after a pool rebuild.",
    "harness.pool_rebuilds": "Process-pool rebuilds after a worker crash or timeout.",
    "harness.task_failures": "Tasks that exhausted retries and were reported failed.",
}


def help_for(name: str) -> str:
    """Return the catalogue help line for *name* (empty when unknown)."""
    return CATALOGUE.get(name, "")
