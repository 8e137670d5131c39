"""repro — a simulation-backed reproduction of HALO (CGO 2020).

HALO ("Heap Allocation Layout Optimiser", Savage & Jones) is a post-link,
profile-guided optimisation tool that clusters related heap-allocation
contexts and synthesises a specialised pool allocator to co-locate them,
cutting L1 data-cache misses.  This package rebuilds the complete system —
profiler, affinity analysis, grouping, selector synthesis, binary-rewriting
model, the specialised allocator, the hot-data-streams comparison
technique, a cache-hierarchy simulator, and synthetic stand-ins for the 11
evaluation benchmarks — in pure Python.

Quick start::

    from repro import (
        get_workload, HaloParams, profile_workload, optimise_profile,
        measure_baseline, measure_halo,
    )

    workload = get_workload("povray")
    profile = profile_workload(workload, HaloParams(), scale="test")
    artifacts = optimise_profile(profile)
    before = measure_baseline(workload)
    after = measure_halo(workload, artifacts)
    print(1 - after.cache.l1_misses / before.cache.l1_misses)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every table and figure.
"""

from .allocators import (
    AddressSpace,
    BumpAllocator,
    GroupAllocator,
    RandomPoolAllocator,
    SizeClassAllocator,
)
from .cache import CacheHierarchy, CostModel, HierarchyConfig
from .core import (
    GroupingParams,
    HaloArtifacts,
    HaloParams,
    group_contexts,
    make_runtime,
    optimise_profile,
    optimise_workload,
    profile_workload,
    synthesise_selectors,
)
from .harness import (
    Measurement,
    measure,
    measure_baseline,
    measure_halo,
    measure_hds,
    measure_random_pools,
    run_trials,
)
from .hds import HdsParams, Sequitur, analyse_profile, extract_hot_streams
from .machine import Machine, Program, ProgramBuilder
from . import obs
from .obs import MetricsRegistry, MetricsSnapshot
from .profiling import AffinityGraph, AffinityParams, Profiler, ProfileResult
from .trace import (
    EventTrace,
    TraceRecorder,
    TraceReplayer,
    record_workload,
    replay_profile,
)
from .workloads import Workload, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "AddressSpace",
    "AffinityGraph",
    "AffinityParams",
    "BumpAllocator",
    "CacheHierarchy",
    "CostModel",
    "EventTrace",
    "GroupAllocator",
    "GroupingParams",
    "HaloArtifacts",
    "HaloParams",
    "HdsParams",
    "HierarchyConfig",
    "Machine",
    "Measurement",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Profiler",
    "ProfileResult",
    "Program",
    "ProgramBuilder",
    "RandomPoolAllocator",
    "Sequitur",
    "SizeClassAllocator",
    "TraceRecorder",
    "TraceReplayer",
    "Workload",
    "analyse_profile",
    "extract_hot_streams",
    "get_workload",
    "group_contexts",
    "make_runtime",
    "measure",
    "measure_baseline",
    "measure_halo",
    "measure_hds",
    "measure_random_pools",
    "obs",
    "optimise_profile",
    "optimise_workload",
    "profile_workload",
    "record_workload",
    "replay_profile",
    "run_trials",
    "synthesise_selectors",
    "workload_names",
]
