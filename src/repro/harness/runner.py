"""Single-run measurement harness.

Runs one workload under one allocator configuration with the full cache
hierarchy attached, and collects everything the evaluation needs: cycle
count (via the cost model), per-level miss counts, allocator statistics and
the fragmentation snapshot taken at peak memory usage (paper Table 1
measures "fragmentation behaviour of grouped objects at peak memory
usage").
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from ..allocators import ALLOCATOR_FAMILIES
from ..allocators.base import AddressSpace, Allocator
from ..allocators.group import FragmentationSnapshot, GroupAllocator
from ..allocators.random_group import RandomPoolAllocator
from ..allocators.size_class import SizeClassAllocator
from ..cache.hierarchy import CacheHierarchy, HierarchyConfig, HierarchyStats
from ..cache.sharing import FalseSharingTracker
from ..cache.timing import CostModel
from ..calder.pipeline import make_runtime as make_calder_runtime
from ..core.pipeline import HaloArtifacts, make_runtime as make_halo_runtime
from ..hds.pipeline import HdsArtifacts, make_runtime as make_hds_runtime
from ..machine.events import Listener
from ..machine.machine import Machine, MachineMetrics
from ..sanitize.invariants import active_sanitizer
from ..sanitize.shadow import SanitizerListener
from ..trace.format import EventTrace
from ..workloads.base import Workload
from .. import obs

logger = logging.getLogger(__name__)

#: Engines ``run_measurement`` accepts for trace-driven runs.
ENGINES = ("auto", "columnar", "event")


@dataclass
class Measurement:
    """Results of one measured run."""

    workload: str
    config: str
    scale: str
    seed: int
    cycles: float
    cache: HierarchyStats
    accesses: int
    allocs: int
    frees: int
    instrumentation_toggles: int
    peak_live_bytes: int
    frag_at_peak: Optional[FragmentationSnapshot]
    grouped_allocs: int = 0
    forwarded_allocs: int = 0
    #: Grouped requests the allocator degraded to its fallback (pool
    #: exhaustion); zero in healthy runs.
    degraded_allocs: int = 0


def total_live_bytes(allocator: Allocator) -> int:
    """Live bytes across an allocator and (if present) its fallback."""
    live = allocator.stats.live_bytes
    fallback = getattr(allocator, "fallback", None)
    if fallback is not None:
        live += fallback.stats.live_bytes
    return live


class PeakTracker(Listener):
    """Listener capturing the fragmentation snapshot at peak memory usage."""

    def __init__(self, allocator: Allocator) -> None:
        self.allocator = allocator
        self.peak_live = 0
        self.frag_at_peak: Optional[FragmentationSnapshot] = None

    def on_alloc(self, machine: Machine, obj) -> None:
        """Update the peak and capture the fragmentation snapshot at it."""
        live = total_live_bytes(self.allocator)
        if live > self.peak_live:
            self.peak_live = live
            if isinstance(self.allocator, GroupAllocator):
                self.frag_at_peak = self.allocator.fragmentation()


def resolve_engine(engine: str, trace: Optional[EventTrace]) -> str:
    """The measurement engine one run will actually use.

    ``auto`` picks the columnar backend for trace-driven runs unless a
    sanitizer is active (the shadow-heap oracle observes per-event
    machine traffic, which only the event path generates); an explicit
    ``columnar`` request degrades to ``event`` under the same condition
    rather than silently skipping the sanitizer.  Direct (non-trace)
    runs always report ``direct``.
    """
    if trace is None:
        return "direct"
    if engine not in ENGINES:
        raise ValueError(f"unknown measurement engine {engine!r} (expected one of {ENGINES})")
    if engine == "event":
        return "event"
    if active_sanitizer() is not None:
        if engine == "columnar":
            logger.info(
                "sanitizer active: columnar engine falls back to per-event replay"
            )
        return "event"
    return "columnar"


def _publish_engine_metrics(
    workload: str, config: str, engine: str, events: int, elapsed: float
) -> None:
    """Per-engine throughput harvest (``engine.measure.*``).

    Labelled by engine so exported snapshots distinguish columnar from
    event (and direct) runs; the deterministic ``measure.*`` family keeps
    its existing label set, so cross-engine totals stay comparable.
    """
    if obs.active_registry() is None:
        return
    labels = {"engine": engine, "workload": workload, "config": config}
    obs.inc("engine.measure.runs", 1, **labels)
    obs.inc("engine.measure.events", events, **labels)
    obs.inc("engine.measure.seconds", elapsed, **labels)


def run_measurement(
    workload: Workload,
    make_allocator: Callable[[AddressSpace], Allocator],
    config: str,
    scale: str = "ref",
    seed: int = 0,
    cost_model: CostModel | None = None,
    hierarchy_config: HierarchyConfig | None = None,
    instrumentation: Optional[dict[int, int]] = None,
    state_vector=None,
    attach: Optional[Callable[[Machine], None]] = None,
    driver: Optional[Callable[[Machine], None]] = None,
    trace: Optional[EventTrace] = None,
    engine: str = "auto",
) -> Measurement:
    """Run *workload* once under the given allocator factory and measure it.

    When *trace* is given the run is trace-driven: *engine* selects the
    measurement backend — ``columnar`` for the batched simulation core,
    ``event`` for full-fidelity per-event replay, or ``auto`` (the
    default) which picks columnar whenever it applies.  Both engines
    produce bit-identical measurements to executing the workload at the
    recorded scale (pass the matching *scale* so the result is labelled
    correctly).

    When *driver* is given it replaces the workload body: it receives the
    fully configured machine and is responsible for driving it to
    ``finish`` — e.g. ``TraceReplayer(trace, workload.program).drive``.
    *driver* and *trace* are mutually exclusive.
    """
    cost_model = cost_model or CostModel()
    resolved = resolve_engine(engine, trace)
    if trace is not None:
        if driver is not None:
            raise ValueError("pass either trace= or driver=, not both")
        if resolved == "columnar":
            from ..columnar.engine import measure_columnar

            started = perf_counter()
            measurement = measure_columnar(
                workload,
                make_allocator,
                config,
                trace,
                scale=scale,
                seed=seed,
                cost_model=cost_model,
                hierarchy_config=hierarchy_config,
                instrumentation=instrumentation,
                state_vector=state_vector,
                attach=attach,
            )
            _publish_engine_metrics(
                workload.name, config, "columnar",
                trace.header.events, perf_counter() - started,
            )
            return measurement
        from ..trace.replay import TraceReplayer

        driver = TraceReplayer(trace, workload.program).drive
    space = AddressSpace(seed)
    allocator = make_allocator(space)
    memory = CacheHierarchy(hierarchy_config)
    tracker = PeakTracker(allocator)
    listeners: list = [tracker]
    # Line ownership is tracked wherever simulated threads can switch: a
    # direct run may, an event replay does exactly where its trace records
    # a switch.  A single-threaded replay shares no line, so it skips the
    # per-access tracking (as the columnar engine does) and only reports
    # its one thread.
    threaded = trace is None or bool(trace.switches())
    sharing = FalseSharingTracker()
    if threaded:
        listeners.append(sharing)
    sanitizer = None
    sanitizer_config = active_sanitizer()
    if sanitizer_config is not None:
        sanitizer = SanitizerListener(sanitizer_config)
        listeners.append(sanitizer)
    machine = Machine(
        workload.program,
        allocator,
        memory=memory,
        listeners=listeners,
        instrumentation=instrumentation,
        state_vector=state_vector,
    )
    if attach is not None:
        attach(machine)
    started = perf_counter()
    if driver is not None:
        driver(machine)
    else:
        workload.run(machine, scale)
    elapsed = perf_counter() - started
    if sanitizer is not None:
        # ``run_measurement`` does not call ``machine.finish()``, so the
        # phase-boundary check must run explicitly.
        sanitizer.final_check(machine)
    cache = memory.snapshot()
    metrics = machine.metrics
    if not threaded and metrics.allocs:
        sharing.threads.add(0)
    _publish_measurement_metrics(
        workload.name, config, metrics, cache, allocator, tracker.peak_live,
        sharing=sharing,
    )
    _publish_engine_metrics(
        workload.name, config, resolved,
        trace.header.events if trace is not None else metrics.accesses,
        elapsed,
    )
    return Measurement(
        workload=workload.name,
        config=config,
        scale=scale,
        seed=seed,
        cycles=cost_model.cycles(metrics, cache),
        cache=cache,
        accesses=metrics.accesses,
        allocs=metrics.allocs,
        frees=metrics.frees,
        instrumentation_toggles=metrics.instrumentation_toggles,
        peak_live_bytes=tracker.peak_live,
        frag_at_peak=tracker.frag_at_peak,
        grouped_allocs=getattr(allocator, "grouped_allocs", 0),
        forwarded_allocs=getattr(allocator, "forwarded_allocs", 0),
        degraded_allocs=getattr(allocator, "degraded_allocs", 0),
    )


def _publish_measurement_metrics(
    workload: str,
    config: str,
    metrics: MachineMetrics,
    cache: HierarchyStats,
    allocator: Allocator,
    peak_live: int,
    sharing: Optional[FalseSharingTracker] = None,
) -> None:
    """Harvest one finished run into the active metrics registry.

    This is the single publish point for the deterministic ``measure.*``
    counter family: everything comes from stats the run already
    collected, so the hot paths are untouched and the counters are
    integer totals that merge identically in any order (serial vs
    ``--jobs N`` runs agree bit-for-bit).  A no-op when observability is
    off.
    """
    if obs.active_registry() is None:
        return
    labels = {"workload": workload, "config": config}
    obs.inc("measure.runs", 1, **labels)
    obs.inc("measure.peak_live_bytes", peak_live, **labels)
    for name, value in metrics.as_counters().items():
        obs.inc(f"measure.machine.{name}", value, **labels)
    for name, value in cache.as_counters().items():
        obs.inc(f"measure.cache.{name}", value, **labels)
    if sharing is not None:
        for name, value in sharing.as_counters().items():
            obs.inc(f"measure.cache.{name}", value, **labels)
    for name, value in allocator.observable_stats().items():
        obs.inc(f"measure.alloc.{name}", value, **labels)


#: ``(allocator factory, attach hook)`` — what :func:`run_measurement` takes.
Configured = tuple[Callable[[AddressSpace], Allocator], Optional[Callable[[Machine], None]]]

#: A configuration builder: ``(artifacts, seed) -> (factory, attach)``.
Builder = Callable[[object, int], Configured]

#: Pools of the Figure-15 random-pool allocator.
RANDOM_POOLS = 4


def _runtime_config(make_runtime: Callable) -> Builder:
    """Builder for an artifact-driven runtime (HALO, HDS, Calder).

    The runtime is created with the run's address space inside the
    factory; the attach hook then wires it to the measurement machine.
    """

    def build(artifacts, seed: int) -> Configured:
        holder: dict = {}

        def factory(space: AddressSpace) -> Allocator:
            holder["runtime"] = make_runtime(artifacts, space)
            return holder["runtime"].allocator

        return factory, lambda machine: holder["runtime"].attach(machine)

    return build


def _random_pools(artifacts, seed: int) -> Configured:
    def factory(space: AddressSpace) -> Allocator:
        return RandomPoolAllocator(
            space, SizeClassAllocator(space), pools=RANDOM_POOLS, seed=seed
        )

    return factory, None


def _family(name: str) -> Builder:
    return lambda artifacts, seed: (ALLOCATOR_FAMILIES[name], None)


#: Configuration name -> builder.  ``halo``/``hds``/``calder`` need their
#: offline artifacts; the rest ignore them.  Every standalone allocator
#: family (``baseline`` is the jemalloc-like size-class allocator)
#: registers under its own name.
CONFIGS: dict[str, Builder] = {
    "halo": _runtime_config(make_halo_runtime),
    "hds": _runtime_config(make_hds_runtime),
    "calder": _runtime_config(make_calder_runtime),
    "random-pools": _random_pools,
    **{name: _family(name) for name in ALLOCATOR_FAMILIES},
}


def measure(
    workload: Workload,
    config: str,
    artifacts=None,
    *,
    scale: str = "ref",
    seed: int = 0,
    **kwargs,
) -> Measurement:
    """Measure *workload* under the registered configuration *config*.

    *artifacts* are the offline-phase outputs the configuration needs
    (HALO, HDS or Calder artifacts); *kwargs* pass through to
    :func:`run_measurement` (``trace=``/``engine=``, cost model...).
    """
    try:
        build = CONFIGS[config]
    except KeyError:
        raise ValueError(
            f"unknown configuration {config!r}; expected one of {tuple(CONFIGS)}"
        ) from None
    factory, attach = build(artifacts, seed)
    return run_measurement(
        workload, factory, config=config, scale=scale, seed=seed, attach=attach, **kwargs
    )


def measure_baseline(
    workload: Workload, scale: str = "ref", seed: int = 0, **kwargs
) -> Measurement:
    """Measure the unmodified workload under the jemalloc-like baseline."""
    return measure(workload, "baseline", scale=scale, seed=seed, **kwargs)


def measure_halo(
    workload: Workload, artifacts: HaloArtifacts, scale: str = "ref", seed: int = 0, **kwargs
) -> Measurement:
    """Measure the HALO-optimised configuration."""
    return measure(workload, "halo", artifacts, scale=scale, seed=seed, **kwargs)


def measure_hds(
    workload: Workload, artifacts: HdsArtifacts, scale: str = "ref", seed: int = 0, **kwargs
) -> Measurement:
    """Measure the hot-data-streams configuration."""
    return measure(workload, "hds", artifacts, scale=scale, seed=seed, **kwargs)


def measure_random_pools(
    workload: Workload, scale: str = "ref", seed: int = 0, **kwargs
) -> Measurement:
    """Measure the Figure-15 random-pool allocator configuration."""
    return measure(workload, "random-pools", scale=scale, seed=seed, **kwargs)


def measure_family(
    workload: Workload, family: str, scale: str = "ref", seed: int = 0, **kwargs
) -> Measurement:
    """Measure a registered standalone allocator family (freelist, arena...)."""
    return measure(workload, family, scale=scale, seed=seed, **kwargs)
