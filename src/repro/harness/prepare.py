"""Shared offline-phase preparation for the evaluation engine.

Every evaluation cell run by :mod:`repro.harness.parallel` needs the
same expensive inputs before it can measure anything: a trace-recording profile of the
workload, the HALO artifacts derived from it, and (for Figures 13/14) the
hot-data-streams artifacts.  :func:`prepare_workload` produces all three,
consulting an optional :class:`~repro.core.artifact_cache.ArtifactCache`
so warm re-runs skip the profile and analyse phases entirely, and reports
how long each phase took so the speedup is observable in the per-phase
wall-time report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from ..core.artifact_cache import ArtifactCache, artifact_key
from ..obs.metrics import MetricsSnapshot
from ..obs.spans import phase_span
from ..core.pipeline import HaloArtifacts, HaloParams, optimise_profile, profile_workload
from ..hds.pipeline import HdsArtifacts, HdsParams, analyse_profile
from ..profiling.profiler import ProfileResult
from ..trace.format import EventTrace, TraceFormatError
from ..trace.record import record_workload
from ..trace.replay import replay_profile
from ..workloads.base import Workload, get_workload
from .experiment import TrialResult, miss_reduction, speedup

logger = logging.getLogger(__name__)

#: Scale every evaluation profile is recorded at (paper: "workloads are
#: profiled on small test inputs and measured using larger ref inputs").
PROFILE_SCALE = "test"


def halo_params_for(workload: Workload, **overrides) -> HaloParams:
    """HALO parameters for *workload*, honouring its artefact-appendix quirks."""
    merged = dict(workload.halo_overrides)
    merged.update(overrides)
    return HaloParams(**merged)


def hds_params_for(workload: Workload, **overrides) -> HdsParams:
    """HDS parameters for *workload*, honouring its quirks."""
    merged = dict(workload.hds_overrides)
    merged.update(overrides)
    return HdsParams(**merged)


@dataclass
class PhaseTimes:
    """Accumulated wall-time (seconds) per evaluation phase.

    In a parallel run the times are summed across worker tasks, so they
    report the *work done* per phase rather than elapsed wall-clock; a
    warm artifact cache shows up as ``profile`` and ``analyse`` collapsing
    to ~0 while ``measure`` is unchanged.
    """

    profile: float = 0.0
    analyse: float = 0.0
    measure: float = 0.0
    #: Wall-time spent recording event traces (a one-off per workload).
    record: float = 0.0
    #: Artifact-cache traffic observed while accumulating.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Event-trace traffic: fresh recordings vs profile replays from trace.
    trace_records: int = 0
    trace_replays: int = 0
    #: Degradations: corrupt traces replaced by direct execution, and
    #: measurement cells that needed a retry before succeeding.
    trace_fallbacks: int = 0
    task_retries: int = 0
    #: Resilient-engine churn: healthy tasks requeued after a pool
    #: rebuild, and the rebuilds themselves.
    requeues: int = 0
    pool_rebuilds: int = 0
    #: Metrics collected in worker processes (the cell runner merges each
    #: task's snapshot here; ``None`` when every task ran inline and
    #: published to the caller's registry directly).
    metrics: Optional[MetricsSnapshot] = None

    def add(self, other: "PhaseTimes") -> None:
        """Fold *other*'s counters (and metrics snapshot) into this one."""
        self.profile += other.profile
        self.analyse += other.analyse
        self.measure += other.measure
        self.record += other.record
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.trace_records += other.trace_records
        self.trace_replays += other.trace_replays
        self.trace_fallbacks += other.trace_fallbacks
        self.task_retries += other.task_retries
        self.requeues += other.requeues
        self.pool_rebuilds += other.pool_rebuilds
        if other.metrics is not None:
            if self.metrics is None:
                self.metrics = MetricsSnapshot()
            self.metrics.merge(other.metrics)

    def report(self, wall: Optional[float] = None) -> str:
        """One-line human-readable report."""
        parts = [
            f"profile {self.profile:8.2f}s",
            f"analyse {self.analyse:8.2f}s",
            f"measure {self.measure:8.2f}s",
        ]
        if self.record:
            parts.append(f"record {self.record:8.2f}s")
        if self.cache_hits or self.cache_misses:
            parts.append(f"cache {self.cache_hits} hit / {self.cache_misses} miss")
        if self.trace_records or self.trace_replays:
            parts.append(
                f"trace {self.trace_records} recorded / {self.trace_replays} replayed"
            )
        if self.trace_fallbacks:
            parts.append(f"degraded {self.trace_fallbacks} trace fallback(s)")
        if self.task_retries:
            parts.append(f"retried {self.task_retries} task(s)")
        if self.requeues:
            parts.append(f"requeued {self.requeues} task(s)")
        if self.pool_rebuilds:
            parts.append(f"rebuilt pool {self.pool_rebuilds}x")
        line = "phase wall-time:  " + "   ".join(parts)
        if wall is not None:
            line += f"   (elapsed {wall:.2f}s)"
        return line


def trace_key_for(name: str, scale: str = PROFILE_SCALE) -> str:
    """Cache key of the event trace for (*name*, *scale*).

    Deliberately excludes every HALO/HDS parameter: the recorded event
    stream is a pure function of the workload and scale, so one cached
    trace serves all parameter configurations — that sharing is the whole
    point of trace-driven re-runs.
    """
    return artifact_key(
        workload=name, profile_scale=scale, kind="event-trace"
    )


def get_or_record_trace(
    name: str,
    cache: Optional[ArtifactCache] = None,
    workload: Optional[Workload] = None,
    scale: str = PROFILE_SCALE,
    times: Optional[PhaseTimes] = None,
) -> EventTrace:
    """Fetch the event trace for *name* from *cache*, recording on a miss.

    The freshly recorded trace is stored back (when a cache is present) so
    later preparations — in this or any worker process, under any
    parameter configuration — replay instead of re-executing.

    A cached trace whose body fails its header checksum is treated as a
    miss and re-recorded: corruption degrades to a re-record, never to
    garbage events.
    """
    key = trace_key_for(name, scale)
    if cache is not None:
        cached = cache.get(key)
        if isinstance(cached, EventTrace):
            if cached.verify():
                if times is not None:
                    times.cache_hits += 1
                return cached
            logger.warning(
                "cached trace for %s (%s) failed its checksum; re-recording",
                name, scale,
            )
        if times is not None:
            times.cache_misses += 1
    with phase_span(times, "record", workload=name):
        trace = record_workload(workload if workload is not None else name, scale=scale)
    if times is not None:
        times.trace_records += 1
    if cache is not None:
        cache.put(key, trace)
    return trace


@dataclass
class PreparedArtifacts:
    """The offline-phase outputs for one benchmark.

    ``hds`` is None when preparation was requested without the HDS
    analysis (Table 1 only needs HALO artifacts).
    """

    workload_name: str
    profile: ProfileResult
    halo: HaloArtifacts
    hds: Optional[HdsArtifacts]
    key: str
    from_cache: bool = False
    times: PhaseTimes = field(default_factory=PhaseTimes)


def prepare_workload(
    name: str,
    halo_params: Optional[HaloParams] = None,
    hds_params: Optional[HdsParams] = None,
    include_hds: bool = True,
    cache: Optional[ArtifactCache] = None,
    workload: Optional[Workload] = None,
    trace: Optional[EventTrace] = None,
    use_trace: Optional[bool] = None,
) -> PreparedArtifacts:
    """Profile *name* and derive HALO (and optionally HDS) artifacts.

    Deterministic: two calls with the same arguments produce identical
    artifacts, whether they run in this process, a worker process, or are
    replayed from the cache — which is what lets the parallel engine and
    the warm-cache path reproduce the serial results bit-for-bit.

    When an event *trace* is supplied (or ``use_trace`` enables the
    trace-driven path — the default whenever a cache is available), the
    profile is obtained by replaying the recorded event stream instead of
    re-executing the workload.  Replay is bit-identical to direct
    profiling, and the trace's cache key excludes all HALO/HDS parameters,
    so sweeping parameters re-records nothing.
    """
    workload = workload if workload is not None else get_workload(name)
    halo_params = halo_params or halo_params_for(workload)
    hds_params = hds_params or hds_params_for(workload)
    key = artifact_key(
        workload=name,
        profile_scale=PROFILE_SCALE,
        halo_params=halo_params,
        hds_params=hds_params,
    )
    times = PhaseTimes()

    if cache is not None:
        cached = cache.get(key)
        if isinstance(cached, PreparedArtifacts) and (cached.hds is not None or not include_hds):
            times.cache_hits += 1
            return PreparedArtifacts(
                workload_name=name,
                profile=cached.profile,
                halo=cached.halo,
                hds=cached.hds,
                key=key,
                from_cache=True,
                times=times,
            )
        if isinstance(cached, PreparedArtifacts):
            # Entry exists but lacks the HDS half: upgrade it in place.
            times.cache_hits += 1
            with phase_span(times, "analyse", workload=name):
                hds = analyse_profile(cached.profile, hds_params)
            prepared = PreparedArtifacts(
                workload_name=name,
                profile=cached.profile,
                halo=cached.halo,
                hds=hds,
                key=key,
                from_cache=True,
                times=times,
            )
            cache.put(key, _strip_for_cache(prepared))
            return prepared
        times.cache_misses += 1

    if use_trace is None:
        use_trace = trace is not None or cache is not None
    profile = None
    if use_trace:
        if trace is None:
            trace = get_or_record_trace(
                name, cache=cache, workload=workload, times=times
            )
        with phase_span(times, "profile", workload=name, source="trace"):
            try:
                profile = replay_profile(
                    trace, workload.program, halo_params, record_trace=True
                )
                times.trace_replays += 1
            except TraceFormatError as exc:
                # Graceful degradation: a corrupt or truncated trace falls
                # back to direct workload execution, which produces the same
                # profile the replay would have (replay is bit-identical).
                logger.warning(
                    "trace replay for %s failed (%s); falling back to direct execution",
                    name, exc,
                )
                times.trace_fallbacks += 1
                profile = None
    if profile is None:
        with phase_span(times, "profile", workload=name, source="direct"):
            profile = profile_workload(
                workload, halo_params, scale=PROFILE_SCALE, record_trace=True
            )

    with phase_span(times, "analyse", workload=name):
        halo = optimise_profile(profile, halo_params)
        hds = analyse_profile(profile, hds_params) if include_hds else None

    prepared = PreparedArtifacts(
        workload_name=name,
        profile=profile,
        halo=halo,
        hds=hds,
        key=key,
        from_cache=False,
        times=times,
    )
    if cache is not None:
        cache.put(key, _strip_for_cache(prepared))
    return prepared


def _strip_for_cache(prepared: PreparedArtifacts) -> PreparedArtifacts:
    """Copy of *prepared* without run-local timing/cache-state fields."""
    return PreparedArtifacts(
        workload_name=prepared.workload_name,
        profile=prepared.profile,
        halo=prepared.halo,
        hds=prepared.hds,
        key=prepared.key,
    )


@dataclass
class WorkloadEvaluation:
    """All measurements for one benchmark."""

    name: str
    baseline: TrialResult
    halo: TrialResult
    hds: TrialResult
    random_pools: Optional[TrialResult]
    halo_groups: int
    hds_groups: int
    hds_streams: int
    graph_nodes: int
    #: Extra standalone allocator families measured alongside the paper
    #: configurations, keyed by family name (``freelist-ff``, ``arena``...).
    extra: dict[str, TrialResult] = field(default_factory=dict)

    @property
    def halo_miss_reduction(self) -> float:
        return miss_reduction(self.baseline, self.halo)

    @property
    def hds_miss_reduction(self) -> float:
        return miss_reduction(self.baseline, self.hds)

    @property
    def halo_speedup(self) -> float:
        return speedup(self.baseline, self.halo)

    @property
    def hds_speedup(self) -> float:
        return speedup(self.baseline, self.hds)

    @property
    def random_speedup(self) -> float:
        if self.random_pools is None:
            return 0.0
        return speedup(self.baseline, self.random_pools)

    def family_speedup(self, family: str) -> float:
        """Speedup of an extra *family* over the baseline (0.0 if missing)."""
        trial = self.extra.get(family)
        if trial is None:
            return 0.0
        return speedup(self.baseline, trial)
