"""Record-once, sweep-many parameter studies over a single event trace.

The ROADMAP's north star — "as many scenarios as you can imagine" — needs
the offline pipeline to be re-runnable at negligible cost.  Every helper
here starts from one :class:`~repro.trace.format.EventTrace` and varies a
single knob family:

* :func:`sweep_pipeline` — arbitrary :class:`~repro.core.pipeline.HaloParams`
  configurations; profiles are memoised per distinct affinity-parameter set
  (grouping-only sweeps re-profile zero times).
* :func:`sweep_affinity_distances` — the paper's Figure 12 window sweep.
* :func:`sweep_merge_tolerances` — grouping merge tolerance T (Figure 6).
* :func:`sweep_group_counts` — the ``max_groups`` cap.
* :func:`sweep_cache_geometries` — §5.2 what-if cache configurations, via a
  derived byte-address trace.

``halo trace sweep`` runs these helpers in process: a sweep point costs
one kernel-backed affinity replay at most, less than handing it to a
worker process would.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.pipeline import HaloArtifacts, HaloParams, optimise_profile
from .replay import replay_profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.hierarchy import HierarchyConfig, HierarchyStats
    from ..machine.program import Program
    from ..profiling.profiler import ProfileResult
    from .format import EventTrace


def sweep_pipeline(
    trace: "EventTrace",
    program: "Program",
    configs: Sequence[HaloParams],
) -> list[HaloArtifacts]:
    """Run the offline pipeline once per config, all from one trace.

    Profile replays are memoised on the affinity parameters, so configs
    that only differ downstream of profiling (grouping, chunk sizing,
    group caps) share a single replay.
    """
    profiles: dict = {}
    artifacts: list[HaloArtifacts] = []
    for config in configs:
        profile: Optional["ProfileResult"] = profiles.get(config.affinity)
        if profile is None:
            profile = profiles[config.affinity] = replay_profile(trace, program, config)
        artifacts.append(optimise_profile(profile, config))
    return artifacts


def sweep_affinity_distances(
    trace: "EventTrace",
    program: "Program",
    distances: Sequence[int],
    base: HaloParams | None = None,
) -> dict[int, HaloArtifacts]:
    """Sweep the affinity window size A (paper Figure 12)."""
    base = base or HaloParams()
    configs = [base.with_affinity_distance(d) for d in distances]
    return dict(zip(distances, sweep_pipeline(trace, program, configs)))


def sweep_merge_tolerances(
    trace: "EventTrace",
    program: "Program",
    tolerances: Sequence[float],
    base: HaloParams | None = None,
) -> dict[float, HaloArtifacts]:
    """Sweep the grouping merge tolerance T (paper Figure 6)."""
    base = base or HaloParams()
    configs = [
        replace(base, grouping=replace(base.grouping, merge_tolerance=t))
        for t in tolerances
    ]
    return dict(zip(tolerances, sweep_pipeline(trace, program, configs)))


def sweep_group_counts(
    trace: "EventTrace",
    program: "Program",
    counts: Sequence[Optional[int]],
    base: HaloParams | None = None,
) -> dict[Optional[int], HaloArtifacts]:
    """Sweep the cap on the number of groups (None = uncapped)."""
    base = base or HaloParams()
    configs = [replace(base, max_groups=count) for count in counts]
    return dict(zip(counts, sweep_pipeline(trace, program, configs)))


def sweep_cache_geometries(
    trace: "EventTrace",
    program: "Program",
    configs: Sequence["HierarchyConfig"],
    seed: int = 0,
) -> list["HierarchyStats"]:
    """Replay one recording through each cache geometry (§5.2 what-ifs).

    Places the trace under the baseline allocator once (the columnar
    placement pass), then re-runs only the cache/TLB filters per geometry.
    """
    from .access import derive_access_trace

    address_trace = derive_access_trace(trace, program, seed=seed)
    return [address_trace.replay(config) for config in configs]
