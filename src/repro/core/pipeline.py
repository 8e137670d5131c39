"""The end-to-end HALO pipeline (paper Figure 4).

``profile → group → identify → rewrite → synthesise allocator``:

1. :func:`profile_workload` runs the target under the profiling listener on
   a small input ("workloads are profiled on small test inputs and measured
   using larger ref inputs");
2. :func:`optimise_profile` clusters the affinity graph (Figure 6),
   synthesises selectors (Figure 10) and produces the BOLT instrumentation
   plan;
3. :func:`make_runtime` instantiates the specialised group allocator and
   the state vector for a measurement run.

The split mirrors the real tool's offline/online boundary: everything up to
the plan is offline analysis; :class:`HaloRuntime` is what gets "linked
against" the rewritten binary at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Protocol

from ..allocators.base import AddressSpace, PAGE_SIZE
from ..allocators.group import GroupAllocator
from ..allocators.size_class import SizeClassAllocator
from ..machine.machine import GroupStateVector, Machine
from ..machine.program import Program
from ..profiling.affinity import AffinityParams
from ..profiling.profiler import Profiler, ProfileResult
from ..rewriting.bolt import BoltRewriter, InstrumentationPlan
from ..sanitize.invariants import active_sanitizer
from ..sanitize.shadow import SanitizerListener
from .. import obs
from .grouping import Group, GroupingParams, assign_groups, group_contexts
from .identification import IdentificationResult, synthesise_selectors
from .selectors import CompiledMatcher, monitored_sites


class Runnable(Protocol):
    """What the pipeline needs from a workload."""

    name: str

    @property
    def program(self) -> Program:
        """The workload's static program model."""
        ...

    def run(self, machine: Machine, scale: str) -> None:
        """Execute the workload body on *machine* at *scale*."""
        ...


@dataclass(frozen=True)
class HaloParams:
    """Every HALO knob in one place (paper Section 5.1 defaults).

    ``chunk_size``/``max_spare_chunks``/``always_reuse_chunks``/``max_groups``
    correspond to the artefact appendix's ``halo run`` flags.
    """

    affinity: AffinityParams = field(default_factory=AffinityParams)
    grouping: GroupingParams = field(default_factory=GroupingParams)
    chunk_size: int = 1 << 20
    slab_size: int = 16 << 20
    max_spare_chunks: int = 1
    max_grouped_size: int = PAGE_SIZE
    always_reuse_chunks: bool = False
    max_groups: Optional[int] = None
    #: §4.4 extension: stagger each group's bump start to spread cache sets.
    colour_stride: int = 0

    def with_affinity_distance(self, distance: int) -> "HaloParams":
        """Copy with a different affinity distance (Figure 12 sweeps this)."""
        return replace(self, affinity=replace(self.affinity, distance=distance))


@dataclass
class HaloArtifacts:
    """Everything the offline pipeline produces for one workload."""

    program: Program
    profile: ProfileResult
    groups: list[Group]
    identification: IdentificationResult
    plan: InstrumentationPlan
    params: HaloParams

    @property
    def context_assignment(self) -> dict[int, int]:
        """Context id -> group id for grouped contexts."""
        return assign_groups(self.groups)

    def describe_groups(self) -> list[str]:
        """Human-readable group listing (paper Figure 9's textual form)."""
        lines = []
        for group in self.groups:
            lines.append(
                f"group {group.gid}: weight={group.weight:.0f} "
                f"accesses={group.accesses}"
            )
            for cid in sorted(group.members):
                lines.append(f"  - {self.profile.describe_context(cid)}")
        return lines


@dataclass
class HaloRuntime:
    """The online half: specialised allocator + rewritten-binary state."""

    allocator: GroupAllocator
    state_vector: GroupStateVector
    instrumentation: dict[int, int]

    def machine_kwargs(self) -> dict:
        """Keyword arguments to construct a measurement Machine."""
        return {
            "allocator": self.allocator,
            "instrumentation": self.instrumentation,
            "state_vector": self.state_vector,
        }

    def attach(self, machine: Machine) -> None:
        """Load the rewritten binary's instrumentation into *machine*."""
        machine.instrumentation = dict(self.instrumentation)
        machine.state_vector = self.state_vector


def profile_workload(
    workload: Runnable,
    params: HaloParams | None = None,
    scale: str = "test",
    record_trace: bool = False,
    seed: int = 0,
) -> ProfileResult:
    """Run *workload* under the profiler and return its profile."""
    params = params or HaloParams()
    program = workload.program
    space = AddressSpace(seed)
    allocator = SizeClassAllocator(space)
    profiler = Profiler(program, params.affinity, record_trace=record_trace)
    listeners: list = [profiler]
    sanitizer_config = active_sanitizer()
    if sanitizer_config is not None:
        listeners.append(SanitizerListener(sanitizer_config))
    machine = Machine(program, allocator, listeners=listeners)
    workload.run(machine, scale)
    machine.finish()  # the sanitizer's phase-boundary check runs here
    return profiler.result()


def optimise_profile(profile: ProfileResult, params: HaloParams | None = None) -> HaloArtifacts:
    """Offline analysis: grouping, identification, and the rewriting plan."""
    params = params or HaloParams()
    groups = group_contexts(profile.graph, params.grouping)
    if params.max_groups is not None and len(groups) > params.max_groups:
        groups = sorted(groups, key=lambda g: (-g.accesses, g.gid))[: params.max_groups]

    context_group: dict[int, Optional[int]] = {
        cid: None for cid in profile.context_stats
    }
    context_group.update(assign_groups(groups))

    rewriter = BoltRewriter(profile.program)
    identification = synthesise_selectors(
        groups,
        profile.contexts,
        context_group,
        site_allowed=rewriter.can_instrument,
    )
    plan = rewriter.instrument(monitored_sites(identification.selectors))
    if obs.active_registry() is not None:
        labels = {"program": profile.program.name}
        obs.inc("analyse.runs", 1, **labels)
        obs.inc("analyse.groups", len(groups), **labels)
        obs.inc("analyse.grouped_contexts", sum(len(g.members) for g in groups), **labels)
        obs.inc("analyse.selectors", len(identification.selectors), **labels)
        obs.inc(
            "analyse.monitored_sites",
            len(monitored_sites(identification.selectors)),
            **labels,
        )
    return HaloArtifacts(
        program=profile.program,
        profile=profile,
        groups=groups,
        identification=identification,
        plan=plan,
        params=params,
    )


def optimise_workload(
    workload: Runnable,
    params: HaloParams | None = None,
    profile_scale: str = "test",
    seed: int = 0,
) -> HaloArtifacts:
    """One-shot offline pipeline: profile on the test input, then optimise."""
    params = params or HaloParams()
    profile = profile_workload(workload, params, scale=profile_scale, seed=seed)
    return optimise_profile(profile, params)


def make_runtime(
    artifacts: HaloArtifacts,
    space: AddressSpace,
    allocator_cls: type[GroupAllocator] = GroupAllocator,
) -> HaloRuntime:
    """Instantiate the specialised allocator for a measurement run.

    ``allocator_cls`` selects the pool design: the paper's bump allocator
    (default) or the §6 free-list-sharded extension
    (:class:`repro.allocators.ShardedGroupAllocator`).
    """
    params = artifacts.params
    state_vector = GroupStateVector()
    matcher = CompiledMatcher(
        list(artifacts.identification.selectors), artifacts.plan.bit_for_site
    )
    fallback = SizeClassAllocator(space)
    allocator = allocator_cls(
        space,
        fallback,
        matcher,
        state_vector,
        chunk_size=params.chunk_size,
        slab_size=params.slab_size,
        max_spare_chunks=params.max_spare_chunks,
        max_grouped_size=params.max_grouped_size,
        always_reuse_chunks=params.always_reuse_chunks,
        colour_stride=params.colour_stride,
    )
    return HaloRuntime(
        allocator=allocator,
        state_vector=state_vector,
        instrumentation=dict(artifacts.plan.bit_for_site),
    )
