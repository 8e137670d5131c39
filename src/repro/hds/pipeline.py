"""End-to-end hot-data-streams pipeline — the paper's comparison technique.

Section 5.1: "we utilise the same specialised allocator as HALO, but with
groups that are generated through hot-data-stream analysis and identified at
runtime using the immediate call site of the allocation procedure."

The offline half mines the profiling trace (SEQUITUR → minimal hot streams →
co-allocation sets → weighted set packing); the online half reuses
:class:`~repro.allocators.group.GroupAllocator` with a matcher keyed on the
raw innermost call site rather than HALO's state-vector selectors.  That
identification choice is precisely what the evaluation shows failing on
wrapper-heavy programs (povray, leela, omnetpp, xalanc).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import obs
from ..allocators.base import AddressSpace, PAGE_SIZE
from ..allocators.group import GroupAllocator
from ..allocators.size_class import SizeClassAllocator
from ..machine.machine import GroupStateVector, Machine
from ..machine.program import Program
from ..profiling.profiler import ProfileResult
from .coalloc import (
    CoallocationSet,
    coallocation_set,
    merge_identical_sets,
    pack_sets,
    site_assignment,
)
from .streams import FlatGrammar, StreamAnalysis, StreamParams, extract_hot_streams


@dataclass(frozen=True)
class HdsParams:
    """Knobs of the replication (paper Section 5.1 defaults)."""

    streams: StreamParams = field(default_factory=StreamParams)
    chunk_size: int = 1 << 20
    slab_size: int = 16 << 20
    max_spare_chunks: int = 1
    max_grouped_size: int = PAGE_SIZE
    always_reuse_chunks: bool = False
    max_groups: Optional[int] = None


@dataclass
class HdsArtifacts:
    """Offline results of hot-data-stream analysis."""

    program: Program
    profile: ProfileResult
    analysis: StreamAnalysis
    groups: list[CoallocationSet]
    group_of_site: dict[int, int]
    params: HdsParams

    @property
    def stream_count(self) -> int:
        """Streams selected to reach the coverage target (roms blows this up)."""
        return self.analysis.stream_count


class ImmediateSiteMatcher:
    """Group membership keyed on the allocation's immediate call site.

    Reads the *raw* top of the machine's call stack — no origin tracing, no
    full-context information.  ``attach`` must be called with the
    measurement machine before the first allocation.
    """

    def __init__(self, group_of_site: dict[int, int]) -> None:
        self._group_of_site = dict(group_of_site)
        self.machine: Optional[Machine] = None

    def attach(self, machine: Machine) -> None:
        """Bind the matcher to the machine whose stack it will read."""
        self.machine = machine

    def match(self, state: int) -> Optional[int]:
        """Group of the current innermost call site (state is ignored)."""
        machine = self.machine
        if machine is None or not machine.stack:
            return None
        return self._group_of_site.get(machine.stack[-1].addr)


@dataclass
class HdsRuntime:
    """Online half: the shared group allocator + site matcher."""

    allocator: GroupAllocator
    matcher: ImmediateSiteMatcher
    state_vector: GroupStateVector

    def attach(self, machine: Machine) -> None:
        """Wire the matcher to the measurement machine."""
        self.matcher.attach(machine)


def analyse_profile(profile: ProfileResult, params: HdsParams | None = None) -> HdsArtifacts:
    """Offline analysis: trace → streams → packed co-allocation groups."""
    params = params or HdsParams()
    if profile.trace is None:
        raise ValueError(
            "hot-data-stream analysis needs a profile recorded with "
            "record_trace=True"
        )
    with obs.span("hds.sequitur"):
        grammar = FlatGrammar.from_sequence(profile.trace)
    with obs.span("hds.select"):
        analysis = extract_hot_streams(profile.trace, params.streams, grammar)
        candidates = []
        for stream in analysis.streams:
            candidate = coallocation_set(stream, profile.object_site, profile.object_sizes)
            if candidate is not None:
                candidates.append(candidate)
        groups = pack_sets(merge_identical_sets(candidates), params.max_groups)
    return HdsArtifacts(
        program=profile.program,
        profile=profile,
        analysis=analysis,
        groups=groups,
        group_of_site=site_assignment(groups),
        params=params,
    )


def make_runtime(artifacts: HdsArtifacts, space: AddressSpace) -> HdsRuntime:
    """Instantiate the specialised allocator for an HDS measurement run."""
    params = artifacts.params
    state_vector = GroupStateVector()
    matcher = ImmediateSiteMatcher(artifacts.group_of_site)
    fallback = SizeClassAllocator(space)
    allocator = GroupAllocator(
        space,
        fallback,
        matcher,
        state_vector,
        chunk_size=params.chunk_size,
        slab_size=params.slab_size,
        max_spare_chunks=params.max_spare_chunks,
        max_grouped_size=params.max_grouped_size,
        always_reuse_chunks=params.always_reuse_chunks,
    )
    return HdsRuntime(allocator=allocator, matcher=matcher, state_vector=state_vector)
