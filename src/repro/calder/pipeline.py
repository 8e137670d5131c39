"""Name-based co-allocation pipeline (Calder et al. replication).

The scheme profiles a *temporal relationship graph* over allocation names
(the XOR of the last four return addresses), clusters it, and enforces the
placement with a specialised allocator that re-derives the name on every
allocation by walking the dynamic call stack.

To keep the comparison apples-to-apples with HALO and the hot-data-streams
replication, the temporal graph is built by the same affinity replay
(same window, same four constraints) and the clusters are formed by the
same Figure-6 grouping — only the *identification* differs: fixed-depth
stack names instead of full reduced contexts and selectors.  That isolates
exactly the variable the HALO paper criticises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import xor
from typing import Optional

import numpy as np

from ..allocators.base import AddressSpace, PAGE_SIZE
from ..allocators.group import GroupAllocator
from ..allocators.size_class import SizeClassAllocator
from ..core.grouping import Group, GroupingParams, assign_groups, group_contexts
from ..machine.machine import GroupStateVector, Machine
from ..machine.program import Program
from ..profiling.affinity import AffinityParams
from ..profiling.graph import AffinityGraph
from ..trace.format import OP_ALLOC
from ..trace.record import record_workload
from ..trace.replay import first_seen, replay_accesses
from .naming import NAME_DEPTH, NameTable, name_of


@dataclass(frozen=True)
class CalderParams:
    """Knobs of the replication."""

    affinity: AffinityParams = field(default_factory=AffinityParams)
    grouping: GroupingParams = field(default_factory=GroupingParams)
    name_depth: int = NAME_DEPTH
    chunk_size: int = 1 << 20
    slab_size: int = 16 << 20
    max_spare_chunks: int = 1
    max_grouped_size: int = PAGE_SIZE


@dataclass
class CalderArtifacts:
    """Offline results: the name graph, its groups, and the name mapping."""

    program: Program
    names: NameTable
    #: The noise-filtered name graph the groups were formed from.
    graph: AffinityGraph
    groups: list[Group]
    group_of_name: dict[int, int]
    params: CalderParams

    @property
    def distinct_names(self) -> int:
        """Allocation names observed during profiling."""
        return len(self.names)


class NameMatcher:
    """Runtime identification: re-derive the name by walking the stack.

    This is the expensive part the HALO paper contrasts with its bit-vector
    selectors ("much of the existing work in this area relies on the
    dynamic call stack for this purpose").
    """

    def __init__(self, group_of_name: dict[int, int], name_depth: int) -> None:
        self._group_of_name = dict(group_of_name)
        self._depth = name_depth
        self.machine: Optional[Machine] = None

    def attach(self, machine: Machine) -> None:
        """Bind the matcher to the machine whose stack it will walk."""
        self.machine = machine

    def match(self, state: int) -> Optional[int]:
        """Group of the current stack's XOR name (state vector unused)."""
        machine = self.machine
        if machine is None:
            return None
        return self._group_of_name.get(name_of(machine.stack, self._depth))


@dataclass
class CalderRuntime:
    """Online half: the shared group allocator + the stack-walking matcher."""

    allocator: GroupAllocator
    matcher: NameMatcher
    state_vector: GroupStateVector

    def attach(self, machine: Machine) -> None:
        """Wire the matcher to the measurement machine."""
        self.matcher.attach(machine)


def profile_workload(
    workload, params: CalderParams | None = None, scale: str = "test", seed: int = 0
) -> CalderArtifacts:
    """Profile *workload* under name-based attribution and cluster the graph.

    Replays one recording: each allocating call-site-trie node gets its
    name once, in first-allocation order, and name ids stand in for
    context ids in the affinity replay HALO's profile uses.
    """
    params = params or CalderParams()
    program = workload.program
    cols = record_workload(workload, scale=scale, seed=seed).columns()
    allocs = cols.ctrl[0] == OP_ALLOC
    trie = cols.call_trie()
    alloc_node = trie.nodes(np.flatnonzero(allocs))
    names = NameTable()
    node_name = np.zeros(trie.count, dtype=np.int32)
    for node in first_seen(alloc_node):
        node_name[node] = names.intern(reduce(xor, trie.path(node)[-params.name_depth:], 0))
    graph = replay_accesses(
        cols, node_name[alloc_node], cols.ctrl[1][allocs], params.affinity
    )[0].filtered_by_coverage(params.affinity.node_coverage)
    groups = group_contexts(graph, params.grouping)
    assignment = assign_groups(groups)
    group_of_name = {names.name(nid): gid for nid, gid in assignment.items()}
    return CalderArtifacts(
        program=program,
        names=names,
        graph=graph,
        groups=groups,
        group_of_name=group_of_name,
        params=params,
    )


def make_runtime(artifacts: CalderArtifacts, space: AddressSpace) -> CalderRuntime:
    """Instantiate the specialised allocator for a Calder measurement run."""
    params = artifacts.params
    state_vector = GroupStateVector()
    matcher = NameMatcher(artifacts.group_of_name, params.name_depth)
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
    )
    return CalderRuntime(allocator=allocator, matcher=matcher, state_vector=state_vector)
