"""Calder's replayed profile == the name-keyed listener it replaced.

:func:`repro.calder.profile_workload` records the workload once and
replays the recording: one XOR name per allocating call-site-trie node,
then the affinity replay HALO's profile uses, with name ids as the node
column.  :class:`CalderProfiler` below is the listener that used to
execute the workload and feed the Python affinity queue one access at a
time; it stays here as the oracle.  Name table, filtered graph (node and
edge order included), groups and ``group_of_name`` must all be equal.
"""

from __future__ import annotations

import pytest

from repro.allocators import AddressSpace, SizeClassAllocator
from repro.calder import CalderParams, NameTable, name_of, profile_workload
from repro.core.grouping import assign_groups, group_contexts
from repro.harness.reproduce import PAPER_BENCHMARKS
from repro.machine import Machine
from repro.machine.events import Listener
from repro.profiling.affinity import AffinityParams, AffinityRecorder
from repro.workloads import get_workload


class CalderProfiler(Listener):
    """Profiling listener keyed on fixed-depth allocation names."""

    def __init__(self, params: CalderParams) -> None:
        self.params = params
        self.names = NameTable()
        self.recorder = AffinityRecorder(params.affinity)

    def on_alloc(self, machine, obj) -> None:
        nid = self.names.intern(name_of(machine.stack, self.params.name_depth))
        self.recorder.on_alloc(obj.oid, nid, obj.size, obj.alloc_seq)

    def on_access(self, machine, obj, offset, size, is_store) -> None:
        self.recorder.record_access(obj.oid, size)


def listener_artifacts(workload, params: CalderParams) -> dict:
    """Calder's offline results by direct execution under the listener."""
    profiler = CalderProfiler(params)
    machine = Machine(
        workload.program, SizeClassAllocator(AddressSpace(0)), listeners=[profiler]
    )
    workload.run(machine, "test")
    graph = profiler.recorder.filtered_graph()
    groups = group_contexts(graph, params.grouping)
    names = profiler.names
    return {
        "names": [names.name(nid) for nid in range(len(names))],
        "graph": graph,
        "groups": groups,
        "group_of_name": {
            names.name(nid): gid for nid, gid in assign_groups(groups).items()
        },
    }


def replayed_artifacts(workload, params: CalderParams) -> dict:
    artifacts = profile_workload(workload, params)
    names = artifacts.names
    return {
        "names": [names.name(nid) for nid in range(len(names))],
        "graph": artifacts.graph,
        "groups": artifacts.groups,
        "group_of_name": artifacts.group_of_name,
    }


def assert_same(replayed: dict, direct: dict) -> None:
    assert replayed["names"] == direct["names"]
    graph, expected = replayed["graph"], direct["graph"]
    assert list(graph.node_accesses.items()) == list(expected.node_accesses.items())
    assert list(graph.edges.items()) == list(expected.edges.items())
    assert graph.total_accesses == expected.total_accesses
    assert replayed["groups"] == direct["groups"]
    assert replayed["group_of_name"] == direct["group_of_name"]


@pytest.mark.parametrize("name", [*PAPER_BENCHMARKS, "mix-5x3-rr"])
def test_replay_matches_listener(name):
    workload = get_workload(name)
    params = CalderParams()
    assert_same(replayed_artifacts(workload, params), listener_artifacts(workload, params))


@pytest.mark.parametrize("name_depth", [0, 1, 2])
def test_other_name_depths_match_listener(name_depth):
    """Depth 0 XORs the whole stack (``stack[-0:]``), as ``name_of`` does."""
    workload = get_workload("xalanc")
    params = CalderParams(affinity=AffinityParams(distance=64), name_depth=name_depth)
    assert_same(replayed_artifacts(workload, params), listener_artifacts(workload, params))
