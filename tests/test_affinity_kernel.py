"""Differential tests: the columnar profile replay == the per-event replay.

``replay_profile`` walks a trace's control ops once for contexts, builds
the macro-access columns with numpy and runs the affinity queue in the
compiled ``halo_affinity`` kernel; without a compiler the same columns
drive :class:`~repro.profiling.affinity.AffinityRecorder`.  Both must
give the :class:`~repro.profiling.profiler.ProfileResult` the per-event
replay gives (:func:`reference_replay`, kept here as the oracle): the
same graphs with edge and node order, context table, ``context_stats``
in order, object maps, HDS trace and access counts.
"""

from __future__ import annotations

import dataclasses
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.allocators import AddressSpace, SizeClassAllocator
from repro.columnar import kernel
from repro.core.pipeline import HaloParams, profile_workload
from repro.harness.prepare import get_or_record_trace, halo_params_for
from repro.harness.reproduce import PAPER_BENCHMARKS
from repro.machine import Machine
from repro.machine.heap import HeapObject
from repro.profiling.affinity import AffinityParams
from repro.profiling.profiler import Profiler
from repro.trace.format import (
    OP_ALLOC, OP_CALL, OP_FREE, OP_RETURN, EventTrace, TraceWriter,
)
from repro.trace.replay import TraceReplayer, replay_profile
from repro.workloads import get_workload

from conftest import DemoProgram

pytestmark = pytest.mark.skipif(
    kernel.kernel_backend() != "c", reason="compiled kernel library unavailable"
)


class _Shim:
    """The one machine attribute the profiler reads: the live call stack."""

    __slots__ = ("stack",)

    def __init__(self) -> None:
        self.stack: list = []


def reference_replay(
    trace: EventTrace, program, params: HaloParams, record_trace: bool = False
):
    """The per-event profile replay: every event through the listener hooks."""
    cols = trace.columns()
    profiler = Profiler(program, params.affinity, record_trace=record_trace)
    shim = _Shim()
    stack = shim.stack
    sites = program.sites
    objects: dict[int, HeapObject] = {}
    next_oid = 0
    accesses = cols.access_rows()
    pos = 0
    _, ops = next(cols.segments(ctrl=True, threaded=False))
    for op, a, b, ptr in ops:
        if ptr != pos:
            for oid, offset, size, is_store in islice(accesses, ptr - pos):
                profiler.on_access(shim, objects[oid], offset, size, is_store)
            pos = ptr
        if op == OP_CALL:
            stack.append(sites[a])
        elif op == OP_RETURN:
            stack.pop()
        elif op == OP_ALLOC:
            obj = HeapObject(next_oid, 0, a, next_oid)
            objects[next_oid] = obj
            next_oid += 1
            profiler.on_alloc(shim, obj)
        elif op == OP_FREE:
            obj = objects.pop(a)
            obj.alive = False
            profiler.on_free(shim, obj)
        else:  # OP_REALLOC
            objects[a].size = b
    for oid, offset, size, is_store in accesses:
        profiler.on_access(shim, objects[oid], offset, size, is_store)
    return profiler.result()


def fallback_replay(trace: EventTrace, program, params: HaloParams, record_trace=False):
    """``replay_profile`` with the compiled library switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_kernel", False)
        assert kernel.kernel_backend() == "python"
        return replay_profile(trace, program, params, record_trace=record_trace)


def fields(profile) -> dict:
    """Everything a profile holds, as ordered, comparable values."""

    def graph(g):
        return list(g.node_accesses.items()), list(g.edges.items()), g.total_accesses

    return {
        "full_graph": graph(profile.full_graph),
        "graph": graph(profile.graph),
        "contexts": [profile.contexts.chain(cid) for cid in profile.contexts],
        "context_stats": [
            (cid, dataclasses.astuple(stats)) for cid, stats in profile.context_stats.items()
        ],
        "object_context": list(profile.object_context.items()),
        "object_site": list(profile.object_site.items()),
        "object_sizes": list(profile.object_sizes.items()),
        "trace": profile.trace,
        "total_accesses": profile.total_accesses,
        "machine_accesses": profile.machine_accesses,
    }


def harvest(run) -> tuple[object, dict, dict, list[str]]:
    """*run*'s result, ``profile.*`` counters and gauges, and span names."""
    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        result = run()
    snapshot = registry.snapshot()
    counters = {k: v for k, v in snapshot.counters.items() if k.startswith("profile.")}
    return result, counters, snapshot.gauges, [span.name for span in snapshot.spans]


def assert_all_identical(trace: EventTrace, program, params: HaloParams) -> dict:
    """C, fallback and per-event replay agree field by field, and publish
    the same ``profile.*`` harvest; returns the fields."""
    expected, *published = harvest(
        lambda: reference_replay(trace, program, params, record_trace=True)
    )
    expected = fields(expected)
    for name, replay in (("c", replay_profile), ("python", fallback_replay)):
        got, counters, gauges, _ = harvest(
            lambda: replay(trace, program, params, record_trace=True)
        )
        got = fields(got)
        for key, value in expected.items():
            assert got[key] == value, (name, key)
        assert (counters, gauges) == tuple(published[:2]), name
    return expected


# -- random streams ------------------------------------------------------------

DEMO = DemoProgram()
#: Call chains of the demo program, including the library-wrapper path.
CHAINS = (
    (DEMO.main_a, DEMO.a_malloc),
    (DEMO.main_b, DEMO.b_malloc),
    (DEMO.main_c, DEMO.c_malloc),
    (DEMO.main_helper, DEMO.helper_wrap, DEMO.wrap_malloc),
    (DEMO.main_a,),
    (),
)
MAX_OBJECT = 256

step = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, len(CHAINS) - 1),
              st.sampled_from([8, 16, 64, 200, MAX_OBJECT - 1, MAX_OBJECT, 1000])),
    st.tuples(st.just("access"), st.integers(0, 1 << 16),
              st.sampled_from([1, 4, 8, 32, 100, 4000])),
    st.tuples(st.just("access"), st.integers(0, 1 << 16), st.just(8)),
    st.tuples(st.just("repeat"), st.integers(1, 3), st.sampled_from([8, 64])),
    st.tuples(st.just("free"), st.integers(0, 1 << 16), st.just(0)),
    st.tuples(st.just("realloc"), st.integers(0, 1 << 16),
              st.sampled_from([8, MAX_OBJECT, 2000])),
)


def alloc_under(writer: TraceWriter, chain, size: int) -> int:
    """Record an allocation of *size* bytes under the call *chain*."""
    for site in chain:
        writer.call(site.addr)
    oid = writer.alloc(size)
    for _ in chain:
        writer.ret()
    return oid


def build_trace(steps, chains=()) -> EventTrace:
    """A demo-program trace: 16-byte allocations under *chains*, then *steps*."""
    writer = TraceWriter(workload="random", program=DEMO.program.name)
    live = [alloc_under(writer, CHAINS[pick], 16) for pick in chains]
    last = None
    for kind, pick, size in steps:
        if kind == "alloc":
            live.append(alloc_under(writer, CHAINS[pick], size))
        elif not live:
            continue
        elif kind == "access":
            last = live[pick % len(live)]
            writer.access(last, 0, size, is_store=pick % 2 == 1)
        elif kind == "repeat":
            if last in live:
                for _ in range(pick):
                    writer.access(last, 8, size, is_store=False)
        elif kind == "free":
            writer.free(live.pop(pick % len(live)))
        else:
            writer.realloc(live[pick % len(live)], size)
    writer.end()
    return writer.close()


class TestRandomStreams:
    @given(
        st.lists(step, max_size=200),
        st.lists(st.integers(0, len(CHAINS) - 1), max_size=24),
        st.sampled_from([1, 8, 64, 128, 512, 1 << 17]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_three_paths_agree(self, steps, chains, distance, enforce):
        params = HaloParams(affinity=AffinityParams(
            distance=distance, max_object_size=MAX_OBJECT,
            enforce_co_allocatability=enforce,
        ))
        assert_all_identical(build_trace(steps, chains), DEMO.program, params)

    def test_undersized_edge_arrays_grow_to_the_same_graph(self, monkeypatch):
        steps = [("alloc", k % len(CHAINS), 16) for k in range(12)]
        steps += [("access", k * 7, 8) for k in range(200)]
        trace = build_trace(steps)
        params = HaloParams(affinity=AffinityParams(distance=512))
        expected = fields(replay_profile(trace, DEMO.program, params))
        assert len(expected["full_graph"][1]) > 2
        monkeypatch.setattr(kernel, "_affinity_capacity", lambda contexts: 1)
        assert fields(replay_profile(trace, DEMO.program, params)) == expected


class TestRealloc:
    """A realloc across ``max_object_size`` moves later accesses' HDS breaker
    status; grouping eligibility keeps the allocation size."""

    @staticmethod
    def trace() -> EventTrace:
        writer = TraceWriter(workload="realloc", program=DEMO.program.name)
        grows, other, shrinks = (
            alloc_under(writer, chain, size)
            for chain, size in zip(CHAINS, (64, 32, 8192))
        )
        for oid in (grows, shrinks, other):
            writer.access(oid, 0, 8, is_store=False)
        writer.realloc(grows, 8192)
        writer.access(grows, 0, 8, is_store=False)
        writer.access(grows, 0, 8, is_store=False)  # same macro access: dropped
        writer.access(other, 0, 8, is_store=True)
        writer.access(grows, 0, 8, is_store=False)
        writer.realloc(shrinks, 16)
        writer.access(shrinks, 0, 8, is_store=False)
        writer.access(other, 0, 8, is_store=False)
        writer.end()
        return writer.close()

    def test_hds_trace_pinned_on_all_paths(self):
        trace = self.trace()
        profile = assert_all_identical(trace, DEMO.program, HaloParams())
        assert profile["trace"] == [0, -1, 1, -2, 1, -3, 2, 1]
        assert profile["object_sizes"] == [(0, 64), (1, 32), (2, 8192)]
        # The grown object still forms edges and the shrunk one still does
        # not: grouping eligibility keeps the allocation size.
        assert profile["full_graph"][1] == [((0, 1), 5.0)]

    def test_direct_listener_agrees(self):
        """The listener on a machine re-driven from the trace sees the same."""
        trace = self.trace()
        profiler = Profiler(DEMO.program, AffinityParams(), record_trace=True)
        machine = Machine(DEMO.program, SizeClassAllocator(AddressSpace(0)),
                          listeners=[profiler])
        TraceReplayer(trace, DEMO.program).drive(machine)
        assert fields(profiler.result()) == fields(
            replay_profile(trace, DEMO.program, HaloParams(), record_trace=True)
        )


# -- workloads -------------------------------------------------------------------


@pytest.fixture(scope="module")
def traces():
    """Per workload: its test-scale trace, recorded on demand."""
    recorded: dict = {}

    def get(name: str):
        if name not in recorded:
            workload = get_workload(name)
            recorded[name] = (workload, get_or_record_trace(name, workload=workload))
        return recorded[name]

    return get


@pytest.mark.parametrize("distance", (8, 64, 512))
@pytest.mark.parametrize(
    "name", (*PAPER_BENCHMARKS, "deepsjeng", "mix-5x3-rr", "scn-3")
)
def test_workloads_identical(traces, name, distance):
    workload, trace = traces(name)
    params = halo_params_for(workload).with_affinity_distance(distance)
    assert_all_identical(trace, workload.program, params)


@pytest.mark.parametrize("name", ("deepsjeng", "mix-3x3-rr", "scn-3"))
def test_widest_window_identical(traces, name):
    """Figure 12's widest distance; only on small traces (Python is slow there)."""
    workload, trace = traces(name)
    params = halo_params_for(workload).with_affinity_distance(1 << 17)
    assert_all_identical(trace, workload.program, params)


class TestObservability:
    def test_harvest_matches_between_backends_and_direct(self, traces):
        workload, trace = traces("health")
        params = halo_params_for(workload)
        _, *compiled = harvest(lambda: replay_profile(trace, workload.program, params))
        _, *fallback = harvest(lambda: fallback_replay(trace, workload.program, params))
        _, *direct = harvest(lambda: profile_workload(workload, params, scale="test"))
        assert compiled[:2] == fallback[:2] == direct[:2]
        assert any(key.startswith("profile.affinity_queue_len") for key in compiled[1])
        assert any(key.startswith("profile.access_bytes") for key in compiled[0])
        assert compiled[2] == fallback[2] == ["profiling.contexts", "profiling.affinity"]


class TestKernelInputs:
    def test_out_of_range_object_id_is_rejected(self):
        column = np.zeros(2, dtype=np.int32)
        with pytest.raises(ValueError, match="object id"):
            kernel.affinity(
                np.array([0, 2]), np.array([8, 8]), column, column, column, column,
                distance=64, enforce=True,
            )
