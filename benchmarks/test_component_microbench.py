"""Microbenchmarks of the system's hot components (pytest-benchmark).

These time the pieces whose cost the paper discusses: the profiler's
affinity queue (the dominant Pin-tool cost), SEQUITUR compression (the HDS
analysis cost), the cache simulator, both allocators' fast paths, the
grouping algorithm and the compiled selector matcher — the recorded
events that make up a recording or a serve request (a load, and a call
chain around a malloc and a free, on a ``RecordingMachine``), whole
test-scale recordings (``record_workload``) — and the columnar placement
pass (``place_trace``) of each standalone allocator family over a
recorded multi-threaded mix.
"""

import random

import pytest

from repro.allocators import (
    ALLOCATOR_FAMILIES,
    AddressSpace,
    GroupAllocator,
    RandomPoolAllocator,
    SizeClassAllocator,
)
from repro.cache import CacheHierarchy
from repro.core import CompiledMatcher, GroupSelector, GroupingParams, group_contexts
from repro.hds import Sequitur, extract_hot_streams
from repro.machine import GroupStateVector, ProgramBuilder
from repro.profiling import AffinityParams, AffinityRecorder
from repro.columnar.engine import place_trace
from repro.trace.record import RecordingMachine, record_workload
from repro.workloads import get_workload


def _access_stream(n, objects, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(objects), 8) for _ in range(n)]


def test_affinity_recorder_throughput(benchmark):
    """Profiling hot loop: 50k accesses over 500 objects, A=128."""
    accesses = _access_stream(50_000, 500)

    def run():
        recorder = AffinityRecorder(AffinityParams(distance=128))
        for oid in range(500):
            recorder.on_alloc(oid, oid % 24, 32, oid)
        for oid, nbytes in accesses:
            recorder.record_access(oid, nbytes)
        return len(recorder.graph.edges)

    assert benchmark(run) > 0


def test_affinity_recorder_large_window(benchmark):
    """Same stream with A=8192: cost must stay near the A=128 case."""
    accesses = _access_stream(4_000, 500)

    def run():
        recorder = AffinityRecorder(AffinityParams(distance=8192))
        for oid in range(500):
            recorder.on_alloc(oid, oid % 24, 32, oid)
        for oid, nbytes in accesses:
            recorder.record_access(oid, nbytes)
        return len(recorder.graph.edges)

    assert benchmark(run) > 0


def test_sequitur_compression(benchmark):
    """HDS analysis: compress a 40k-symbol trace with heavy repetition."""
    block = list(range(400))
    trace = block * 100

    def run():
        grammar = Sequitur.from_sequence(trace)
        return len(grammar.rules)

    assert benchmark(run) >= 1


def test_hot_stream_extraction(benchmark):
    rng = random.Random(1)
    trace = []
    for _ in range(200):
        start = rng.randrange(0, 50)
        trace.extend(range(start, start + 40))

    def run():
        return extract_hot_streams(trace).stream_count

    assert benchmark(run) > 0


def test_cache_hierarchy_throughput(benchmark):
    """100k mixed accesses through L1/L2/L3 + TLB."""
    rng = random.Random(2)
    addresses = [rng.randrange(0, 4 << 20) for _ in range(100_000)]

    def run():
        memory = CacheHierarchy()
        for addr in addresses:
            memory.access(addr, 8)
        return memory.snapshot().l1_misses

    assert benchmark(run) > 0


def test_size_class_allocator_fast_path(benchmark):
    """50k malloc/free pairs through the jemalloc-like baseline."""

    def run():
        allocator = SizeClassAllocator(AddressSpace(0))
        addrs = [allocator.malloc(32 + (i % 8) * 16) for i in range(25_000)]
        for addr in addrs:
            allocator.free(addr)
        return allocator.stats.total_allocs

    assert benchmark(run) == 25_000


class _RoundRobin:
    def __init__(self, n):
        self.n = n
        self.i = 0

    def match(self, state):
        self.i += 1
        return self.i % self.n


def test_group_allocator_fast_path(benchmark):
    """50k grouped malloc/free pairs across 4 groups."""

    def run():
        space = AddressSpace(0)
        allocator = GroupAllocator(
            space, SizeClassAllocator(space), _RoundRobin(4), GroupStateVector()
        )
        addrs = [allocator.malloc(48) for _ in range(25_000)]
        for addr in addrs:
            allocator.free(addr)
        return allocator.grouped_allocs

    assert benchmark(run) == 25_000


def test_grouping_algorithm(benchmark):
    """Figure 6 grouping on a 60-node affinity graph."""
    from repro.profiling import AffinityGraph

    rng = random.Random(3)
    graph = AffinityGraph()
    for node in range(60):
        graph.add_access(node, rng.randrange(10, 10_000))
    for _ in range(400):
        a, b = rng.randrange(60), rng.randrange(60)
        graph.add_edge_weight(a, b, rng.uniform(1, 500))

    def run():
        return len(group_contexts(graph, GroupingParams(group_threshold=0.0)))

    assert benchmark(run) >= 1


def test_selector_matcher(benchmark):
    """1M selector evaluations (the per-malloc identification cost)."""
    selectors = [
        GroupSelector(g, (frozenset({g * 3, g * 3 + 1}), frozenset({g * 3 + 2})))
        for g in range(1, 8)
    ]
    plan = {site: bit for bit, site in enumerate(sorted({s for sel in selectors for s in sel.sites}))}
    matcher = CompiledMatcher(selectors, plan)
    states = [random.Random(4).getrandbits(21) for _ in range(1000)]

    def run():
        hits = 0
        for _ in range(1000):
            for state in states:
                if matcher.match(state) is not None:
                    hits += 1
        return hits

    assert benchmark(run) >= 0


def _recorded_machine():
    """A ``RecordingMachine`` (what production records on, unplaced) and a
    3-site chain into malloc."""
    builder = ProgramBuilder("microbench")
    builder.function("malloc", in_main_binary=False)
    chain = (
        builder.call_site("main", "make"),
        builder.call_site("make", "wrap"),
        builder.call_site("wrap", "malloc"),
    )
    return RecordingMachine(builder.build()), chain


def test_recorded_load(benchmark):
    """100k recorded loads of one object (the per-access event cost)."""
    machine, _ = _recorded_machine()
    obj = machine.malloc(64)
    load = machine.load

    def run():
        for i in range(100_000):
            load(obj, (i & 7) * 8, 8)
        return len(machine._kinds)

    assert benchmark(run) >= 100_000


def test_recorded_chain_malloc_free(benchmark):
    """20k recorded 3-site call chains around a malloc, then a free."""
    machine, chain = _recorded_machine()

    def run():
        for _ in range(20_000):
            with machine.call(*chain):
                obj = machine.malloc(48)
            machine.free(obj)
        return len(machine._kinds)

    assert benchmark(run) >= 160_000


@pytest.mark.parametrize("name", ["deepsjeng", "roms", "povray", "ammp"])
def test_record_workload(benchmark, name):
    """One test-scale recording of a fig-13 benchmark (the harness's
    record phase, per workload)."""
    workload = get_workload(name)
    trace = benchmark(record_workload, workload, scale="test")
    assert trace.header.events > 0


@pytest.fixture(scope="module")
def recorded_mix():
    """A five-tenant, three-thread mix, recorded once (ref scale, seed 1)."""
    workload = get_workload("mix-5x3-rr")
    return workload, record_workload(workload, scale="ref", seed=1)


@pytest.mark.parametrize("family", ["random-pools", "freelist-ff", "freelist-bf", "arena"])
def test_place_trace(benchmark, recorded_mix, family):
    """The placement pass over a recorded mix's heap ops (about 20k
    mallocs and frees, 1.6k thread switches) on a fresh allocator."""
    workload, trace = recorded_mix
    if family == "random-pools":
        def factory(space):
            return RandomPoolAllocator(space, SizeClassAllocator(space), pools=4, seed=1)
    else:
        factory = ALLOCATOR_FAMILIES[family]

    def run():
        _, machine, placement, _ = place_trace(workload.program, factory, trace, seed=1)
        return machine.allocator.stats.total_allocs + len(placement.bases)

    assert benchmark(run) > 0
