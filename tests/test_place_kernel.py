"""The compiled placement kernel against the Python allocators it replicates.

``halo_place`` (:func:`repro.columnar.kernel.place`) places a trace's heap
ops on C replicas of ``SizeClassAllocator`` and of ``GroupAllocator`` over
a ``SizeClassAllocator`` fallback.  The Python loop of
:func:`repro.columnar.engine._place_python` stays the oracle: on random
alloc/free/realloc streams both must agree field for field (bases, moves,
realloc addresses, the peak snapshot with its purge log, every allocator
counter, and the address space's cursor, reservations, residency and RNG
state).  Every other allocator, and a run under a fault plan that flips
the state vector or caps the chunks, must take the Python loop; and two
deliberately broken kernels must each be caught.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.allocators import (
    ArenaAllocator,
    FreeListAllocator,
    ShardedGroupAllocator,
    SizeClassAllocator,
)
from repro.allocators.base import PAGE_SIZE
from repro.allocators.group import GroupAllocator
from repro.allocators.random_group import RandomPoolAllocator
from repro.allocators.size_class import MAX_SMALL
from repro.columnar import kernel
from repro.columnar.engine import place_trace
from repro.core.selectors import CompiledMatcher, GroupSelector
from repro.faults.plan import FaultPlan, fault_plan_active
from repro.machine import ProgramBuilder
from repro.machine.machine import GroupStateVector

from conftest import record_ops

pytestmark = pytest.mark.skipif(
    kernel.kernel_backend() != "c", reason="compiled kernel library unavailable"
)

def _program():
    builder = ProgramBuilder("placement")
    sites = [builder.call_site("main", f"make{i}").addr for i in range(4)]
    return builder.build(), sites


PROGRAM, SITES = _program()
#: Three grouped sites (sparse group ids, so colours differ); the fourth
#: allocates ungrouped.
GROUPS = {SITES[0]: 0, SITES[1]: 5, SITES[2]: 2}
PLAN = {site: bit for bit, site in enumerate(SITES[:3])}


def grouped(cls=GroupAllocator, fallback=SizeClassAllocator, **options):
    """A factory for a *cls* allocator over *fallback*, and its state vector."""
    vector = GroupStateVector()
    matcher = CompiledMatcher(
        [GroupSelector(gid, (frozenset({site}),)) for site, gid in GROUPS.items()], PLAN
    )
    return (lambda space: cls(space, fallback(space), matcher, vector, **options)), vector


@contextmanager
def python_loop():
    """Run with every kernel on its Python fallback."""
    saved = kernel._kernel
    kernel._kernel = False
    try:
        yield
    finally:
        kernel._kernel = saved


def observe(trace, make, seed: int) -> dict:
    """Everything a placement leaves behind, as plain values."""
    factory, vector = make()
    cols, machine, placement, addr = place_trace(PROGRAM, factory, trace, seed, PLAN, vector)
    allocator = machine.allocator
    sized = getattr(allocator, "fallback", allocator)
    space = allocator.space
    peak = placement.peak
    return {
        "bases": placement.bases,
        "moves": placement.moves,
        "realloc_addrs": placement.realloc_addrs,
        "peak_live": placement.peak_live,
        "keys": placement.keys,
        "peak": None if peak is None else (
            peak.frag, peak.ptr, peak.spans, peak.held.tolist(), peak.purges
        ),
        "observable": allocator.observable_stats(),
        "stats": vars(allocator.stats),
        "fallback_stats": vars(sized.stats),
        "grouped_live": getattr(allocator, "grouped_live_bytes", None),
        "space": (
            space._cursor, space.reserved_bytes, space.peak_reserved_bytes,
            list(space._reservations.items()), sorted(space._touched_pages),
        ),
        "rng": space._rng.getstate(),
        "addr": addr.tolist(),
    }


def place_calls(trace, make, seed: int = 1) -> dict:
    """``kernel.calls{kernel="place"}`` counters of one placement."""
    with obs.collecting(obs.MetricsRegistry()) as registry:
        factory, vector = make()
        place_trace(PROGRAM, factory, trace, seed, PLAN, vector)
    counters = registry.snapshot().counters_with_prefix("kernel.calls")
    return {key: value for key, value in counters.items() if 'kernel="place"' in key}


def assert_same(trace, make, seed: int) -> None:
    assert place_calls(trace, make) == {'kernel.calls{backend="c",kernel="place"}': 1}
    compiled = observe(trace, make, seed)
    with python_loop():
        reference = observe(trace, make, seed)
    for field, value in reference.items():
        assert compiled[field] == value, field


#: Sizes around the size-class limit, the page and the usual small classes.
_sizes = st.one_of(
    st.integers(1, 320),
    st.integers(1, 3 * MAX_SMALL),
    st.sampled_from([PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, MAX_SMALL, MAX_SMALL + 1]),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), _sizes),
        st.tuples(st.just("alloc"), _sizes),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
        st.tuples(st.just("realloc"), st.integers(0, 1 << 16), _sizes),
        st.tuples(st.just("call"), st.sampled_from(SITES)),
        st.tuples(st.just("return")),
    ),
    max_size=150,
)
_options = st.fixed_dictionaries({
    "chunk_size": st.sampled_from([1 << 11, 1 << 12, 1 << 13, 1 << 20]),
    "max_spare_chunks": st.integers(0, 2),
    "always_reuse_chunks": st.booleans(),
    "colour_stride": st.sampled_from([0, 64, 136]),
    "max_total_chunks": st.sampled_from([None, 0, 1, 3]),
    "max_grouped_size": st.sampled_from([PAGE_SIZE, 512, 2 * MAX_SMALL]),
})


@settings(max_examples=120, deadline=None)
@given(ops=_ops, seed=st.integers(0, 3))
def test_size_class_allocator_matches_python(ops, seed):
    assert_same(record_ops(PROGRAM, ops), lambda: (SizeClassAllocator, None), seed)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, options=_options, seed=st.integers(0, 3))
def test_group_allocator_matches_python(ops, options, seed):
    assert_same(record_ops(PROGRAM, ops), lambda: grouped(**options), seed)


def _churn(rounds: int = 5) -> list:
    """Grouped and ungrouped allocation rounds, most of each freed before
    the next, with growing and shrinking reallocs."""
    rng = random.Random(7)
    ops: list = []
    live = 0
    for round_ in range(rounds):
        for _ in range(40 + 20 * round_):
            site = rng.choice(SITES)
            ops += [("call", site), ("alloc", rng.choice((24, 64, 200, 700, 2000, 9000))),
                    ("return",)]
            live += 1
            if rng.random() < 0.2:
                new = rng.choice((16, 100, 3000, 20000))
                ops += [("call", site), ("realloc", rng.randrange(live), new), ("return",)]
        for _ in range(live * 3 // 4):
            ops.append(("free", rng.randrange(live)))
            live -= 1
    return ops


@pytest.mark.parametrize("options", [
    dict(chunk_size=1 << 12, max_spare_chunks=0),
    dict(chunk_size=1 << 12, always_reuse_chunks=True),
    dict(chunk_size=1 << 11, max_spare_chunks=1, colour_stride=72),
    dict(chunk_size=1 << 13, max_spare_chunks=0, max_total_chunks=4),
])
def test_churn_matches_python(options):
    trace = record_ops(PROGRAM, _churn())
    assert_same(trace, lambda: grouped(**options), seed=3)
    factory, vector = grouped(**options)
    _, _, placement, _ = place_trace(PROGRAM, factory, trace, 3, PLAN, vector)
    assert placement.moves
    if not options.get("always_reuse_chunks"):
        assert placement.peak.purges


def test_outputs_past_the_first_guess_are_retried(monkeypatch):
    """More chunks, purges and reservations than the kernel's first
    output arrays hold: the pass reruns with larger ones, same result."""
    ops: list = []
    for i in range(240):
        ops += [("call", SITES[i % 3]), ("alloc", 3000), ("return",), ("alloc", 20000)]
        ops += [("free", 0)] if i % 2 else []
    trace = record_ops(PROGRAM, ops)
    calls = []
    library = kernel._load()

    def counting(*args):
        calls.append(library.place(*args))
        return calls[-1]

    monkeypatch.setattr(kernel, "_kernel", library._replace(place=counting))
    assert_same(trace, lambda: grouped(chunk_size=1 << 12, max_spare_chunks=0), seed=2)
    assert calls[0] == -1 and calls[-1] == 0


class _SubSizeClass(SizeClassAllocator):
    pass


class _SubGroup(GroupAllocator):
    pass


@pytest.mark.parametrize("make", [
    lambda: (lambda space: RandomPoolAllocator(space, SizeClassAllocator(space), pools=4, seed=1),
             None),
    lambda: (lambda space: FreeListAllocator(space, policy="best-fit"), None),
    lambda: (ArenaAllocator, None),
    lambda: (_SubSizeClass, None),
    lambda: grouped(ShardedGroupAllocator, chunk_size=1 << 13),
    lambda: grouped(_SubGroup),
    lambda: grouped(fallback=FreeListAllocator),
    lambda: grouped(fallback=_SubSizeClass),
], ids=["random-pools", "freelist", "arena", "size-class-subclass", "sharded",
        "group-subclass", "freelist-fallback", "subclass-fallback"])
def test_ineligible_allocators_take_the_python_loop(make):
    trace = record_ops(PROGRAM, _churn(2))
    assert place_calls(trace, make) == {}


@pytest.mark.parametrize("plan", [
    FaultPlan(state_flip_rate=0.5), FaultPlan(group_max_chunks=2),
], ids=["state-flip", "chunk-cap"])
def test_active_fault_plans_take_the_python_loop(plan):
    trace = record_ops(PROGRAM, _churn(2))
    with fault_plan_active(plan):
        assert place_calls(trace, grouped) == {}
        compiled = observe(trace, grouped, 1)
        with python_loop():
            assert observe(trace, grouped, 1) == compiled
    faults = compiled["observable"]
    assert faults["faulted_matches" if plan.state_flip_rate else "degraded_allocs"] > 0


def test_without_the_library_eligible_calls_count_as_python():
    trace = record_ops(PROGRAM, _churn(2))
    with python_loop():
        assert place_calls(trace, grouped) == {
            'kernel.calls{backend="python",kernel="place"}': 1
        }


#: Two broken kernels, each a one-function edit of the C source.
MUTANTS = {
    "highest-slot": (
        """    for (int w = 0;; w++) {
        if (r->slots[w]) {
            int64_t slot = 64 * w + __builtin_ctzll(r->slots[w]);
            r->slots[w] &= r->slots[w] - 1;
            return slot;""",
        """    for (int w = 7;; w--) {
        if (r->slots[w]) {
            int64_t slot = 64 * w + 63 - __builtin_clzll(r->slots[w]);
            r->slots[w] &= ~(1ULL << (slot & 63));
            return slot;""",
    ),
    "fifo-spare": (
        """    return q->spares.v[--q->spares.n];""",
        """    int32_t id = q->spares.v[0];
    memmove(q->spares.v, q->spares.v + 1, (size_t)--q->spares.n * sizeof(int32_t));
    return id;""",
    ),
}

#: Two chunks retire while a third group still holds its only chunk;
#: that group's next chunk is the newest spare.
_SPARES = [
    ("call", SITES[0]), ("alloc", 2000), ("return",),
    ("call", SITES[1]), ("alloc", 2000), ("return",),
    ("call", SITES[2]), ("alloc", 2000), ("return",),
    ("call", SITES[0]), ("alloc", 3000), ("return",),
    ("call", SITES[1]), ("alloc", 3000), ("return",),
    ("free", 0), ("free", 0),
    ("call", SITES[2]), ("alloc", 3000), ("return",),
    ("alloc", 100), ("alloc", 100), ("free", 4), ("alloc", 100),
]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutated_kernels_are_caught(mutant, monkeypatch):
    trace = record_ops(PROGRAM, _SPARES)

    def make():
        return grouped(chunk_size=1 << 12, always_reuse_chunks=True)

    assert_same(trace, make, seed=0)
    original, broken = MUTANTS[mutant]
    assert kernel._SOURCE.count(original) == 1
    monkeypatch.setattr(kernel, "_SOURCE", kernel._SOURCE.replace(original, broken))
    monkeypatch.setattr(kernel, "_kernel", None)
    assert kernel.kernel_backend() == "c"
    with pytest.raises(AssertionError):
        assert_same(trace, make, seed=0)
