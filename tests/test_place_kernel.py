"""The compiled placement kernel against the Python allocators it replicates.

``halo_place`` (:func:`repro.columnar.kernel.place`) places a trace's heap
ops on C replicas of ``SizeClassAllocator``, of ``GroupAllocator`` and
``RandomPoolAllocator`` over a ``SizeClassAllocator`` fallback, of
``FreeListAllocator`` (first and best fit) and of ``ArenaAllocator``.
The Python loop of :func:`repro.columnar.engine._place_python` stays the
oracle: on random alloc/free/realloc streams (with thread switches for
the arenas) both must agree field for field (bases, moves, realloc
addresses, the peak snapshot with its purge log, every counter of the
allocator and its parts, free ranges, mailboxes, generator states, and
the address space's cursor, reservations, residency and RNG state).  The
random pools' choice is checked against this interpreter's own
``random``.  Sharded, subclassed and used allocators, allocators over a
fallback that is not a fresh size-class allocator, and a run under a
fault plan that flips the state vector or caps the chunks must take the
Python loop; and four deliberately broken kernels must each be caught.
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
from repro.allocators.freelist import POLICIES
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


def state_of(allocator) -> dict:
    """The counters and end state *allocator* and its parts are left with."""
    state = {
        "type": type(allocator).__name__,
        "stats": vars(allocator.stats),
        "observable": allocator.observable_stats(),
    }
    if isinstance(allocator, (GroupAllocator, RandomPoolAllocator)):
        state["fallback"] = state_of(allocator.fallback)
    if isinstance(allocator, GroupAllocator):
        state["grouped_live"] = allocator.grouped_live_bytes
    elif isinstance(allocator, RandomPoolAllocator):
        state["rng"] = allocator._rng.getstate()
        state["pools"] = [
            (vars(pool.stats), pool.pools, pool._pool_base, pool._pool_end, pool._cursor)
            for pool in allocator._pools
        ]
    elif isinstance(allocator, ArenaAllocator):
        state["thread"] = allocator.current_arena
        state["mailboxes"] = allocator._mailboxes
        state["arenas"] = [state_of(arena) for arena in allocator._arenas]
    elif isinstance(allocator, FreeListAllocator):
        index = allocator._by_length
        if index is None:
            tree = allocator._fit_index
            index = sorted(zip(sum(tree._lengths, []), sum(tree._starts, [])))
        state.update(
            counters=(
                allocator.coalesced_frees, allocator.inplace_reallocs, allocator.moved_reallocs
            ),
            pools=allocator._pools,
            free_ranges=list(allocator.iter_free_ranges()),
            index=sorted(index),
        )
    return state


def observe(trace, make, seed: int) -> dict:
    """Everything a placement leaves behind, as plain values."""
    factory, vector = make()
    cols, machine, placement, addr = place_trace(PROGRAM, factory, trace, seed, PLAN, vector)
    allocator = machine.allocator
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
        "allocator": state_of(allocator),
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
    library = kernel._load()
    codes = []

    def counting(*args):
        codes.append(library.place(*args))
        return codes[-1]

    kernel._kernel = library._replace(place=counting)
    try:
        compiled = observe(trace, make, seed)
    finally:
        kernel._kernel = library
    assert codes[-1] == 0  # the replica placed every op, no Python rerun
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


#: The stream above with thread switches, for the arenas.
_threaded_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), _sizes),
        st.tuples(st.just("alloc"), _sizes),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
        st.tuples(st.just("realloc"), st.integers(0, 1 << 16), _sizes),
        st.tuples(st.just("thread"), st.integers(0, 6)),
    ),
    max_size=150,
)


def random_pools(pools: int, max_pooled_size: int, pool_size: int, seed: int):
    """A factory for the Figure-15 probe over a fresh size-class fallback."""
    def factory(space):
        return RandomPoolAllocator(
            space, SizeClassAllocator(space), pools=pools, seed=seed,
            max_pooled_size=max_pooled_size, pool_size=pool_size,
        )
    return lambda: (factory, None)


def free_list(policy: str, pool_size: int):
    return lambda: ((lambda space: FreeListAllocator(space, policy, pool_size)), None)


def arenas(count: int, policy: str, pool_size: int):
    return lambda: ((lambda space: ArenaAllocator(space, count, policy, pool_size)), None)


#: Pool sizes at a page, off a page multiple, and the allocators' defaults.
_pool_sizes = st.sampled_from([PAGE_SIZE, 6000, 1 << 16, 1 << 20])


@settings(max_examples=150, deadline=None)
@given(
    ops=_ops, pools=st.sampled_from([1, 3, 4, 5]), seed=st.integers(0, 3),
    max_pooled_size=st.sampled_from([64, 512, PAGE_SIZE]),
    pool_size=st.sampled_from([PAGE_SIZE, 6000, 1 << 22]), choice_seed=st.integers(0, 99),
)
def test_random_pools_match_python(ops, pools, seed, max_pooled_size, pool_size, choice_seed):
    make = random_pools(pools, max_pooled_size, pool_size, choice_seed)
    assert_same(record_ops(PROGRAM, ops), make, seed)


@settings(max_examples=150, deadline=None)
@given(ops=_ops, policy=st.sampled_from(POLICIES), pool_size=_pool_sizes, seed=st.integers(0, 3))
def test_free_lists_match_python(ops, policy, pool_size, seed):
    assert_same(record_ops(PROGRAM, ops), free_list(policy, pool_size), seed)


@settings(max_examples=150, deadline=None)
@given(
    ops=_threaded_ops, count=st.integers(1, 4), policy=st.sampled_from(POLICIES),
    pool_size=_pool_sizes, seed=st.integers(0, 3),
)
def test_arenas_match_python(ops, count, policy, pool_size, seed):
    assert_same(record_ops(PROGRAM, ops), arenas(count, policy, pool_size), seed)


def _threaded_churn(rounds: int = 4) -> list:
    """Allocation rounds on rotating threads, most blocks freed or
    resized from another thread, so arenas park, flush and move."""
    rng = random.Random(11)
    ops: list = []
    live = 0
    for round_ in range(rounds):
        ops.append(("thread", round_ % 3))
        for _ in range(60):
            ops.append(("alloc", rng.choice((24, 64, 200, 700, 2000, 9000))))
            live += 1
        ops.append(("thread", (round_ + 1) % 3))
        for _ in range(live // 3):
            ops.append(("realloc", rng.randrange(live), rng.choice((16, 120, 3000, 12000))))
        for _ in range(live * 2 // 3):
            ops.append(("free", rng.randrange(live)))
            live -= 1
    return ops


@pytest.mark.parametrize("policy", POLICIES)
def test_free_list_churn_matches_python(policy):
    """Coalescing frees, and reallocs that shrink, grow in place and move."""
    trace = record_ops(PROGRAM, _churn())
    assert_same(trace, free_list(policy, 1 << 16), seed=3)
    counters = observe(trace, free_list(policy, 1 << 16), 3)["allocator"]["counters"]
    assert all(counters), counters  # coalesced, in place and moved all happen


@pytest.mark.parametrize("policy", POLICIES)
def test_arena_churn_matches_python(policy):
    trace = record_ops(PROGRAM, _threaded_churn())
    assert_same(trace, arenas(4, policy, 1 << 16), seed=2)
    observable = observe(trace, arenas(4, policy, 1 << 16), 2)["allocator"]["observable"]
    assert observable["cross_thread_frees"] and observable["mailbox_flushes"]
    assert observable["mailbox_pending"]


def test_random_pools_overflow_into_new_regions():
    """Small pools fill and reserve again; large requests go to the fallback."""
    ops = [("alloc", size) for size in (40, 900, 3000, 5000, 100) * 40]
    ops += [("realloc", k, 2000) for k in range(0, 200, 7)] + [("free", 3)] * 30
    trace = record_ops(PROGRAM, ops)
    make = random_pools(3, PAGE_SIZE, 6000, 5)
    assert_same(trace, make, seed=1)
    state = observe(trace, make, 1)["allocator"]
    assert all(len(pool[1]) > 2 for pool in state["pools"])
    assert state["fallback"]["stats"]["total_allocs"] > 0


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


class _SubRandomPools(RandomPoolAllocator):
    pass


class _SubFreeList(FreeListAllocator):
    pass


class _SubArena(ArenaAllocator):
    pass


def _pools_over(fallback):
    return lambda: ((lambda space: RandomPoolAllocator(space, fallback(space), seed=1)), None)


@pytest.mark.parametrize("make", [
    lambda: (_SubSizeClass, None),
    lambda: grouped(ShardedGroupAllocator, chunk_size=1 << 13),
    lambda: grouped(_SubGroup),
    lambda: grouped(fallback=FreeListAllocator),
    lambda: grouped(fallback=_SubSizeClass),
    lambda: ((lambda space: _SubRandomPools(space, SizeClassAllocator(space))), None),
    _pools_over(FreeListAllocator),
    _pools_over(_SubSizeClass),
    lambda: (_SubFreeList, None),
    lambda: (_SubArena, None),
], ids=["size-class-subclass", "sharded", "group-subclass", "freelist-fallback",
        "subclass-fallback", "random-pools-subclass", "random-pools-freelist-fallback",
        "random-pools-subclass-fallback", "freelist-subclass", "arena-subclass"])
def test_ineligible_allocators_take_the_python_loop(make):
    trace = record_ops(PROGRAM, _churn(2))
    assert place_calls(trace, make) == {}


def _used(factory):
    """A factory whose allocator has already served (and freed) a block."""
    def make_used(space):
        allocator = factory(space)
        allocator.free(allocator.malloc(64))
        return allocator
    return lambda: (make_used, None)


@pytest.mark.parametrize("make", [
    _used(SizeClassAllocator),
    _used(lambda space: RandomPoolAllocator(space, SizeClassAllocator(space))),
    _used(FreeListAllocator),
    _used(ArenaAllocator),
], ids=["size-class", "random-pools", "freelist", "arena"])
def test_used_allocators_take_the_python_loop(make):
    trace = record_ops(PROGRAM, _churn(2))
    assert place_calls(trace, make) == {}
    compiled = observe(trace, make, 1)
    with python_loop():
        assert observe(trace, make, 1) == compiled


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
    faults = compiled["allocator"]["observable"]
    assert faults["faulted_matches" if plan.state_flip_rate else "degraded_allocs"] > 0


def test_without_the_library_eligible_calls_count_as_python():
    trace = record_ops(PROGRAM, _churn(2))
    with python_loop():
        assert place_calls(trace, grouped) == {
            'kernel.calls{backend="python",kernel="place"}': 1
        }


#: Four broken kernels, each a one-function edit of the C source.
MUTANTS = {
    "modulo-choice": (
        """    do r = pl_genrand(q->choice_mt) >> shift; while (r >= n);""",
        """    r = (pl_genrand(q->choice_mt) >> shift) % (uint32_t)n;""",
    ),
    "eager-foreign-free": (
        """    if (b->where == t) {
        pl_fl_free(q, b);
    } else {""",
        """    if (b->where == t || 1) {
        pl_fl_free(q, b);
    } else {""",
    ),
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


#: Three pools, so some draws are rejected; a free on a foreign thread.
_CASES = {
    "modulo-choice": ([("alloc", 24)] * 40, random_pools(3, PAGE_SIZE, 1 << 22, 0)),
    "eager-foreign-free": (
        [("alloc", 100), ("alloc", 100), ("thread", 1), ("free", 0), ("alloc", 100)],
        arenas(2, "first-fit", 1 << 16),
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutated_kernels_are_caught(mutant, monkeypatch):
    ops, make = _CASES.get(mutant, (_SPARES, None))
    trace = record_ops(PROGRAM, ops)
    if make is None:
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
