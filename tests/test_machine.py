"""Unit tests for the Machine, heap discipline, and the state vector."""

from contextlib import ExitStack, contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocators import AddressSpace, SizeClassAllocator
from repro.machine import (
    GroupStateVector,
    HeapError,
    Listener,
    Machine,
    ProgramBuilder,
    ProgramError,
)

from conftest import DemoProgram, alloc_via


class RecordingListener(Listener):
    def __init__(self):
        self.events = []

    def on_call(self, machine, site):
        self.events.append(("call", site.addr))

    def on_return(self, machine, site):
        self.events.append(("return", site.addr))

    def on_alloc(self, machine, obj):
        self.events.append(("alloc", obj.oid, obj.size))

    def on_free(self, machine, obj):
        self.events.append(("free", obj.oid))

    def on_access(self, machine, obj, offset, size, is_store):
        self.events.append(("store" if is_store else "load", obj.oid, offset, size))

    def on_finish(self, machine):
        self.events.append(("finish",))


class TestCallStack:
    def test_nested_calls_maintain_stack(self, demo, machine):
        with machine.call(demo.main_a):
            assert [s.addr for s in machine.stack] == [demo.main_a.addr]
            with machine.call(demo.a_malloc):
                assert len(machine.stack) == 2
            assert len(machine.stack) == 1
        assert machine.stack == []

    def test_stack_unwound_on_exception(self, demo, machine):
        with pytest.raises(RuntimeError):
            with machine.call(demo.main_a):
                raise RuntimeError("boom")
        assert machine.stack == []

    def test_foreign_site_rejected(self, demo, machine):
        from repro.machine import ProgramBuilder

        other = ProgramBuilder("other")
        foreign = other.call_site("main", "f")
        with pytest.raises(ProgramError):
            with machine.call(foreign):
                pass

    def test_call_by_address(self, demo, machine):
        with machine.call(demo.main_a.addr):
            assert machine.stack[-1] is demo.main_a

    def test_call_metric(self, demo, machine):
        with machine.call(demo.main_a):
            pass
        assert machine.metrics.calls == 1


@contextmanager
def exitstack_chain(machine, sites):
    """The reference chain: one single-site scope per site on an ExitStack."""
    with ExitStack() as stack:
        for site in sites:
            stack.enter_context(machine.call(site))
        yield


class _BodyError(Exception):
    pass


def _run_chain(demo, sites, instrumentation, enter, raise_in_body):
    """Run one chain under *enter*; return everything observable about it."""
    sv = GroupStateVector()
    machine = Machine(
        demo.program,
        SizeClassAllocator(AddressSpace(0)),
        listeners=[RecordingListener()],
        instrumentation=instrumentation,
        state_vector=sv,
    )
    inside = None
    error = None
    try:
        with enter(machine, sites):
            inside = ([s.addr for s in machine.stack], sv.value)
            machine.malloc(16)
            if raise_in_body:
                raise _BodyError
    except (ProgramError, _BodyError) as exc:
        error = type(exc)
    return {
        "events": machine.listeners[0].events,
        "inside": inside,
        "stack": list(machine.stack),
        "state_vector": sv.value,
        "calls": machine.metrics.calls,
        "toggles": machine.metrics.instrumentation_toggles,
        "error": error,
    }


def _assert_chain_matches_reference(demo, sites, instrumentation=None, raise_in_body=False):
    got = _run_chain(
        demo, sites, instrumentation, lambda m, chain: m.call(*chain), raise_in_body
    )
    want = _run_chain(demo, sites, instrumentation, exitstack_chain, raise_in_body)
    assert got == want
    return got


def _foreign_site():
    return ProgramBuilder("other").call_site("main", "f")


class TestCallChainScope:
    """``machine.call(*sites)`` against the ExitStack chain it replaced."""

    def test_normal_exit(self, demo):
        sites = [demo.main_helper, demo.helper_wrap, demo.wrap_malloc]
        got = _assert_chain_matches_reference(
            demo, sites, {demo.main_helper.addr: 0, demo.wrap_malloc.addr: 2}
        )
        assert got["inside"] == ([s.addr for s in sites], 0b101)
        assert got["stack"] == [] and got["state_vector"] == 0
        assert [e[0] for e in got["events"]] == ["call"] * 3 + ["alloc"] + ["return"] * 3

    def test_exception_in_body(self, demo):
        got = _assert_chain_matches_reference(
            demo, [demo.main_a, demo.a_malloc], {demo.a_malloc.addr: 1}, raise_in_body=True
        )
        assert got["error"] is _BodyError
        assert got["stack"] == [] and got["state_vector"] == 0

    def test_foreign_site_mid_chain(self, demo):
        sites = [demo.main_helper, _foreign_site(), demo.wrap_malloc]
        got = _assert_chain_matches_reference(demo, sites, {demo.main_helper.addr: 0})
        assert got["error"] is ProgramError
        assert got["inside"] is None
        assert got["events"] == [("call", demo.main_helper.addr), ("return", demo.main_helper.addr)]
        assert got["stack"] == [] and got["state_vector"] == 0
        assert got["calls"] == 1 and got["toggles"] == 2

    def test_same_instrumented_site_twice(self, demo):
        # The inner return clears the bit although the outer activation is
        # still live (the paper's set/unset scheme, no reference count).
        got = _assert_chain_matches_reference(
            demo, [demo.main_a, demo.main_a], {demo.main_a.addr: 0}
        )
        assert got["inside"][1] == 1
        assert got["toggles"] == 4 and got["state_vector"] == 0

    def test_empty_chain(self, demo):
        got = _assert_chain_matches_reference(demo, [], {demo.main_a.addr: 0})
        assert got["inside"] == ([], 0)
        assert got["calls"] == 0 and got["toggles"] == 0
        assert [e[0] for e in got["events"]] == ["alloc"]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_chains(self, data):
        demo = DemoProgram()
        pool = [
            demo.main_a, demo.main_b, demo.a_malloc, demo.main_helper,
            demo.helper_wrap, demo.wrap_malloc, demo.main_c.addr, _foreign_site(),
        ]
        sites = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        instrumented = data.draw(st.lists(st.sampled_from(pool[:6]), unique=True))
        instrumentation = {
            site.addr: data.draw(st.integers(0, 3)) for site in instrumented
        }
        raise_in_body = data.draw(st.booleans())
        _assert_chain_matches_reference(demo, sites, instrumentation, raise_in_body)


class TestHeapOperations:
    def test_malloc_returns_live_object(self, machine):
        obj = machine.malloc(64)
        assert obj.alive and obj.size == 64
        assert machine.objects.live_count == 1

    def test_zero_size_malloc_rejected(self, machine):
        with pytest.raises(HeapError):
            machine.malloc(0)

    def test_free_marks_dead(self, machine):
        obj = machine.malloc(64)
        machine.free(obj)
        assert not obj.alive
        assert machine.objects.live_count == 0

    def test_double_free_rejected(self, machine):
        obj = machine.malloc(64)
        machine.free(obj)
        with pytest.raises(HeapError):
            machine.free(obj)

    def test_use_after_free_rejected(self, machine):
        obj = machine.malloc(64)
        machine.free(obj)
        with pytest.raises(HeapError):
            machine.load(obj, 0, 8)

    def test_out_of_bounds_access_rejected(self, machine):
        obj = machine.malloc(16)
        with pytest.raises(HeapError):
            machine.load(obj, 12, 8)

    def test_calloc_touches_pages(self, machine):
        before = machine.allocator.space.resident_bytes
        machine.calloc(1024, 8)
        assert machine.allocator.space.resident_bytes > before

    def test_realloc_grows(self, machine):
        obj = machine.malloc(16)
        machine.store(obj, 0, 8)
        machine.realloc(obj, 4096)
        assert obj.size == 4096
        machine.load(obj, 4000, 8)

    def test_realloc_shrink_keeps_address(self, machine):
        obj = machine.malloc(64)
        addr = obj.addr
        machine.realloc(obj, 32)
        assert obj.addr == addr

    def test_alloc_seq_is_monotonic(self, machine):
        a = machine.malloc(8)
        b = machine.malloc(8)
        assert b.alloc_seq == a.alloc_seq + 1

    def test_allocations_do_not_overlap(self, machine):
        objects = [machine.malloc(24) for _ in range(200)]
        spans = sorted((o.addr, o.end()) for o in objects)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start


class TestListeners:
    def test_event_sequence(self, demo, machine):
        listener = RecordingListener()
        machine.listeners.append(listener)
        obj = alloc_via(machine, [demo.main_a, demo.a_malloc], 32)
        machine.load(obj, 0, 8)
        machine.store(obj, 8, 8)
        machine.free(obj)
        machine.finish()
        kinds = [event[0] for event in listener.events]
        assert kinds == ["call", "call", "alloc", "return", "return", "load", "store", "free", "finish"]

    def test_access_details(self, demo, machine):
        listener = RecordingListener()
        machine.listeners.append(listener)
        obj = machine.malloc(32)
        machine.load(obj, 16, 4)
        assert ("load", obj.oid, 16, 4) in listener.events


class TestInstrumentation:
    def test_bits_toggle_around_calls(self, demo):
        space = AddressSpace(0)
        sv = GroupStateVector()
        machine = Machine(
            demo.program,
            SizeClassAllocator(space),
            instrumentation={demo.main_a.addr: 0, demo.main_b.addr: 1},
            state_vector=sv,
        )
        assert sv.value == 0
        with machine.call(demo.main_a):
            assert sv.test(0) and not sv.test(1)
            with machine.call(demo.main_b):
                assert sv.value == 0b11
            assert sv.value == 0b01
        assert sv.value == 0

    def test_uninstrumented_sites_do_not_toggle(self, demo):
        space = AddressSpace(0)
        sv = GroupStateVector()
        machine = Machine(
            demo.program,
            SizeClassAllocator(space),
            instrumentation={demo.main_a.addr: 0},
            state_vector=sv,
        )
        with machine.call(demo.main_c):
            assert sv.value == 0
        assert machine.metrics.instrumentation_toggles == 0

    def test_toggle_count(self, demo):
        space = AddressSpace(0)
        machine = Machine(
            demo.program,
            SizeClassAllocator(space),
            instrumentation={demo.main_a.addr: 0},
            state_vector=GroupStateVector(),
        )
        for _ in range(5):
            with machine.call(demo.main_a):
                pass
        assert machine.metrics.instrumentation_toggles == 10

    def test_recursion_clears_bit_on_inner_return(self, demo):
        # Faithful to the paper's plain set/unset scheme: the inner return
        # clears the bit even though an outer activation is still live.
        space = AddressSpace(0)
        sv = GroupStateVector()
        machine = Machine(
            demo.program,
            SizeClassAllocator(space),
            instrumentation={demo.main_a.addr: 0},
            state_vector=sv,
        )
        with machine.call(demo.main_a):
            with machine.call(demo.main_a):
                assert sv.test(0)
            assert not sv.test(0)


class TestMetrics:
    def test_work_accumulates(self, machine):
        machine.work(10.5)
        machine.work(2.5)
        assert machine.metrics.compute_cycles == 13.0

    def test_access_counters(self, machine):
        obj = machine.malloc(64)
        machine.load(obj)
        machine.load(obj)
        machine.store(obj)
        assert machine.metrics.loads == 2
        assert machine.metrics.stores == 1
        assert machine.metrics.accesses == 3
