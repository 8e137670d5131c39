"""The recording machine against its oracle, a ``TraceRecorder`` listener.

:class:`~repro.trace.record.RecordingMachine` writes the trace columns from
its own event methods.  Every recording it makes must equal, byte for
byte, the one a :class:`~repro.trace.record.TraceRecorder` makes on a plain
:class:`~repro.machine.machine.Machine` (the listener path): columns,
header, compressed body, CRC and switch table.  It must fail every misuse
the plain machine rejects with the same exception and message, unwinding
the same state.

A recording places nothing.  Where the heap matters (a ``halo serve``
request on the shared heap), its heap ops are placed afterwards by
:func:`~repro.columnar.engine.place_heap_ops`: "record, then place" must
leave exactly the heap a plain machine placing every op live leaves.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.allocators import AddressSpace, ArenaAllocator, SizeClassAllocator
from repro.allocators.group import GroupAllocator, _Chunk
from repro.columnar.engine import _Selectors, place_heap_ops
from repro.core.selectors import CompiledMatcher, GroupSelector
from repro.machine import GroupStateVector, Machine, ProgramBuilder
from repro.machine.events import Listener
from repro.machine.heap import HeapError, ObjectTable
from repro.machine.program import ProgramError
from repro.serve import ServeConfig, ServeService
from repro.serve import service as service_module
from repro.trace.format import OP_ALLOC, OP_LOAD, OP_REALLOC, TraceColumns
from repro.trace.record import (
    RecordingMachine,
    TraceRecorder,
    _RecordingScope,
    record_workload,
)
from repro.workloads import get_workload, workload_names

from conftest import run_ops, run_request_on_a_machine, serve_heap
from test_group_allocator_bugs import make_group_allocator

#: Every registered workload, a thread-switching three-tenant mix and a
#: five-tenant one.
WORKLOADS = [*workload_names(), "mix-3x3-rr", "mix-5x3-rr"]


def listened(workload, scale="test", seed=0):
    """*workload* recorded on the listener path (the oracle)."""
    recorder = TraceRecorder(
        workload=workload.name, scale=scale, seed=seed, program=workload.program.name
    )
    machine = Machine(
        workload.program, SizeClassAllocator(AddressSpace(seed=seed)), listeners=[recorder]
    )
    workload.run(machine, scale)
    return recorder.close()


def assert_same_recording(got, want) -> None:
    """Equal columns, header fields, compressed body, CRC and switch table."""
    assert got.body == want.body  # also stamps both headers' CRCs
    assert got.header.crc32 is not None
    assert dataclasses.asdict(got.header) == dataclasses.asdict(want.header)
    assert got.switch_table == want.switch_table
    assert got.switches() == want.switches()
    ours, theirs = got.columns(), want.columns()
    for name in TraceColumns.__slots__:
        if not name.startswith("_"):
            assert_same_column(getattr(ours, name), getattr(theirs, name), name)


def assert_same_column(ours, theirs, name) -> None:
    if isinstance(ours, tuple):
        assert len(ours) == len(theirs), name
        for left, right in zip(ours, theirs):
            assert_same_column(left, right, name)
    elif isinstance(ours, np.ndarray):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    else:
        assert ours == theirs, name


@pytest.mark.parametrize("name", WORKLOADS)
def test_record_workload_matches_the_listener(name):
    workload = get_workload(name)
    recorded = record_workload(workload, scale="test", seed=3)
    assert_same_recording(recorded, listened(workload, seed=3))


def test_mixes_switch_threads():
    for name in ("mix-3x3-rr", "mix-5x3-rr"):
        assert record_workload(name, scale="test").header.switches > 0


def test_record_workload_places_nothing(monkeypatch):
    """No allocator or address space is built and no page is touched."""

    def refuse(*args, **kwargs):
        raise AssertionError("recording placed or touched memory")

    monkeypatch.setattr(AddressSpace, "__init__", refuse)
    monkeypatch.setattr(AddressSpace, "touch_range", refuse)
    monkeypatch.setattr(SizeClassAllocator, "__init__", refuse)
    trace = record_workload("deepsjeng", scale="test")
    assert trace.header.loads > 0


# -- synthetic op streams ---------------------------------------------------------


def _program():
    builder = ProgramBuilder("recording")
    builder.function("malloc", in_main_binary=False)
    sites = [builder.call_site("main", f"make{i}") for i in range(3)]
    sites.append(builder.call_site("make0", "malloc"))
    return builder.build(), sites


PROGRAM, SITES = _program()
#: Bits for the first three sites; the fourth is not instrumented.
PLAN = {site.addr: bit for bit, site in enumerate(SITES[:3])}
FOREIGN = ProgramBuilder("elsewhere").call_site("main", "other")


def machine_pair(placed: bool = False):
    """A listened ``Machine`` and a ``RecordingMachine``; if *placed*, the
    machine places on :func:`grouped_allocator` under :data:`PLAN`."""
    recorder = TraceRecorder(workload="ops", program=PROGRAM.name)
    if placed:
        allocator = grouped_allocator()
        kwargs = dict(instrumentation=PLAN, state_vector=allocator.state_vector)
    else:
        allocator, kwargs = SizeClassAllocator(AddressSpace(seed=2)), {}
    theirs = Machine(PROGRAM, allocator, listeners=[recorder], **kwargs)
    return (theirs, recorder), RecordingMachine(PROGRAM, workload="ops")


def heap_state(machine):
    """What a run leaves behind, addresses aside."""
    live = sorted((obj.oid, obj.size) for obj in machine.objects.live_objects())
    return {"live": live, "stack": list(machine.stack)}


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 9000)),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
        st.tuples(st.just("realloc"), st.integers(0, 1 << 16), st.integers(1, 9000)),
        st.tuples(st.just("store"), st.integers(0, 1 << 16)),
        st.tuples(st.just("call"), st.sampled_from(SITES)),
        st.tuples(st.just("return")),
        st.tuples(st.just("thread"), st.integers(0, 3)),
    ),
    max_size=120,
)


@settings(max_examples=120, deadline=None)
@given(ops=_ops)
def test_op_streams_match_the_listener(ops):
    (theirs, recorder), ours = machine_pair()
    run_ops(theirs, ops)
    run_ops(ours, ops)
    assert heap_state(ours) == heap_state(theirs)
    assert ours.metrics == theirs.metrics
    theirs.finish()
    ours.finish()
    assert_same_recording(ours.trace, recorder.trace)
    assert ours.metrics == theirs.metrics


# -- record, then place --------------------------------------------------------------


def grouped_allocator(warm: int = 0):
    """A group allocator reading the selectors of :data:`PLAN`'s sites,
    with *warm* regions already placed in its pools (a heap in use)."""
    space = AddressSpace(seed=2)
    matcher = CompiledMatcher(
        [GroupSelector(gid, (frozenset({site.addr}),)) for gid, site in enumerate(SITES[:3])],
        PLAN,
    )
    allocator = GroupAllocator(space, SizeClassAllocator(space), matcher, GroupStateVector())
    for i in range(warm):
        allocator.place_region(i % 3 if i % 4 else None, 200 * (i + 1))
    return allocator


def arena_allocator(warm: int = 0):
    """A thread-aware allocator: switches reach it between runs of ops."""
    allocator = ArenaAllocator(AddressSpace(seed=2))
    for i in range(warm):
        allocator.malloc(200 * (i + 1))
    return allocator


class _Created(Listener):
    """Every object a machine allocates, by oid."""

    def __init__(self) -> None:
        self.objects = []

    def on_alloc(self, machine, obj) -> None:
        self.objects.append(obj)


def allocator_state(allocator):
    """Counters, live regions, the space's cursor and any chunk layout."""
    chunks = getattr(allocator, "_chunks", {}).values()
    return {
        "stats": dataclasses.asdict(allocator.stats),
        "counts": allocator.observable_stats(),
        "regions": sorted(allocator.iter_live_regions()),
        "chunks": sorted((c.base, c.size, c.group, c.cursor, c.live_regions) for c in chunks),
        "cursor": allocator.space._cursor,
    }


@pytest.mark.parametrize("family", [grouped_allocator, arena_allocator], ids=["group", "arena"])
@settings(max_examples=120, deadline=None)
@given(ops=_ops, warm=st.integers(0, 6))
def test_placing_a_recording_matches_a_machine(family, ops, warm):
    """Record unplaced, then place: the addresses and heap a plain machine
    leaves, instrumentation, reallocs and thread switches included."""
    created = _Created()
    theirs = family(warm)
    machine = Machine(
        PROGRAM, theirs, listeners=[created], instrumentation=PLAN,
        state_vector=getattr(theirs, "state_vector", None),
    )
    run_ops(machine, ops)
    recording = RecordingMachine(PROGRAM, workload="ops")
    run_ops(recording, ops)
    ours = family(warm)
    addrs = place_heap_ops(recording.close(), PROGRAM, ours, PLAN)
    assert addrs == [obj.addr for obj in created.objects]
    assert allocator_state(ours) == allocator_state(theirs)


def test_streams_group_and_forward():
    """The placement oracle's streams reach both kinds of allocation."""
    ops = [("call", SITES[1]), ("alloc", 64), ("return",), ("alloc", 64),
           ("call", SITES[2]), ("realloc", 0, 512), ("thread", 1), ("alloc", 5000)]
    recording = RecordingMachine(PROGRAM)
    run_ops(recording, ops)
    allocator = grouped_allocator()
    place_heap_ops(recording.close(), PROGRAM, allocator, PLAN)
    assert allocator.grouped_allocs == 2 and allocator.forwarded_allocs == 2


# -- a live address is refused, as on a machine ---------------------------------


def _reserve_without_bumping(self, size, alignment):
    """A chunk that forgets to advance its cursor: each region lands on the last."""
    addr = self.base + _Chunk.HEADER_SIZE
    self.live_regions += 1
    return addr


def _realloc_onto_a_live_region(self, addr, new_size):
    """A realloc that hands back another live region."""
    return next(other for other in self._region_sizes if other != addr)


#: bug -> (the patch, ops that reach it, the start of the machine's message)
LIVE_ADDRESS_BUGS = {
    "malloc": (
        (_Chunk, "try_reserve", _reserve_without_bumping),
        [("alloc", 16), ("alloc", 16)],
        "allocator returned in-use address",
    ),
    "realloc": (
        (GroupAllocator, "realloc", _realloc_onto_a_live_region),
        [("alloc", 16), ("alloc", 16), ("realloc", 1, 32)],
        "realloc target",
    ),
}


@pytest.mark.parametrize("bug", LIVE_ADDRESS_BUGS.values(), ids=LIVE_ADDRESS_BUGS.keys())
def test_a_live_address_fails_as_on_a_machine(monkeypatch, bug):
    patch, ops, message = bug
    monkeypatch.setattr(*patch)
    recording = RecordingMachine(PROGRAM)
    run_ops(recording, ops)
    machine = Machine(PROGRAM, make_group_allocator())
    want = outcome(machine, lambda m: run_ops(m, ops))
    assert want[0] is HeapError and want[1].startswith(message)
    got = outcome(None, lambda _: place_heap_ops(recording.close(), PROGRAM, make_group_allocator()))
    assert got == want


def test_a_live_address_fails_a_serve_session_as_on_a_machine(monkeypatch):
    monkeypatch.setattr(_Chunk, "try_reserve", _reserve_without_bumping)
    want = outcome(None, lambda _: serve_session(SESSION, oracle=True))
    assert want[0] is HeapError and want[1].startswith("allocator returned in-use address")
    assert outcome(None, lambda _: serve_session(SESSION)) == want


# -- serve sessions ---------------------------------------------------------------


class _Leaky:
    """A machine whose every fourth free instead grows its object (a realloc
    under the freeing context) and leaves it live: a serve request with
    reallocs and stragglers, which no registered workload has."""

    def __init__(self, machine) -> None:
        self._machine = machine
        self._frees = 0

    def __getattr__(self, name):
        return getattr(self._machine, name)

    def free(self, obj) -> None:
        self._frees += 1
        if self._frees % 4:
            self._machine.free(obj)
        else:
            self._machine.realloc(obj, obj.size + 64)


def leaky(name):
    """Workload *name*, run on a :class:`_Leaky` machine."""

    class Leaky(type(get_workload(name))):
        def _execute(self, machine, rng, factor):
            super()._execute(_Leaky(machine), rng, factor)

    return Leaky()


def serve_session(config, oracle=False, patches=()):
    """One leaky serve session: recordings, whether each request was
    instrumented, and the heap it leaves.  With *oracle*, each request
    runs on a plain machine (:func:`run_request_on_a_machine`)."""
    traces, instrumented = [], []
    real_replay, real_place = service_module.replay_profile, service_module.place_heap_ops

    def replay(trace, *args, **kwargs):
        traces.append(trace)
        return real_replay(trace, *args, **kwargs)

    def place(trace, program, allocator, instrumentation):
        instrumented.append(bool(instrumentation))
        return real_place(trace, program, allocator, instrumentation)

    service = ServeService(config)
    service._workloads = {name: leaky(name) for name in ("health", "ft")}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "replay_profile", replay)
        patch.setattr(service_module, "place_heap_ops", place)
        if oracle:
            patch.setattr(ServeService, "_run_request", run_request_on_a_machine)
        for target in patches:
            patch.setattr(*target)
        report = service.run()
    return traces, instrumented, {"serve": dataclasses.asdict(report.stats), **serve_heap(service)}


SESSION = ServeConfig(seed=5, requests=16, epoch_requests=4, request_factor=0.02)


@pytest.fixture(scope="module")
def oracle_session():
    return serve_session(SESSION, oracle=True)


def test_serve_request_matches_the_listener(oracle_session):
    """A serve session recorded unplaced and placed afterwards, against
    one executing each request on a plain machine over the shared heap.

    Requests before the first swap run uninstrumented, later ones
    instrumented on the session's group allocator: both kinds occur.
    Page residency is not compared: a request's accesses mark no page.
    """
    traces, instrumented, heap = serve_session(SESSION)
    their_traces, _, their_heap = oracle_session
    assert 0 < sum(instrumented) < len(instrumented) == SESSION.requests
    assert len(traces) == len(their_traces) == SESSION.requests
    for got, want in zip(traces, their_traces):
        assert_same_recording(got, want)
    columns = [trace.columns() for trace in traces]
    assert sum(cols.reallocs for cols in columns) > 0
    assert sum(cols.allocs - cols.frees for cols in columns) > 0  # stragglers
    assert heap == their_heap


def _no_stragglers(self):
    return []


def _uninstrumented(trace, program, allocator, instrumentation):
    return place_heap_ops(trace, program, allocator)


def _stale_realloc_keys(self, cols, machine):
    """Each realloc matched under the key of the op before it."""
    _SELECTORS_INIT(self, cols, machine)
    ops = cols.ctrl[0]
    kinds = ops[(ops == OP_ALLOC) | (ops == OP_REALLOC)].tolist()
    for i in range(1, len(kinds)):
        if kinds[i] == OP_REALLOC:
            self.keys[i] = self.keys[i - 1]


_SELECTORS_INIT = _Selectors.__init__


@pytest.mark.parametrize(
    "mutant",
    [
        (ObjectTable, "live_objects", _no_stragglers),
        (service_module, "place_heap_ops", _uninstrumented),
        (_Selectors, "__init__", _stale_realloc_keys),
    ],
    ids=["stragglers-kept", "placed-uninstrumented", "stale-realloc-key"],
)
def test_a_misplaced_request_is_caught(oracle_session, mutant):
    assert serve_session(SESSION, patches=[mutant])[2] != oracle_session[2]


# -- error parity -----------------------------------------------------------------


def _freed(machine):
    obj = machine.malloc(16)
    machine.free(obj)
    return obj


def _live(machine):
    return machine.malloc(16)


def _foreign_mid_chain(machine):
    with machine.call(SITES[0], SITES[1], FOREIGN, SITES[2]):
        machine.malloc(8)


def _raise_in_chain(machine):
    with machine.call(SITES[0], SITES[1], SITES[2]):
        machine.load(machine.malloc(8))
        raise RuntimeError("chain body failed")


MISUSES = {
    "use-after-free-load": lambda m: m.load(_freed(m)),
    "use-after-free-store": lambda m: m.store(_freed(m), 8, 8),
    "use-after-free-realloc": lambda m: m.realloc(_freed(m), 32),
    "load-at-minus-one": lambda m: m.load(_live(m), -1, 8),
    "load-at-size": lambda m: m.load(_live(m), 16, 1),
    "load-zero-size": lambda m: m.load(_live(m), 0, 0),
    "store-at-minus-one": lambda m: m.store(_live(m), -1, 8),
    "store-at-size": lambda m: m.store(_live(m), 16, 1),
    "store-zero-size": lambda m: m.store(_live(m), 0, 0),
    "load-straddling-the-end": lambda m: m.load(_live(m), 12, 8),
    "double-free": lambda m: m.free(_freed(m)),
    "malloc-zero": lambda m: m.malloc(0),
    "realloc-to-zero": lambda m: m.realloc(_live(m), 0),
    "foreign-site-mid-chain": _foreign_mid_chain,
    "exception-in-chain-body": _raise_in_chain,
}


def outcome(machine, misuse):
    with pytest.raises(Exception) as caught:
        misuse(machine)
    return type(caught.value), str(caught.value)


def assert_same_failure(misuse, placed: bool) -> None:
    """Same exception and message, same state unwound, same recording;
    if *placed*, placing the recording leaves the machine's heap."""
    (theirs, recorder), ours = machine_pair(placed)
    want = outcome(theirs, misuse)
    assert outcome(ours, misuse) == want
    assert heap_state(ours) == heap_state(theirs)
    theirs.finish()
    ours.finish()
    assert_same_recording(ours.trace, recorder.trace)
    if placed:
        allocator = grouped_allocator()
        addrs = place_heap_ops(ours.trace, PROGRAM, allocator, PLAN)
        live = theirs.objects.live_objects()
        assert [addrs[obj.oid] for obj in live] == [obj.addr for obj in live]
        assert allocator_state(allocator) == allocator_state(theirs.allocator)


@pytest.mark.parametrize("placed", [False, True], ids=["unplaced", "placed"])
@pytest.mark.parametrize("misuse", MISUSES.values(), ids=MISUSES.keys())
def test_misuse_fails_as_on_a_machine(misuse, placed):
    assert_same_failure(misuse, placed)


def test_misuse_errors_are_the_machine_errors():
    """The expected types, and a chain is unwound past its failed site."""
    _, ours = machine_pair()
    assert outcome(ours, MISUSES["malloc-zero"])[0] is HeapError
    assert outcome(ours, MISUSES["double-free"])[0] is HeapError
    assert outcome(ours, _foreign_mid_chain)[0] is ProgramError
    assert outcome(ours, _raise_in_chain) == (RuntimeError, "chain body failed")
    assert ours.stack == []


# -- listeners are refused, never dropped ----------------------------------------


def test_listeners_are_refused():
    machine = RecordingMachine(PROGRAM)
    recorder = TraceRecorder()
    with pytest.raises(TypeError, match="dispatches no listener"):
        machine.add_listener(recorder)
    with pytest.raises(TypeError, match="dispatches no listener"):
        machine.listeners = [recorder]
    with pytest.raises(AttributeError):
        machine.listeners.append(recorder)
    with pytest.raises(ValueError):
        machine.remove_listener(recorder)
    assert machine.listeners == ()
    machine.listeners = []  # registering nothing is fine


# -- one harvest point ------------------------------------------------------------


def test_each_recording_is_harvested_once():
    with obs.collecting() as registry:
        trace = record_workload("deepsjeng", scale="test")
        config = ServeConfig(seed=5, requests=4, epoch_requests=4, request_factor=0.02)
        ServeService(config).run()
    counters = registry.snapshot().counters
    records = {k: v for k, v in counters.items() if k.startswith("trace.records")}
    assert records['trace.records{workload="deepsjeng"}'] == 1
    assert sum(records.values()) == 1 + config.requests
    assert counters['trace.record.events{workload="deepsjeng"}'] == trace.header.events
    assert counters['trace.record.seconds{workload="deepsjeng"}'] > 0


# -- mutants ----------------------------------------------------------------------


def test_a_load_without_the_bounds_check_is_caught(monkeypatch):
    def unchecked_load(self, obj, offset=0, size=8):
        if not obj.alive:
            raise HeapError(f"use of freed object #{obj.oid}")
        self._kinds.append(OP_LOAD)
        self._acc_oid.append(obj.oid)
        self._acc_offset.append(offset)
        self._acc_size.append(size)

    monkeypatch.setattr(RecordingMachine, "load", unchecked_load)
    with pytest.raises(pytest.fail.Exception):
        assert_same_failure(MISUSES["load-at-size"], placed=False)


def test_a_scope_that_skips_the_return_is_caught(monkeypatch):
    def exit_without_return(self, exc_type, exc, tb):
        for _ in self._sites:
            self._machine.stack.pop()
        return False

    monkeypatch.setattr(_RecordingScope, "__exit__", exit_without_return)
    workload = get_workload("deepsjeng")
    with pytest.raises(AssertionError):
        assert_same_recording(record_workload(workload, scale="test"), listened(workload))
