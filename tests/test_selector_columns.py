"""Selector columns against a live machine.

The columnar engine never walks calls and returns: it computes the
group-state word and the live call stack at every heap op that may call
``malloc`` from the trace's columns, then resolves each distinct
(state, stack) key once.  These tests drive random call/return/heap
streams through a live :class:`Machine` (which toggles a real
:class:`GroupStateVector` and keeps a real stack), record them, and hold
the columns to what the machine showed at every allocation and realloc.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.allocators import AddressSpace, SizeClassAllocator
from repro.allocators.group import GroupAllocator
from repro.calder.pipeline import NameMatcher
from repro.columnar.engine import _Selectors
from repro.core.selectors import CompiledMatcher, GroupSelector
from repro.hds.pipeline import ImmediateSiteMatcher
from repro.machine import Machine, ProgramBuilder
from repro.machine.events import Listener
from repro.machine.machine import GroupStateVector
from repro.trace.format import OP_ALLOC, OP_REALLOC
from repro.trace.record import TraceRecorder

from conftest import run_ops

SITE_COUNT = 6


def _program():
    builder = ProgramBuilder("selectors")
    sites = [builder.call_site("main", f"f{i}").addr for i in range(SITE_COUNT)]
    return builder.build(), sites


PROGRAM, SITES = _program()

#: Bit choices shared across sites on purpose (two sites may toggle one
#: bit) and reaching past one 64-bit word.
BITS = (0, 1, 5, 63, 64, 65, 130)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.sampled_from(SITES)),
        st.tuples(st.just("return")),
        st.tuples(st.just("alloc"), st.integers(1, 64)),
        st.tuples(st.just("free"), st.integers(0, 50)),
        st.tuples(st.just("realloc"), st.integers(0, 50), st.integers(1, 128)),
    ),
    max_size=60,
)
_plans = st.dictionaries(st.sampled_from(SITES), st.sampled_from(BITS), max_size=SITE_COUNT)


def _matchers(instrumentation: dict[int, int]) -> dict:
    """One of each matcher kind: state-reading (compiled selectors) and
    stack-reading (immediate site, Calder's XOR name)."""
    selectors = [
        GroupSelector(gid, tuple(frozenset(conj) for conj in conjs))
        for gid, conjs in enumerate((
            [SITES[:2]], [[SITES[2]], [SITES[3], SITES[4]]], [[SITES[5]]], [SITES[1:4]],
        ))
    ]
    plan = {site: instrumentation.get(site, 200 + i) for i, site in enumerate(SITES)}
    return {
        "compiled": CompiledMatcher(selectors, plan),
        "immediate": ImmediateSiteMatcher({site: i % 3 for i, site in enumerate(SITES)}),
        "name": NameMatcher({SITES[0] ^ SITES[1]: 0, SITES[2]: 1, SITES[3]: 2}, 2),
    }


class _Probe(Listener):
    """What the live machine shows each allocation and realloc."""

    def __init__(self, matchers: dict) -> None:
        self.matchers = matchers
        self.seen: list[tuple[int, tuple[int, ...], dict]] = []

    def _look(self, machine) -> None:
        state = machine.state_vector.value
        groups = {name: matcher.match(state) for name, matcher in self.matchers.items()}
        self.seen.append((state, tuple(site.addr for site in machine.stack), groups))

    def on_alloc(self, machine, obj) -> None:
        self._look(machine)

    def on_realloc(self, machine, obj, old_addr, old_size) -> None:
        self._look(machine)


def _live(ops, instrumentation):
    """Record *ops* on a live instrumented machine, probing every malloc site."""
    matchers = _matchers(instrumentation)
    recorder = TraceRecorder(workload="synthetic", program=PROGRAM.name)
    probe = _Probe(matchers)
    machine = Machine(
        PROGRAM, SizeClassAllocator(AddressSpace(0)),
        listeners=[recorder, probe], instrumentation=instrumentation,
    )
    for matcher in matchers.values():
        if hasattr(matcher, "attach"):
            matcher.attach(machine)
    run_ops(machine, ops)
    return recorder.close().columns(), probe.seen


def _columnar(cols, instrumentation, matcher):
    """The engine's matcher stand-in for *matcher*, and its per-op keys."""
    space = AddressSpace(0)
    vector = GroupStateVector()
    allocator = GroupAllocator(space, SizeClassAllocator(space), matcher, vector)
    machine = Machine(PROGRAM, allocator, instrumentation=instrumentation, state_vector=vector)
    if hasattr(matcher, "attach"):
        matcher.attach(machine)
    stand_in = _Selectors(cols, machine)
    return stand_in, stand_in.keys


@settings(max_examples=150, deadline=None)
@given(ops=_ops, instrumentation=_plans)
# Recursive re-entry: the inner return clears the bit under the open outer call.
@example(
    ops=[("call", SITES[0]), ("call", SITES[0]), ("return",), ("alloc", 8),
         ("return",), ("alloc", 8)],
    instrumentation={SITES[0]: 5},
)
# Allocations outside any call, and truncated trailing scopes.
@example(
    ops=[("alloc", 8), ("call", SITES[1]), ("call", SITES[2]), ("alloc", 8),
         ("realloc", 0, 100)],
    instrumentation={SITES[1]: 64, SITES[2]: 130},
)
def test_state_word_and_stack_match_the_live_machine(ops, instrumentation):
    cols, seen = _live(ops, instrumentation)
    trie = cols.call_trie()
    op_column = cols.ctrl[0]
    at = (op_column == OP_ALLOC) | (op_column == OP_REALLOC)
    nodes = trie.nodes(at.nonzero()[0]).tolist()
    stand_in, keys = _columnar(cols, instrumentation, _matchers(instrumentation)["immediate"])
    assert len(keys) == len(nodes) == len(seen)
    for key, node, (state, stack, _) in zip(keys, nodes, seen):
        assert stand_in.states[key] == state
        assert tuple(trie.path(stand_in.nodes[key])) == stack
        assert tuple(trie.path(node)) == stack


@settings(max_examples=100, deadline=None)
@given(ops=_ops, instrumentation=_plans)
@example(
    ops=[("call", SITES[0]), ("call", SITES[1]), ("alloc", 8), ("call", SITES[1]),
         ("return",), ("alloc", 8), ("return",), ("alloc", 8)],
    instrumentation={SITES[0]: 0, SITES[1]: 64},
)
def test_resolved_groups_equal_live_matches(ops, instrumentation):
    cols, seen = _live(ops, instrumentation)
    for name, matcher in _matchers(instrumentation).items():
        stand_in, keys = _columnar(cols, instrumentation, matcher)
        assert [stand_in.gids[key] for key in keys] == [groups[name] for *_, groups in seen]
        # One matcher call per distinct key; the stack is part of the key
        # only for a matcher that reads it.
        reads_stack = hasattr(matcher, "machine")
        keys_seen = {(state, stack if reads_stack else None) for state, stack, _ in seen}
        assert len(stand_in.gids) == len(keys_seen)


def test_a_flipped_state_resolves_its_own_key():
    """A state the op does not carry (a fault flip) goes to the real
    matcher with the op's stack."""
    ops = [("call", SITES[0]), ("call", SITES[2]), ("alloc", 8)]
    instrumentation = {SITES[0]: 0, SITES[2]: 64}
    cols, _ = _live(ops, instrumentation)
    matchers = _matchers(instrumentation)
    stand_in, keys = _columnar(cols, instrumentation, matchers["compiled"])
    stand_in.key = keys[0]
    state = stand_in.states[keys[0]]
    assert state == 1 | 1 << 64
    assert stand_in.match(state) == 1  # SITES[2] alone selects group 1
    flipped = state | 1 << 201  # SITES[1]'s bit: with SITES[0], group 0
    assert stand_in.match(flipped) == matchers["compiled"].match(flipped) == 0
    stand_in, keys = _columnar(cols, instrumentation, matchers["immediate"])
    stand_in.key = keys[0]
    machine = matchers["immediate"].machine
    machine.stack.clear()
    assert stand_in.match(flipped) == 2  # the op's innermost site, SITES[2]
    assert [site.addr for site in machine.stack] == [SITES[0], SITES[2]]
