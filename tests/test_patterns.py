"""Tests for workload building blocks (patterns + the shared kernel)."""

import random

import pytest

from repro.allocators import AddressSpace, SizeClassAllocator
from repro.machine import Machine, ProgramBuilder
from repro.workloads._kernel import (
    ChaseSpec,
    StructureSpec,
    allocate_structures,
    chase_structures,
    release_structures,
)
from repro.workloads.patterns import (
    alloc_through,
    burst_plan,
    chase_list,
    chase_pairs,
    free_all,
    interleave,
    partial_shuffle,
    sweep_arrays,
)


@pytest.fixture
def simple():
    b = ProgramBuilder("patterns")
    b.function("malloc", in_main_binary=False)
    outer = b.call_site("main", "maker")
    inner = b.call_site("maker", "malloc")
    program = b.build()
    machine = Machine(program, SizeClassAllocator(AddressSpace(0)))
    return machine, [outer, inner]


class TestCallHelpers:
    def test_call_chain_enters_all_sites(self, simple):
        machine, sites = simple
        with machine.call(*sites):
            assert [s.addr for s in machine.stack] == [s.addr for s in sites]
        assert machine.stack == []

    def test_alloc_through(self, simple):
        machine, sites = simple
        obj = alloc_through(machine, sites, 40)
        assert obj.size == 40
        assert machine.stack == []


class TestAccessHelpers:
    def test_chase_list_loads_and_work(self, simple):
        machine, sites = simple
        objects = [machine.malloc(64) for _ in range(5)]
        chase_list(machine, objects, loads_per_object=2, work=1.5)
        assert machine.metrics.loads == 10
        assert machine.metrics.compute_cycles == pytest.approx(15.0)

    def test_chase_list_store_every(self, simple):
        machine, _ = simple
        objects = [machine.malloc(64) for _ in range(6)]
        chase_list(machine, objects, loads_per_object=1, store_every=3)
        assert machine.metrics.stores == 2

    def test_chase_pairs(self, simple):
        machine, _ = simple
        pairs = [(machine.malloc(16), machine.malloc(64)) for _ in range(4)]
        chase_pairs(machine, pairs)
        assert machine.metrics.loads == 12  # 3 loads per pair

    def test_sweep_arrays(self, simple):
        machine, _ = simple
        arrays = [machine.malloc(64), machine.malloc(128)]
        sweep_arrays(machine, arrays, element_size=8)
        assert machine.metrics.loads == (64 + 128) // 8

    def test_free_all_skips_dead(self, simple):
        machine, _ = simple
        objects = [machine.malloc(16) for _ in range(3)]
        machine.free(objects[0])
        free_all(machine, objects)
        assert machine.objects.live_count == 0


class TestOrderingHelpers:
    def test_partial_shuffle_zero_is_identity(self):
        items = list(range(50))
        assert partial_shuffle(items, 0.0, random.Random(0)) == items

    def test_partial_shuffle_preserves_multiset(self):
        items = list(range(100))
        shuffled = partial_shuffle(items, 0.5, random.Random(0))
        assert sorted(shuffled) == items
        assert shuffled != items

    def test_partial_shuffle_does_not_mutate(self):
        items = list(range(10))
        partial_shuffle(items, 1.0, random.Random(0))
        assert items == list(range(10))

    def test_partial_shuffle_negative_rejected(self):
        with pytest.raises(ValueError):
            partial_shuffle([1], -0.5, random.Random(0))

    def test_interleave_preserves_per_sequence_order(self):
        rng = random.Random(1)
        merged = interleave(rng, ["a1", "a2", "a3"], ["b1", "b2"])
        assert [x for x in merged if x.startswith("a")] == ["a1", "a2", "a3"]
        assert [x for x in merged if x.startswith("b")] == ["b1", "b2"]
        assert len(merged) == 5

    def test_burst_plan_counts_and_runs(self):
        rng = random.Random(2)
        plan = burst_plan(rng, [("x", 10, 3), ("y", 6, 2)])
        assert plan.count("x") == 10
        assert plan.count("y") == 6
        # The two labels actually interleave (not one sorted block each).
        transitions = sum(1 for a, b in zip(plan, plan[1:]) if a != b)
        assert transitions >= 2

    def test_burst_plan_invalid_burst(self):
        with pytest.raises(ValueError):
            burst_plan(random.Random(0), [("x", 5, 0)])


class TestKernel:
    def _specs(self, sites):
        outer, inner = sites
        return [
            StructureSpec("hot", 20, 48, [outer, inner], cells=2, cell_size=16,
                          cell_chain=[outer, inner]),
            StructureSpec("cold", 10, 48, [outer, inner]),
        ]

    def test_allocate_structures_counts(self, simple):
        machine, sites = simple
        groups = allocate_structures(machine, random.Random(0), self._specs(sites))
        assert len(groups["hot"]) == 20
        assert len(groups["cold"]) == 10
        assert all(len(cells) == 2 for _, cells in groups["hot"])
        assert machine.metrics.allocs == 20 * 3 + 10

    def test_chase_structures_interleaves_cell_and_node(self, simple):
        machine, sites = simple
        groups = allocate_structures(machine, random.Random(0), self._specs(sites))
        before = machine.metrics.loads
        chase_structures(
            machine, groups["hot"], ChaseSpec("hot", passes=2, node_loads=2),
            1.0, random.Random(0),
        )
        # 2 passes x 20 items x (2 cells + 2 node loads)
        assert machine.metrics.loads - before == 2 * 20 * 4

    def test_chase_with_table(self, simple):
        machine, sites = simple
        groups = allocate_structures(machine, random.Random(0), self._specs(sites))
        table = machine.malloc(4096)
        before = machine.metrics.loads
        chase_structures(
            machine, groups["hot"],
            ChaseSpec("hot", passes=1, node_loads=1, table_every=4),
            1.0, random.Random(0), table=table,
        )
        # 20 items x (2 cells + 2 interleaved node loads) + 5 table loads
        assert machine.metrics.loads - before == 20 * 4 + 5

    def test_release_structures(self, simple):
        machine, sites = simple
        groups = allocate_structures(machine, random.Random(0), self._specs(sites))
        release_structures(machine, groups)
        assert machine.objects.live_count == 0
