"""Tests for the Calder et al. name-based placement replication (§2.2.3)."""


from repro.allocators import AddressSpace
from repro.calder import (
    CalderParams,
    NameMatcher,
    NameTable,
    make_runtime,
    name_of,
    profile_workload,
)
from repro.harness.runner import measure, measure_baseline
from repro.machine import Machine, ProgramBuilder
from repro.allocators import SizeClassAllocator
from repro.workloads import get_workload


class TestNaming:
    def _stack(self, *addrs):
        b = ProgramBuilder("naming")
        sites = []
        for index, _ in enumerate(addrs):
            sites.append(b.call_site("main", f"f{index}"))
        return sites

    def test_xor_of_last_four(self):
        sites = self._stack(1, 2, 3, 4, 5)
        expected = 0
        for site in sites[-4:]:
            expected ^= site.addr
        assert name_of(sites) == expected

    def test_shallow_stack_uses_all_frames(self):
        sites = self._stack(1, 2)
        assert name_of(sites) == sites[0].addr ^ sites[1].addr

    def test_empty_stack(self):
        assert name_of([]) == 0

    def test_depth_parameter(self):
        sites = self._stack(1, 2, 3)
        assert name_of(sites, depth=1) == sites[-1].addr

    def test_frames_above_window_invisible(self):
        """The scheme's defining blind spot: deep prefixes don't matter."""
        sites = self._stack(1, 2, 3, 4, 5, 6)
        # Two stacks sharing the innermost four sites collide.
        assert name_of(sites) == name_of(sites[-4:])
        assert name_of(sites[1:]) == name_of(sites)


class TestNameTable:
    def test_intern_roundtrip(self):
        table = NameTable()
        nid = table.intern(0xABCD)
        assert table.name(nid) == 0xABCD
        assert table.intern(0xABCD) == nid
        assert table.lookup(0xABCD) == nid
        assert table.lookup(0x9999) is None
        assert len(table) == 1


class TestCalderOnWorkloads:
    def test_identifies_health_like_halo(self):
        """Shallow, distinct call paths: names separate hot from cold."""
        workload = get_workload("health")
        artifacts = profile_workload(workload, CalderParams())
        assert artifacts.groups
        runtime = make_runtime(artifacts, AddressSpace(1))
        machine = Machine(workload.program, runtime.allocator)
        runtime.attach(machine)
        workload.run(machine, "test")
        assert runtime.allocator.grouped_allocs > 0

    def test_blind_to_xalanc_deep_contexts(self):
        """xalanc's allocation paths differ only above the 4-frame window."""
        workload = get_workload("xalanc")
        artifacts = profile_workload(workload, CalderParams())
        # Every small allocation shares the deep funnel suffix, so all
        # contexts collapse onto one name: no useful groups can separate
        # DOM nodes from strings.
        hot_names = {
            artifacts.names.name(nid)
            for group in artifacts.groups
            for nid in group.members
        }
        assert len(hot_names) <= 1

    def test_measure_calder_runs(self):
        workload = get_workload("health")
        artifacts = profile_workload(workload, CalderParams())
        base = measure_baseline(workload, scale="test", seed=1)
        calder = measure(workload, "calder", artifacts, scale="test", seed=1)
        assert calder.config == "calder"
        assert calder.cycles > 0
        # On health the name window suffices: misses drop.
        assert calder.cache.l1_misses < base.cache.l1_misses


class TestNameMatcher:
    def test_unattached_matches_nothing(self):
        assert NameMatcher({0: 1}, 4).match(0) is None

    def test_matches_current_stack_name(self, demo):
        machine = Machine(demo.program, SizeClassAllocator(AddressSpace(0)))
        name = demo.main_a.addr ^ demo.a_malloc.addr
        matcher = NameMatcher({name: 7}, 4)
        matcher.attach(machine)
        with machine.call(demo.main_a):
            assert matcher.match(0) is None
            with machine.call(demo.a_malloc):
                assert matcher.match(0) == 7
