"""Tests for the hot-data-streams pipeline and runtime."""

import pytest

from repro.allocators import AddressSpace
from repro.core import HaloParams, profile_workload
from repro.hds import HdsParams, analyse_profile, make_runtime
from repro.hds.pipeline import ImmediateSiteMatcher
from repro.machine import Machine
from repro.workloads import get_workload


class TestAnalyseProfile:
    def test_requires_trace(self):
        workload = get_workload("ft")
        profile = profile_workload(workload, HaloParams(), scale="test")
        with pytest.raises(ValueError):
            analyse_profile(profile, HdsParams())

    def test_direct_site_benchmark_forms_groups(self):
        workload = get_workload("ft")
        profile = profile_workload(
            workload, HaloParams(), scale="test", record_trace=True
        )
        hds = analyse_profile(profile, HdsParams())
        assert hds.groups
        assert hds.group_of_site
        assert hds.stream_count > 0

    def test_spans_split_grammar_from_selection(self):
        from repro import obs

        workload = get_workload("ft")
        profile = profile_workload(
            workload, HaloParams(), scale="test", record_trace=True
        )
        analyse_profile(profile, HdsParams())  # no registry: records nothing
        with obs.collecting() as registry:
            with obs.span("phase.analyse"):
                analyse_profile(profile, HdsParams())
        spans = registry.snapshot().spans
        assert [s.name for s in spans] == ["phase.analyse", "hds.sequitur", "hds.select"]
        assert [s.parent for s in spans] == [-1, 0, 0]

    def test_max_groups_cap(self):
        workload = get_workload("roms")
        profile = profile_workload(
            workload, HaloParams(), scale="test", record_trace=True
        )
        hds = analyse_profile(profile, HdsParams(max_groups=1))
        assert len(hds.groups) <= 1


class TestImmediateSiteMatcher:
    def test_unattached_matches_nothing(self):
        matcher = ImmediateSiteMatcher({0x10: 0})
        assert matcher.match(0) is None

    def test_matches_stack_top(self, demo):
        from repro.allocators import SizeClassAllocator

        matcher = ImmediateSiteMatcher({demo.a_malloc.addr: 3})
        machine = Machine(demo.program, SizeClassAllocator(AddressSpace(0)))
        matcher.attach(machine)
        with machine.call(demo.main_a):
            assert matcher.match(0) is None  # top is main->create_a
            with machine.call(demo.a_malloc):
                assert matcher.match(0) == 3

    def test_state_vector_ignored(self, demo):
        from repro.allocators import SizeClassAllocator

        matcher = ImmediateSiteMatcher({demo.a_malloc.addr: 3})
        machine = Machine(demo.program, SizeClassAllocator(AddressSpace(0)))
        matcher.attach(machine)
        with machine.call(demo.main_a):
            with machine.call(demo.a_malloc):
                assert matcher.match(0xFFFF) == 3


class TestHdsRuntime:
    def test_runtime_pools_grouped_sites(self):
        workload = get_workload("ft")
        profile = profile_workload(
            workload, HaloParams(), scale="test", record_trace=True
        )
        hds = analyse_profile(profile, HdsParams())
        runtime = make_runtime(hds, AddressSpace(1))
        machine = Machine(workload.program, runtime.allocator)
        runtime.attach(machine)
        workload.run(machine, "test")
        assert runtime.allocator.grouped_allocs > 0
        assert runtime.allocator.forwarded_allocs > 0
