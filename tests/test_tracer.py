"""Tests for address-trace capture and multi-geometry replay."""

import numpy as np
import pytest

from repro.allocators import AddressSpace, SizeClassAllocator
from repro.cache import CacheHierarchy, HierarchyConfig
from repro.trace.access import AccessTrace, AccessTraceRecorder
from repro.machine import Machine
from repro.workloads import get_workload


class TestAccessTrace:
    def test_empty(self):
        trace = AccessTrace(np.array([], dtype=np.int64), np.array([], dtype=np.int32))
        assert len(trace) == 0
        assert trace.replay().accesses == 0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            AccessTrace(np.array([1, 2]), np.array([8]))


class TestReplayEquivalence:
    """Replaying a captured trace must reproduce the live run's counters."""

    @pytest.fixture(scope="class")
    def captured(self):
        workload = get_workload("ft")
        recorder = AccessTraceRecorder()
        memory = CacheHierarchy()
        machine = Machine(
            workload.program,
            SizeClassAllocator(AddressSpace(3)),
            memory=memory,
            listeners=[recorder],
        )
        workload.run(machine, "test")
        return memory.snapshot(), recorder.trace()

    def test_miss_counters_match_live_run(self, captured):
        live, trace = captured
        replayed = trace.replay()
        assert replayed.accesses == live.accesses
        assert replayed.l1_misses == live.l1_misses
        assert replayed.l2_misses == live.l2_misses
        assert replayed.l3_misses == live.l3_misses
        assert replayed.tlb_misses == live.tlb_misses

    def test_smaller_caches_miss_more(self, captured):
        _, trace = captured
        lean = HierarchyConfig(
            l1_size=8 * 1024, l1_assoc=4,
            l2_size=128 * 1024, l2_assoc=8,
            l3_size=2048 * 1024, l3_assoc=8,
            tlb_entries=16,
        )
        default_stats, lean_stats = trace.replay(HierarchyConfig()), trace.replay(lean)
        assert lean_stats.l1_misses >= default_stats.l1_misses
        assert lean_stats.l2_misses >= default_stats.l2_misses
        assert lean_stats.tlb_misses >= default_stats.tlb_misses
