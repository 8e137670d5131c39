"""Tests for the measurement harness and trial methodology."""

import pytest

from repro.cache import CostModel
from repro.core import HaloParams, optimise_profile, profile_workload
from repro.harness import (
    TrialStats,
    measure_baseline,
    measure_halo,
    measure_random_pools,
    miss_reduction,
    run_trials,
    speedup,
)
from repro.harness.reproduce import halo_params_for, hds_params_for
from repro.hds import HdsParams, analyse_profile
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def health_setup():
    workload = get_workload("health")
    profile = profile_workload(workload, HaloParams(), scale="test", record_trace=True)
    halo = optimise_profile(profile, HaloParams())
    hds = analyse_profile(profile, HdsParams())
    return workload, halo, hds


class TestMeasurements:
    def test_baseline_measurement_fields(self, health_setup):
        workload, _, _ = health_setup
        m = measure_baseline(workload, scale="test", seed=1)
        assert m.workload == "health"
        assert m.config == "baseline"
        assert m.cycles > 0
        assert m.accesses > 0
        assert m.cache.l1_misses > 0
        assert m.peak_live_bytes > 0
        assert m.grouped_allocs == 0

    def test_halo_measurement_groups_allocations(self, health_setup):
        workload, halo, _ = health_setup
        m = measure_halo(workload, halo, scale="test", seed=1)
        assert m.grouped_allocs > 0
        assert m.instrumentation_toggles > 0
        assert m.frag_at_peak is not None

    def test_same_seed_reproducible(self, health_setup):
        workload, _, _ = health_setup
        a = measure_baseline(workload, scale="test", seed=2)
        b = measure_baseline(workload, scale="test", seed=2)
        assert a.cycles == b.cycles
        assert a.cache == b.cache

    def test_different_seed_changes_placement_only(self, health_setup):
        workload, _, _ = health_setup
        a = measure_baseline(workload, scale="test", seed=1)
        b = measure_baseline(workload, scale="test", seed=2)
        assert a.accesses == b.accesses  # same program behaviour
        assert a.cycles != b.cycles  # different placement noise

    def test_random_pools_measurement(self, health_setup):
        workload, _, _ = health_setup
        m = measure_random_pools(workload, scale="test", seed=1)
        assert m.config == "random-pools"
        assert m.cycles > 0

    def test_custom_cost_model(self, health_setup):
        workload, _, _ = health_setup
        cheap = measure_baseline(
            workload, scale="test", seed=1, cost_model=CostModel(memory=50.0)
        )
        dear = measure_baseline(
            workload, scale="test", seed=1, cost_model=CostModel(memory=500.0)
        )
        assert dear.cycles > cheap.cycles


class TestTrials:
    def test_trial_stats_quartiles(self):
        stats = TrialStats.of([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.median == 3.0
        assert stats.q25 <= stats.median <= stats.q75

    def test_trial_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            TrialStats.of([])

    def test_run_trials_measures_only_reported_seeds(self, health_setup):
        workload, _, _ = health_setup
        seen = []

        def measure(seed):
            seen.append(seed)
            return measure_baseline(workload, scale="test", seed=seed)

        result = run_trials(measure, trials=2)
        assert seen == [1, 2]
        assert [m.seed for m in result.measurements] == [1, 2]

    def test_run_trials_invalid_count(self):
        with pytest.raises(ValueError):
            run_trials(lambda seed: None, trials=0)

    def test_representative_is_median_like(self, health_setup):
        workload, _, _ = health_setup
        result = run_trials(
            lambda seed: measure_baseline(workload, scale="test", seed=seed), trials=3
        )
        cycles = sorted(m.cycles for m in result.measurements)
        assert result.representative.cycles == cycles[1]

    def test_reduction_and_speedup_orientation(self, health_setup):
        workload, halo, _ = health_setup
        base = run_trials(
            lambda seed: measure_baseline(workload, scale="test", seed=seed), trials=2
        )
        opt = run_trials(
            lambda seed: measure_halo(workload, halo, scale="test", seed=seed), trials=2
        )
        assert miss_reduction(base, opt) > 0
        assert speedup(base, opt) > 0


class TestParamHelpers:
    def test_quirks_honoured(self):
        omnetpp = get_workload("omnetpp")
        params = halo_params_for(omnetpp)
        assert params.chunk_size == 131072
        assert params.max_spare_chunks == 0
        assert params.always_reuse_chunks

    def test_roms_max_groups(self):
        roms = get_workload("roms")
        assert halo_params_for(roms).max_groups == 4
        assert hds_params_for(roms).max_groups == 4

    def test_overrides_compose(self):
        omnetpp = get_workload("omnetpp")
        params = halo_params_for(omnetpp, chunk_size=1 << 20)
        assert params.chunk_size == 1 << 20
        assert params.max_spare_chunks == 0

    def test_affinity_distance_override(self):
        health = get_workload("health")
        params = halo_params_for(health).with_affinity_distance(64)
        assert params.affinity.distance == 64
