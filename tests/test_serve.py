"""Tests of the long-running serving daemon (``repro.serve``).

The acceptance contract: the same seed yields identical swap epochs,
rollback decisions, and ``serve.*`` totals across two runs AND across a
kill-and-``--resume`` versus an uninterrupted session; under the fault
drill the service completes its request stream on the incumbent table
with zero sanitizer findings — degradation counters move, the daemon
never dies.
"""

import dataclasses

import pytest

from repro import obs
from repro.allocators.base import AddressSpace
from repro.allocators.group import GroupAllocator
from repro.allocators.size_class import SizeClassAllocator
from repro.faults.plan import FaultPlan
from repro.machine import GroupStateVector
from repro.sanitize.invariants import validate_allocator
from repro.serve import (
    MixPhase,
    ServeConfig,
    ServeError,
    ServeService,
    drill_plan,
    run_serve,
    serve_journal,
)


def small_config(**overrides) -> ServeConfig:
    """A session small enough for CI: 4 epochs, 2 scheduled regroups."""
    settings = dict(
        seed=5,
        requests=48,
        epoch_requests=12,
        window_epochs=2,
        request_factor=0.02,
    )
    settings.update(overrides)
    return ServeConfig(**settings)


def stats_dict(report):
    return dataclasses.asdict(report.stats)


class TestDeterminism:
    def test_same_seed_same_session(self):
        first = run_serve(small_config())
        second = run_serve(small_config())
        assert first.completed and second.completed
        assert stats_dict(first) == stats_dict(second)
        assert first.generation == second.generation
        # The session actually exercised the control loop.
        assert first.stats.swaps >= 1
        assert first.stats.swap_epochs
        assert first.stats.snapshots == 0  # no state dir attached

    def test_different_seeds_still_complete(self):
        report = run_serve(small_config(seed=11))
        assert report.completed
        assert report.stats.requests == 48
        assert report.stats.sanitize_findings == 0

    def test_config_digest_guards_resume(self, tmp_path):
        config = small_config()
        run_serve(config, state_dir=tmp_path)
        store = serve_journal(tmp_path, config)
        snapshot = store.load()
        assert snapshot is not None
        other = small_config(seed=6)
        service = ServeService(other, store=serve_journal(tmp_path, other))
        with pytest.raises(ServeError):
            service.restore(snapshot)


class TestKillAndResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        config = small_config()
        clean = run_serve(config, state_dir=tmp_path / "clean")

        killed = tmp_path / "killed"
        interrupted = run_serve(
            config, state_dir=killed, stop_after=20, stop_mode="kill"
        )
        assert not interrupted.completed
        resumed = run_serve(config, state_dir=killed, resume=True)
        assert resumed.completed
        assert resumed.resumed_from is not None
        assert stats_dict(resumed) == stats_dict(clean)
        assert resumed.generation == clean.generation

    def test_sigterm_style_stop_flushes_snapshot(self, tmp_path):
        config = small_config()
        clean = run_serve(config, state_dir=tmp_path / "clean")
        # "term" flushes the final boundary snapshot on interrupt, so the
        # resume continues from the last *finished* epoch.
        killed = tmp_path / "killed"
        run_serve(config, state_dir=killed, stop_after=30, stop_mode="term")
        resumed = run_serve(config, state_dir=killed, resume=True)
        assert resumed.completed
        assert stats_dict(resumed) == stats_dict(clean)

    def test_resume_without_journal_starts_fresh(self, tmp_path):
        config = small_config()
        report = run_serve(config, state_dir=tmp_path, resume=True)
        assert report.completed
        assert report.resumed_from is None

    def test_metrics_publish_once_per_session(self):
        config = small_config()
        with obs.collecting() as registry:
            report = run_serve(config)
        counters = registry.snapshot().counters
        assert counters["serve.requests"] == report.stats.requests == 48
        assert counters["serve.swaps"] == report.stats.swaps
        assert counters["serve.snapshots"] == report.stats.snapshots


class TestMigration:
    def _allocator(self):
        class _NeverMatch:
            def match(self, state):
                return None

        space = AddressSpace(0)
        allocator = GroupAllocator(
            space,
            SizeClassAllocator(space),
            _NeverMatch(),
            GroupStateVector(),
            chunk_size=1 << 12,
            slab_size=1 << 16,
        )
        return allocator

    def test_migrate_moves_regions_and_forwards(self):
        allocator = self._allocator()
        old = [allocator.place_region(1, 64) for _ in range(5)]
        report = allocator.migrate_groups({1: 2}.get)
        assert not report.aborted
        assert report.moved_regions == 5
        assert report.moved_bytes == 5 * 64
        for addr in old:
            new_addr = report.forwarding[addr]
            assert allocator.group_of(new_addr) == 2
            assert allocator.size_of(new_addr) == 64
        assert validate_allocator(allocator) == []
        assert allocator.migrated_regions == 5
        assert allocator.migrated_bytes == 5 * 64

    def test_unmapped_groups_stay_in_place(self):
        allocator = self._allocator()
        keep = allocator.place_region(3, 48)
        move = allocator.place_region(1, 48)
        report = allocator.migrate_groups({1: 2}.get)
        assert keep not in report.forwarding
        assert allocator.group_of(keep) == 3
        assert move in report.forwarding
        assert validate_allocator(allocator) == []

    def test_abort_leaves_heap_untouched(self):
        allocator = self._allocator()
        old = [allocator.place_region(1, 64) for _ in range(5)]
        before_live = allocator.grouped_live_bytes
        report = allocator.migrate_groups({1: 2}.get, should_abort=lambda step: step == 2)
        assert report.aborted
        assert report.forwarding == {}
        assert report.moved_regions == 0
        for addr in old:
            assert allocator.group_of(addr) == 1
            assert allocator.size_of(addr) == 64
        assert allocator.grouped_live_bytes == before_live
        assert allocator.migrated_regions == 0
        assert validate_allocator(allocator) == []

    def test_identity_mapping_is_a_no_op(self):
        allocator = self._allocator()
        addr = allocator.place_region(1, 64)
        report = allocator.migrate_groups({1: 1}.get)
        assert report.moved_regions == 0
        assert allocator.group_of(addr) == 1


class TestDrift:
    def test_mix_flip_triggers_drift_events(self):
        config = small_config(
            phases=(
                MixPhase(0, (("health", 1.0),)),
                MixPhase(24, (("ft", 1.0),)),
            ),
            drift_threshold=0.2,
            drift_hysteresis=1,
            regroup_every=100,  # only drift can trigger a regroup
        )
        report = run_serve(config)
        assert report.completed
        assert report.stats.drift_events >= 1
        assert report.stats.regroup_attempts >= 1


class TestSnapshotStore:
    def test_corrupted_tail_falls_back_to_previous(self, tmp_path):
        config = small_config()
        run_serve(config, state_dir=tmp_path)
        store = serve_journal(tmp_path, config)
        intact = store.load()
        assert intact is not None

        # Append one more snapshot under a plan that always corrupts it:
        # load() must fall back to the previously intact record.
        always = FaultPlan(seed=1, serve_snapshot_corrupt_rate=1.0)
        damaged = dataclasses.replace(intact, next_epoch=intact.next_epoch + 7)
        store.write(damaged, always)
        recovered = store.load()
        assert recovered is not None
        assert recovered.next_epoch == intact.next_epoch

    def test_fully_damaged_journal_degrades_to_fresh_start(self, tmp_path):
        config = small_config()
        store = serve_journal(tmp_path, config)
        store.journal.path.parent.mkdir(parents=True, exist_ok=True)
        store.journal.path.write_bytes(b"not a journal at all")
        report = run_serve(config, state_dir=tmp_path, resume=True)
        assert report.completed
        assert report.resumed_from is None


@pytest.mark.chaos
class TestServeDrill:
    def test_forced_rollback_keeps_incumbent(self):
        plan = FaultPlan(seed=1, serve_canary_flip_rate=1.0)
        report = run_serve(small_config(), plan=plan)
        assert report.completed
        assert report.stats.swaps == 0
        assert report.stats.rollbacks >= 1
        assert report.generation == 0  # never left the incumbent table
        assert report.stats.sanitize_findings == 0

    def test_full_drill_degrades_but_serves_everything(self, tmp_path):
        plan = drill_plan(seed=7)
        report = run_serve(small_config(), state_dir=tmp_path, plan=plan)
        assert report.completed
        assert report.stats.requests == 48
        assert report.stats.sanitize_findings == 0
        assert report.stats.sanitize_checks >= report.stats.epochs
        # Something actually went wrong and was absorbed.
        degradations = (
            report.stats.rollbacks
            + report.stats.swap_aborts
            + report.stats.regroup_stalls
        )
        assert degradations >= 1

    def test_drill_is_deterministic(self):
        plan = drill_plan(seed=7)
        first = run_serve(small_config(), plan=plan)
        second = run_serve(small_config(), plan=plan)
        assert stats_dict(first) == stats_dict(second)

    def test_mid_migration_flip_aborts_swap(self):
        # A swap-flip-only plan: migration aborts mid-copy, the incumbent
        # layout survives, and the session still completes cleanly.
        plan = FaultPlan(seed=3, serve_swap_flip_rate=1.0)
        report = run_serve(small_config(), plan=plan)
        assert report.completed
        assert report.stats.sanitize_findings == 0
        # Every migration with at least one planned move aborts at step 0
        # (a zero-move swap never consults the hook and may still commit),
        # so nothing ever actually relocates.
        assert report.stats.swap_aborts >= 1
        assert report.stats.migrated_regions == 0

    def test_drill_resume_matches_uninterrupted(self, tmp_path):
        plan = drill_plan(seed=7)
        clean = run_serve(small_config(), state_dir=tmp_path / "clean", plan=plan)
        run_serve(
            small_config(),
            state_dir=tmp_path / "killed",
            plan=plan,
            stop_after=20,
            stop_mode="kill",
        )
        resumed = run_serve(
            small_config(), state_dir=tmp_path / "killed", resume=True, plan=plan
        )
        assert resumed.completed
        assert stats_dict(resumed) == stats_dict(clean)


class TestReplayedProfile:
    """Each request's profile is the replay of its own recording.

    The oracle is a :class:`~repro.profiling.profiler.Profiler` listener
    attached to the very same request execution, interning into a copy of
    the workload's shared context table taken before the request ran.  A
    :class:`~repro.trace.record.RecordingMachine` takes no listeners, so
    each request runs on the listener path instead
    (``conftest.run_request_on_a_machine``): a plain ``Machine`` over the
    shared allocator, recorded by a ``TraceRecorder``.  That session must
    also leave the heap the production one leaves (recorded unplaced,
    placed afterwards; held op for op in ``tests/test_recording_machine.py``).
    """

    def test_every_request_matches_the_listener(self, monkeypatch):
        from repro.profiling.profiler import Profiler
        from repro.profiling.shadow import ContextTable
        from repro.serve import service as service_module

        from conftest import run_request_on_a_machine, serve_heap

        config = small_config(requests=24, epoch_requests=6)
        service = ServeService(config)
        pending: list[Profiler] = []
        checked: dict[str, int] = {}

        def chains(table: ContextTable) -> list:
            return [table.chain(cid) for cid in table]

        real_replay = service_module.replay_profile

        def run_with_oracle(service, workload, index):
            profiler = Profiler(workload.program, service.params.affinity)
            profiler.contexts = ContextTable()
            for chain in chains(service.contexts[workload.name]):
                profiler.contexts.intern(chain)
            pending.append(profiler)
            return run_request_on_a_machine(service, workload, index, listeners=[profiler])

        def checked_replay(trace, program, params, contexts=None):
            profile = real_replay(trace, program, params, contexts=contexts)
            oracle = pending.pop()
            graph, expected = profile.full_graph, oracle.recorder.graph
            assert list(graph.node_accesses.items()) == list(expected.node_accesses.items())
            assert list(graph.edges.items()) == list(expected.edges.items())
            assert graph.total_accesses == expected.total_accesses
            assert list(profile.object_sizes.items()) == list(oracle.object_sizes.items())
            assert profile.object_context == oracle.object_context
            assert chains(contexts) == chains(oracle.contexts)
            checked[trace.header.workload] = checked.get(trace.header.workload, 0) + 1
            return profile

        with monkeypatch.context() as patch:
            patch.setattr(ServeService, "_run_request", run_with_oracle)
            patch.setattr(service_module, "replay_profile", checked_replay)
            report = service.run()
        assert report.completed and not pending
        # Both workloads were served, each more than once, so later
        # requests interned into a table earlier requests had filled.
        assert set(checked) == {"health", "ft"}
        assert min(checked.values()) >= 2
        assert sum(checked.values()) == 24
        production = ServeService(config)
        assert stats_dict(production.run()) == stats_dict(report)
        assert serve_heap(production) == serve_heap(service)


class TestBenchmarkSessions:
    """The perfbench ``serve`` session's decisions, pinned.

    48 requests in epochs of 4, ``health`` then ``ft`` from request 24 on,
    at request factor 0.02: the figures below are what the session gave
    when each request still recorded through a listener, so a change to
    how requests are recorded or placed cannot move them unnoticed.
    """

    SHARED = dict(
        abort_epochs=[], drift_epochs=[7], drift_events=1, epochs=12,
        regroup_attempts=6, regroup_stalls=0, requests=48, rollback_epochs=[],
        rollbacks=0, sanitize_checks=12, sanitize_findings=0, snapshots=0,
        swap_aborts=0, swap_epochs=[1, 3, 5, 7, 9, 11], swaps=6,
    )
    PINNED = {
        1: dict(live_bytes=394800, migrated_bytes=1440, migrated_regions=54),
        41: dict(live_bytes=394784, migrated_bytes=2000, migrated_regions=65),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_stats_match_the_pinned_session(self, seed):
        config = ServeConfig(
            seed=seed,
            requests=48,
            epoch_requests=4,
            request_factor=0.02,
            phases=(MixPhase(0, (("health", 1.0),)), MixPhase(24, (("ft", 1.0),))),
        )
        report = run_serve(config)
        assert report.completed
        assert stats_dict(report) == {**self.SHARED, **self.PINNED[seed]}
