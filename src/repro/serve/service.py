"""The self-healing serving control loop.

One :class:`ServeService` owns a single live heap (one address space, one
:class:`~repro.allocators.group.GroupAllocator`) and drives the configured
request stream over it.  Each request runs a workload kernel on a
:class:`~repro.trace.record.RecordingMachine`, which places nothing; its
heap ops are then placed on the shared allocator by the columnar
placement loop (:func:`~repro.columnar.engine.place_heap_ops`), under the
incumbent table's selectors.  A slice of its objects is retained on the
service heap (the long-lived state hot-swaps must migrate), and the
replay of its recording feeds the sliding window.

At every epoch boundary the loop makes its decisions in a fixed order —
expire, window-push, drift, re-group, canary, swap, sanitize, snapshot —
and every decision is a pure function of ``(config, fault plan)``.  That
is the determinism contract: two runs with the same seed, and a killed
run resumed from its last snapshot, report identical swap epochs,
rollback decisions, and final ``serve.*`` totals.

Degradation is structural rather than exceptional: a stalled re-grouper
skips the attempt, a canary regression or flipped swap keeps the
incumbent table, a corrupted snapshot falls back to the previous record —
in every case the service keeps serving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..allocators.base import AddressSpace
from ..allocators.group import GroupAllocator
from ..allocators.size_class import SizeClassAllocator
from ..columnar.engine import place_heap_ops, score_trace
from ..core.pipeline import HaloParams
from ..core.selectors import CompiledMatcher
from ..faults.plan import FaultPlan
from ..machine.machine import GroupStateVector
from ..profiling.shadow import ContextTable
from ..sanitize.invariants import Finding, validate_allocator
from ..trace.format import EventTrace
from ..trace.record import RecordingMachine
from ..trace.replay import replay_profile
from ..trace.window import TraceWindow
from ..workloads import get_workload
from ..workloads.base import Workload
from .config import ServeConfig, draw
from .snapshot import SNAPSHOT_VERSION, ServeSnapshot, SnapshotStore
from .stats import ServeStats
from .table import (
    GENERATION_SHIFT,
    WORKLOAD_SHIFT,
    BoundMatcher,
    ServingTable,
    TableEntry,
    build_entry,
    plan_regroup_mapping,
)
from .window import EpochSummary, ProfileWindow

__all__ = ["ServeError", "ServeReport", "ServeService", "run_serve", "drill_plan"]


class ServeError(Exception):
    """Raised for unusable serve state (e.g. resuming a foreign snapshot)."""


class _StopRequested(Exception):
    """Internal: the --stop-after request budget was reached."""

    def __init__(self, mode: str) -> None:
        super().__init__(mode)
        self.mode = mode


@dataclass
class _Retained:
    """A live region the service keeps across requests (ledger entry)."""

    seq: int
    gid: Optional[int]
    size: int
    expiry: int
    addr: int


@dataclass
class ServeReport:
    """What one (possibly interrupted) session did."""

    stats: ServeStats
    generation: int
    completed: bool
    resumed_from: Optional[int] = None


class ServeService:
    """The long-running allocation service (one session = one heap)."""

    def __init__(
        self,
        config: ServeConfig,
        store: Optional[SnapshotStore] = None,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        self.store = store
        self.plan = plan
        self.params = HaloParams(
            chunk_size=config.chunk_size, slab_size=config.slab_size
        )
        self._workloads: dict[str, Workload] = {}

        # Decision-level state (everything a snapshot carries).
        self.stats = ServeStats()
        self.table = ServingTable()
        self.contexts: dict[str, ContextTable] = {}
        self.profile_window = ProfileWindow(config.window_epochs)
        self.trace_window = TraceWindow(config.window_epochs)
        self.retained: list[_Retained] = []
        self.next_seq = 0
        self.cooldown = 0
        self.next_epoch = 0
        self.resumed_from: Optional[int] = None
        #: Ledger length at the last epoch boundary — interrupt-flushed
        #: snapshots must exclude partial-epoch retentions, which the
        #: resumed replay of that epoch will re-create.
        self._boundary_seq = 0

        # The live heap.
        self.space = AddressSpace(config.seed)
        self.matcher = BoundMatcher()
        self.allocator = GroupAllocator(
            self.space,
            SizeClassAllocator(self.space),
            self.matcher,
            GroupStateVector(),
            chunk_size=config.chunk_size,
            slab_size=config.slab_size,
            max_grouped_size=self.params.max_grouped_size,
        )

    # -- construction helpers ------------------------------------------------

    def _workload(self, name: str) -> Workload:
        workload = self._workloads.get(name)
        if workload is None:
            workload = self._workloads[name] = get_workload(name)
        return workload

    # -- resume --------------------------------------------------------------

    def restore(self, snapshot: ServeSnapshot) -> None:
        """Adopt *snapshot* and rebuild the heap it describes.

        The rebuilt regions land at different addresses than the original
        run's (the ledger stores sizes and group ids only), which is fine:
        no serve-level decision reads an address.
        """
        if snapshot.config_digest != self.config.digest():
            raise ServeError(
                "snapshot was taken under a different serve configuration "
                f"(digest {snapshot.config_digest} != {self.config.digest()})"
            )
        self.stats = snapshot.stats
        self.table = snapshot.table
        self.contexts = snapshot.contexts
        self.profile_window = ProfileWindow.from_state(
            self.config.window_epochs, snapshot.profile_window
        )
        self.trace_window = TraceWindow.from_state(
            self.config.window_epochs, snapshot.trace_window
        )
        self.cooldown = snapshot.cooldown
        self.next_epoch = snapshot.next_epoch
        self.next_seq = snapshot.next_seq
        self._boundary_seq = snapshot.next_seq
        self.resumed_from = snapshot.next_epoch
        self.retained = []
        for seq, gid, size, expiry in snapshot.retained:
            addr = self.allocator.place_region(gid, size)
            self.space.touch_range(addr, size)
            self.retained.append(_Retained(seq, gid, size, expiry, addr))

    # -- the control loop ----------------------------------------------------

    def run(
        self, stop_after: Optional[int] = None, stop_mode: str = "term"
    ) -> ServeReport:
        """Serve the configured request stream; never raises for faults.

        *stop_after* ends the session after that many requests served **in
        this process** — ``stop_mode="term"`` flushes a resume snapshot
        first (graceful shutdown), ``"kill"`` does not (simulated crash;
        recovery relies on the last periodic snapshot).
        """
        config = self.config
        total_epochs = config.total_epochs()
        served = 0
        try:
            while self.next_epoch < total_epochs:
                epoch = self.next_epoch
                start, end = config.epoch_bounds(epoch)
                summary = EpochSummary(epoch)
                traces: dict[str, object] = {}
                for index in range(start, end):
                    if stop_after is not None and served >= stop_after:
                        raise _StopRequested(stop_mode)
                    self._serve_request(index, epoch, summary, traces)
                    served += 1
                self._end_epoch(epoch, summary, traces)
                self.next_epoch = epoch + 1
                self._boundary_seq = self.next_seq
                if (
                    self.store is not None
                    and (epoch + 1) % config.snapshot_every == 0
                ):
                    # Count first: the persisted record must include its
                    # own write, or a resumed session under-reports.
                    self.stats.snapshots += 1
                    self.store.write(self._build_snapshot(), self.plan)
        except (KeyboardInterrupt, _StopRequested) as stop:
            mode = stop.mode if isinstance(stop, _StopRequested) else "term"
            if mode != "kill" and self.store is not None:
                # Graceful shutdown: flush boundary-consistent state (not
                # counted — a resumed session must report the same totals
                # an uninterrupted one does).
                self.store.write(self._build_snapshot(), self.plan)
            return ServeReport(
                stats=self.stats,
                generation=self.table.generation,
                completed=False,
                resumed_from=self.resumed_from,
            )
        self.stats.publish()
        return ServeReport(
            stats=self.stats,
            generation=self.table.generation,
            completed=True,
            resumed_from=self.resumed_from,
        )

    # -- request handling ----------------------------------------------------

    def _pick_workload(self, index: int) -> str:
        mix = self.config.mix_at(index)
        total = sum(weight for _, weight in mix)
        point = draw(self.config.seed, "request-kind", index) * total
        for name, weight in mix:
            point -= weight
            if point < 0:
                return name
        return mix[-1][0]

    def _serve_request(
        self, index: int, epoch: int, summary: EpochSummary, traces: dict
    ) -> None:
        name = self._pick_workload(index)
        workload = self._workload(name)
        contexts = self.contexts.setdefault(name, ContextTable())
        trace = self._run_request(workload, index)
        # Shared interning: stable cids per workload across requests.
        profile = replay_profile(trace, workload.program, self.params, contexts=contexts)
        summary.mix[name] = summary.mix.get(name, 0) + 1
        summary.fold_graph(name, profile.full_graph)
        summary.fold_sizes(profile.object_sizes.values())
        # One trace per workload per epoch feeds the canary window.
        traces.setdefault(name, trace)

        # A deterministic sample of its objects is promoted into the
        # session cache: re-allocated into the pool of the group their
        # allocation context maps to under the incumbent table.  This is
        # the long-lived state hot-swaps must migrate.
        seed = self.config.seed
        promoted = 0
        for oid in sorted(profile.object_sizes):
            if promoted >= self.config.retain_max:
                break
            if draw(seed, "retain", index, oid) >= self.config.retain_rate:
                continue
            size = profile.object_sizes[oid]
            gid = self._gid_for_context(name, profile.object_context.get(oid))
            addr = self.allocator.place_region(gid, size)
            self.space.touch_range(addr, size)
            ttl = 1 + int(
                draw(seed, "retain-ttl", index, oid) * self.config.retain_epochs
            )
            self.retained.append(
                _Retained(
                    seq=self.next_seq, gid=gid, size=size,
                    expiry=epoch + ttl, addr=addr,
                )
            )
            self.next_seq += 1
            promoted += 1

    def _run_request(self, workload: Workload, index: int) -> EventTrace:
        """Record request *index*, then place it on the shared heap.

        The request's own heap drains completely: workload kernels free
        their objects, and any stragglers are freed here, at their placed
        addresses, in the recording's ``live_objects()`` order.
        """
        name = workload.name
        machine = RecordingMachine(
            workload.program, workload=name, scale="test", seed=self.config.seed
        )
        rng = random.Random(f"serve:{self.config.seed}:{index}:{name}")
        workload._execute(machine, rng, self.config.request_factor)
        machine.finish()
        self.matcher.active = self.table.matcher_for(name)
        try:
            addrs = place_heap_ops(
                machine.trace, workload.program, self.allocator,
                self.table.instrumentation_for(name),
            )
        finally:
            self.matcher.active = None
        for obj in machine.objects.live_objects():
            self.allocator.free(addrs[obj.oid])
        return machine.trace

    def _gid_for_context(self, workload: str, cid: Optional[int]) -> Optional[int]:
        """Global gid the incumbent table assigns to context *cid*."""
        entry = self.table.entries.get(workload)
        if entry is None or cid is None:
            return None
        for group in entry.groups:
            if cid in group.members:
                return entry.gid_base + group.gid
        return None

    # -- epoch boundary ------------------------------------------------------

    def _end_epoch(self, epoch: int, summary: EpochSummary, traces: dict) -> None:
        config = self.config
        start, end = config.epoch_bounds(epoch)
        self.stats.requests += end - start
        self.stats.epochs += 1

        self.profile_window.push(summary)
        for name in sorted(traces):
            self.trace_window.push(name, traces[name])

        # Expire retained regions whose lease ended.
        kept: list[_Retained] = []
        for region in self.retained:
            if region.expiry <= epoch:
                self.allocator.free(region.addr)
            else:
                kept.append(region)
        self.retained = kept

        drifted = self.profile_window.observe_drift(
            config.drift_threshold, config.drift_hysteresis
        )
        if drifted:
            self.stats.drift_events += 1
            self.stats.drift_epochs.append(epoch)

        if self.cooldown > 0:
            # Hysteresis: a recent rollback/abort suppresses re-grouping,
            # so oscillating traffic cannot thrash the table.
            self.cooldown -= 1
        elif drifted or (epoch + 1) % config.regroup_every == 0:
            self._attempt_regroup(epoch)

        self._sanitize_epoch()
        self.stats.live_bytes = sum(region.size for region in self.retained)

    def _attempt_regroup(self, epoch: int) -> None:
        self.stats.regroup_attempts += 1
        plan = self.plan
        if plan is not None and plan.stall_regroup(epoch):
            # The re-grouper produced nothing this epoch; keep serving on
            # the incumbent table and try again at the next trigger.
            self.stats.regroup_stalls += 1
            return

        generation = self.table.generation + 1
        candidates: dict[str, TableEntry] = {}
        for widx, name in enumerate(self.profile_window.workloads()):
            graph = self.profile_window.merged_graph(name)
            if not graph.node_accesses:
                continue
            gid_base = (generation << GENERATION_SHIFT) | (widx << WORKLOAD_SHIFT)
            entry = build_entry(
                self._workload(name), graph, self.contexts[name],
                self.params, gid_base,
            )
            if entry is not None:
                candidates[name] = entry
        if not candidates:
            return

        if self._canary_regressed(epoch, candidates):
            self.stats.rollbacks += 1
            self.stats.rollback_epochs.append(epoch)
            self.cooldown = self.config.cooldown_epochs
            return

        abort_hook = None
        if plan is not None:
            abort_hook = lambda step: plan.flip_swap(epoch, step)
        mapping = plan_regroup_mapping(self.table, candidates)
        report = self.allocator.migrate_groups(mapping.get, should_abort=abort_hook)
        if report.aborted:
            # The flip fired mid-migration; migrate_groups discarded its
            # copies, so the incumbent layout is untouched — keep serving.
            self.stats.swap_aborts += 1
            self.stats.abort_epochs.append(epoch)
            self.cooldown = self.config.cooldown_epochs
            return

        for region in self.retained:
            if region.addr in report.forwarding:
                region.addr = report.forwarding[region.addr]
            if region.gid is not None and region.gid in mapping:
                region.gid = mapping[region.gid]
        self.table.install(candidates, generation)
        self.table.prune_members(
            region.gid for region in self.retained if region.gid is not None
        )
        self.stats.swaps += 1
        self.stats.swap_epochs.append(epoch)
        self.stats.migrated_regions += report.moved_regions
        self.stats.migrated_bytes += report.moved_bytes
        self.profile_window.rebase_reference()

    # -- canary --------------------------------------------------------------

    def _canary_regressed(self, epoch: int, candidates: dict[str, TableEntry]) -> bool:
        """Score candidates vs the incumbent on the recent trace window."""
        if self.plan is not None and self.plan.flip_canary(epoch):
            return True
        incumbent_total = 0.0
        candidate_total = 0.0
        scored = False
        for name in sorted(candidates):
            trace = self.trace_window.latest(name)
            if trace is None:
                continue
            scored = True
            workload = self._workload(name)
            candidate_total += self._score_entry(workload, trace, candidates[name])
            incumbent_total += self._score_entry(
                workload, trace, self.table.entries.get(name)
            )
        if not scored:
            return False
        return candidate_total > incumbent_total * (1.0 + self.config.regress_tolerance)

    def _score_entry(
        self, workload: Workload, trace, entry: Optional[TableEntry]
    ) -> float:
        config = self.config
        if entry is None:
            return score_trace(
                workload, SizeClassAllocator, trace, seed=config.seed
            )
        state_vector = GroupStateVector()
        matcher = CompiledMatcher(list(entry.selectors), entry.bit_for_site)

        def make_allocator(space: AddressSpace) -> GroupAllocator:
            return GroupAllocator(
                space,
                SizeClassAllocator(space),
                matcher,
                state_vector,
                chunk_size=config.chunk_size,
                slab_size=config.slab_size,
                max_grouped_size=self.params.max_grouped_size,
            )

        return score_trace(
            workload,
            make_allocator,
            trace,
            seed=config.seed,
            instrumentation=dict(entry.bit_for_site),
            state_vector=state_vector,
        )

    # -- invariants ----------------------------------------------------------

    def _sanitize_epoch(self) -> list[Finding]:
        """Heap-consistency walk at the epoch boundary (post-swap)."""
        findings = validate_allocator(self.allocator)
        for region in self.retained:
            try:
                size = self.allocator.size_of(region.addr)
            except Exception as exc:
                findings.append(
                    Finding(
                        "serve.lost-region",
                        f"retained region seq={region.seq} at {region.addr:#x} "
                        f"is unknown to the allocator ({exc})",
                    )
                )
                continue
            if size != region.size:
                findings.append(
                    Finding(
                        "serve.size-mismatch",
                        f"retained region seq={region.seq}: ledger says "
                        f"{region.size} bytes, allocator says {size}",
                    )
                )
        self.stats.sanitize_checks += 1
        self.stats.sanitize_findings += len(findings)
        return findings

    # -- snapshots ------------------------------------------------------------

    def _build_snapshot(self) -> ServeSnapshot:
        """Boundary-consistent snapshot of the decision state."""
        retained = [
            (region.seq, region.gid, region.size, region.expiry)
            for region in self.retained
            if region.seq < self._boundary_seq
        ]
        return ServeSnapshot(
            version=SNAPSHOT_VERSION,
            config_digest=self.config.digest(),
            next_epoch=self.next_epoch,
            stats=self.stats,
            generation=self.table.generation,
            table=self.table,
            contexts=self.contexts,
            profile_window=self.profile_window.state(),
            trace_window=self.trace_window.state(),
            retained=retained,
            next_seq=self._boundary_seq,
            cooldown=self.cooldown,
        )


# -- entry points --------------------------------------------------------------


def serve_journal(state_dir: Union[str, Path], config: ServeConfig) -> SnapshotStore:
    """The conventional snapshot-journal location for one configuration."""
    return SnapshotStore(Path(state_dir) / f"serve-{config.digest()}.journal")


def run_serve(
    config: ServeConfig,
    state_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    plan: Optional[FaultPlan] = None,
    stop_after: Optional[int] = None,
    stop_mode: str = "term",
) -> ServeReport:
    """Run one serving session end to end.

    With *state_dir*, periodic snapshots land in a journal there and
    *resume* continues from the newest intact one (a missing or fully
    damaged journal degrades to a fresh start).
    """
    store = serve_journal(state_dir, config) if state_dir is not None else None
    service = ServeService(config, store=store, plan=plan)
    if resume and store is not None:
        snapshot = store.load()
        if snapshot is not None:
            service.restore(snapshot)
    return service.run(stop_after=stop_after, stop_mode=stop_mode)


def drill_plan(
    seed: int = 0,
    swap_flip: float = 0.35,
    canary_flip: float = 0.25,
    regroup_stall: float = 0.25,
    snapshot_corrupt: float = 0.35,
) -> FaultPlan:
    """The standard serve fault drill: every serve-layer fault armed."""
    return FaultPlan(
        seed=seed,
        serve_swap_flip_rate=swap_flip,
        serve_canary_flip_rate=canary_flip,
        serve_regroup_stall_rate=regroup_stall,
        serve_snapshot_corrupt_rate=snapshot_corrupt,
    )
