"""The affinity queue and graph recorder (paper Section 4.1, Figure 5).

The queue holds the most recently accessed heap objects, implicitly sized by
the *affinity distance* A: two accesses are affinitive when the sizes of the
queue entries between them sum to less than A bytes.  Every recorded access
traverses the queue and increments affinity-graph edges, subject to the four
constraints spelled out in the paper:

Deduplication
    consecutive machine-level accesses to one object form a single
    macro-level access and do not re-trigger traversal;
No self-affinity
    an object is never affinitive with itself;
No double counting
    each unique object is affinitive with the new access at most once per
    traversal;
Co-allocatability
    no allocation chronologically between the two objects may originate
    from either of their contexts — otherwise a shared pool could not have
    placed the pair contiguously at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import AffinityGraph

#: Sentinels for "no allocation of the context before / after this one".
_NONE_BEFORE = -(1 << 62)
_NONE_AFTER = 1 << 62


@dataclass(frozen=True)
class AffinityParams:
    """Profiling parameters.

    Attributes:
        distance: The affinity distance A in bytes (paper default 128,
            selected via the Figure 12 sweep).
        max_object_size: Objects at or above this size are tracked in the
            queue (they consume window space and access counts) but never
            form edges — the specialised allocator will not group them
            (evaluation uses a maximum grouped-object size of 4 KiB).
        node_coverage: Fraction of accesses the kept graph nodes must cover
            (Section 4.1 uses 90 %).
        enforce_co_allocatability: Ablation switch for the fourth queue
            constraint.  Disabling it admits edges between objects that a
            shared pool could never have placed contiguously — useful for
            quantifying how much the constraint contributes.
    """

    distance: int = 128
    max_object_size: int = 4096
    node_coverage: float = 0.90
    enforce_co_allocatability: bool = True

    def __post_init__(self) -> None:
        if self.distance <= 0:
            raise ValueError(f"affinity distance must be positive, got {self.distance}")
        if self.max_object_size <= 0:
            raise ValueError(
                f"max object size must be positive, got {self.max_object_size}"
            )
        if not 0.0 < self.node_coverage <= 1.0:
            raise ValueError(f"node coverage must be in (0, 1], got {self.node_coverage}")


class AffinityRecorder:
    """Builds an :class:`AffinityGraph` from an object-level access stream.

    Implementation note: the queue of Figure 5 is represented as an ordered
    map from object id to its *most recent* access, plus a cumulative byte
    counter.  The two representations are equivalent — an object is
    affinitive with the new access iff the access bytes after its most
    recent occurrence sum to less than A, and the no-double-counting rule
    considers each object once per traversal anyway — but the uniqued form
    makes traversal cost proportional to *distinct* objects in the window,
    which keeps large affinity distances (the Figure 12 sweep reaches 2^17)
    tractable.
    """

    def __init__(self, params: AffinityParams | None = None) -> None:
        self.params = params or AffinityParams()
        # Hot-loop constants, hoisted out of record_access (params is frozen).
        self._distance = self.params.distance
        self._enforce_coalloc = self.params.enforce_co_allocatability
        self.graph = AffinityGraph()
        # Most-recent access per object: oid -> (cid, alloc seq,
        # cumulative bytes *after* the access, groupable, previous alloc
        # seq of the same context).  Insertion order is access recency
        # (oldest first).
        self._window: dict[int, tuple[int, int, int, bool, int]] = {}
        self._total_bytes = 0
        self._last_oid: int | None = None
        # Object metadata: oid -> (cid, alloc seq, groupable, previous
        # alloc seq of the same context, or _NONE_BEFORE).
        self._objects: dict[int, tuple[int, int, bool, int]] = {}
        # Each context's latest allocation: cid -> (oid, alloc seq).
        self._latest: dict[int, tuple[int, int]] = {}
        # oid -> alloc seq of the next allocation from the same context,
        # set once that allocation happens.
        self._next_seq: dict[int, int] = {}

    # -- allocation bookkeeping -------------------------------------------

    def on_alloc(self, oid: int, cid: int, size: int, alloc_seq: int) -> None:
        """Register a new heap object allocated from context *cid*.

        Allocation sequence numbers must ascend (the machine's do).
        """
        groupable = size < self.params.max_object_size
        latest = self._latest.get(cid)
        if latest is None:
            previous = _NONE_BEFORE
        else:
            previous = latest[1]
            self._next_seq[latest[0]] = alloc_seq
        self._objects[oid] = (cid, alloc_seq, groupable, previous)
        self._latest[cid] = (oid, alloc_seq)

    # -- access recording ---------------------------------------------------

    def record_access(self, oid: int, nbytes: int) -> None:
        """Feed one machine-level heap access through the affinity queue.

        The hottest profiling function: every heap access of every profiled
        workload passes through here.  Attribute loads are hoisted to
        locals and the window trim is inlined.
        """
        if oid == self._last_oid:
            return  # deduplication: same macro-level access
        self._last_oid = oid
        info = self._objects.get(oid)
        if info is None:
            return  # object allocated before profiling attached; ignore
        cid, alloc_seq, groupable, previous = info
        graph = self.graph
        node_accesses = graph.node_accesses
        node_accesses[cid] = node_accesses.get(cid, 0) + 1
        graph.total_accesses += 1
        distance = self._distance
        edges = graph.edges
        window = self._window
        now = self._total_bytes
        # Co-allocatability (inlined): no allocation strictly between the
        # two objects may come from either context.  Both objects' own
        # sequence numbers sit in their context's allocation order, so the
        # question reduces to each side's neighbour in that order: the
        # previous allocation (fixed) or the next one (known once made).
        enforce = self._enforce_coalloc
        next_seq = self._next_seq
        following = next_seq.get(oid, _NONE_AFTER)
        for v_oid in reversed(window):
            v_cid, v_seq, v_after, v_groupable, v_previous = window[v_oid]
            if now - v_after >= distance:
                break  # everything older is out of the window too
            if v_oid == oid:
                continue  # no self-affinity
            if groupable and v_groupable:
                if enforce:
                    if v_seq < alloc_seq:
                        if previous > v_seq or next_seq.get(v_oid, _NONE_AFTER) < alloc_seq:
                            continue
                    elif following < v_seq or v_previous > alloc_seq:
                        continue
                key = (cid, v_cid) if cid <= v_cid else (v_cid, cid)
                edges[key] = edges.get(key, 0.0) + 1.0
        # Record (or refresh) this object's position in the window.
        window.pop(oid, None)
        now += nbytes
        self._total_bytes = now
        window[oid] = (cid, alloc_seq, now, groupable, previous)
        # Trim entries that can never be affinitive again.
        while window:
            oldest = next(iter(window))
            if now - window[oldest][2] >= distance:
                del window[oldest]
            else:
                break

    # -- results -------------------------------------------------------------

    def filtered_graph(self) -> AffinityGraph:
        """The affinity graph after the 90 % node-coverage filter."""
        return self.graph.filtered_by_coverage(self.params.node_coverage)

    @property
    def queue_length(self) -> int:
        """Distinct objects currently in the affinity window."""
        return len(self._window)

    @property
    def total_access_bytes(self) -> int:
        """Cumulative bytes of all recorded macro accesses."""
        return self._total_bytes
