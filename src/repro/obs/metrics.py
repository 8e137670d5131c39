"""Process-wide metrics registry: counters, gauges, and histograms.

This is the collection half of the observability subsystem
(``docs/OBSERVABILITY.md``).  A :class:`MetricsRegistry` holds labelled
counters, gauges, histograms, and finished spans for one process.  At
most one registry is *installed* per process at a time; the module-level
helpers (:func:`inc`, :func:`gauge_set`, :func:`gauge_max`,
:func:`observe`) forward to it and are a single ``is None`` check when
nothing is installed, so instrumented code pays effectively nothing when
observability is off.

Two disciplines keep multi-process accounting honest:

* **Harvest, not per-event hooks.**  Hot paths (``Machine.load``/``store``,
  ``AffinityRecorder.record_access``) are never instrumented directly;
  already-collected stats objects are folded into the registry once at
  phase boundaries.
* **Publish once, merge explicitly.**  Each event is counted in exactly
  one process's registry.  Worker processes collect into a private
  registry (see :func:`collecting`) and ship a :class:`MetricsSnapshot`
  back inside their result payload; the coordinator merges snapshots
  with :meth:`MetricsSnapshot.merge`.  Snapshots are plain picklable
  dataclasses, so they cross ``ProcessPoolExecutor`` boundaries and
  survive in checkpoint journals.

Merge semantics: counters add, gauges take the maximum (they record
high-water marks), histograms add bucket-wise, span lists concatenate.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

__all__ = [
    "DEFAULT_BUCKETS",
    "HistogramData",
    "SpanData",
    "MetricsSnapshot",
    "MetricsRegistry",
    "metric_key",
    "split_metric_key",
    "install",
    "uninstall",
    "active_registry",
    "collecting",
    "inc",
    "gauge_set",
    "gauge_max",
    "observe",
]

#: Default histogram bucket upper bounds, in seconds.  Tuned for task
#: latencies: sub-millisecond cache hits up to multi-minute ref-scale runs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Serialise *name* + *labels* into a canonical flat key.

    The format is Prometheus-style — ``name{a="1",b="x"}`` with label
    names sorted — so a given (name, labels) pair always maps to the
    same dictionary key and exports are stable.
    """
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`metric_key` into ``(name, labels)``.

    Only keys produced by :func:`metric_key` are supported; label values
    containing ``"`` or ``,`` are not (and are never emitted here).
    """
    if not key.endswith("}"):
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: dict[str, str] = {}
    if inner:
        for part in inner.split(","):
            lname, _, lvalue = part.partition("=")
            labels[lname] = lvalue.strip('"')
    return name, labels


@dataclass
class HistogramData:
    """Bucketed distribution of observed values (e.g. task latencies).

    ``counts`` has one slot per entry of ``buckets`` plus a final
    overflow slot (the implicit ``+Inf`` bucket); counts are *per
    bucket*, not cumulative — exporters cumulate on the way out.
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        """Size the count vector to the bucket layout if not given."""
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        """Record one observation of *value*."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def merge(self, other: "HistogramData") -> None:
        """Fold *other* (same bucket layout) into this histogram."""
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms with different bucket layouts")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.total += other.total
        self.count += other.count

    def copy(self) -> "HistogramData":
        """Return an independent copy (merging never aliases state)."""
        return HistogramData(self.buckets, list(self.counts), self.total, self.count)


@dataclass
class SpanData:
    """One finished span: a named, timed region of the pipeline.

    ``start`` is seconds since the owning registry's epoch (a
    ``perf_counter`` origin, so only *relative* times are meaningful and
    spans from one process nest consistently).  ``depth``/``parent``
    encode the nesting at record time; ``parent`` is an index into the
    same snapshot's span list, or ``-1`` for a root span.
    """

    name: str
    start: float
    duration: float
    depth: int = 0
    parent: int = -1
    pid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class MetricsSnapshot:
    """Frozen, picklable view of a registry's contents.

    Keys of ``counters``/``gauges``/``histograms`` are :func:`metric_key`
    strings.  Snapshots are the unit of cross-process transport: workers
    attach one to their returned ``PhaseTimes`` and coordinators
    :meth:`merge` them.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramData] = field(default_factory=dict)
    spans: list[SpanData] = field(default_factory=list)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold *other* into this snapshot (counters add, gauges max).

        *other* is left untouched; histogram state is copied, never
        aliased.  Span ``parent`` indices are rebased so they keep
        pointing at the right entry of the concatenated list.
        """
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in other.gauges.items():
            prev = self.gauges.get(key)
            self.gauges[key] = value if prev is None else max(prev, value)
        for key, hist in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = hist.copy()
            else:
                mine.merge(hist)
        base = len(self.spans)
        for span in other.spans:
            self.spans.append(
                SpanData(
                    span.name,
                    span.start,
                    span.duration,
                    span.depth,
                    span.parent + base if span.parent >= 0 else -1,
                    span.pid,
                    dict(span.attrs),
                )
            )
        return self

    def counters_with_prefix(self, prefix: str) -> dict[str, float]:
        """Return the counters whose metric *name* starts with *prefix*."""
        return {
            key: value
            for key, value in self.counters.items()
            if split_metric_key(key)[0].startswith(prefix)
        }

    def sum_counter(self, name: str) -> float:
        """Sum a counter's value across all of its label combinations."""
        return sum(
            value for key, value in self.counters.items() if split_metric_key(key)[0] == name
        )

    def sum_counter_where(self, name: str, **labels: str) -> float:
        """Sum a counter over the label combinations matching *labels*.

        Only the given labels are constrained; any additional labels on a
        series are ignored (so adding a new label dimension later does not
        silently zero existing queries).
        """
        total = 0.0
        for key, value in self.counters.items():
            got_name, got_labels = split_metric_key(key)
            if got_name == name and all(
                got_labels.get(k) == v for k, v in labels.items()
            ):
                total += value
        return total

    def is_empty(self) -> bool:
        """True when nothing at all has been recorded."""
        return not (self.counters or self.gauges or self.histograms or self.spans)


class MetricsRegistry:
    """Mutable per-process metric store.

    Instrumented code normally goes through the module-level helpers
    rather than holding a registry directly; tests and the CLI create
    one, :func:`install` it, and read it back with :meth:`snapshot`.
    """

    def __init__(self) -> None:
        """Create an empty registry stamped with this process's pid."""
        self.pid = os.getpid()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramData] = {}
        self._spans: list[SpanData] = []
        self._span_stack: list[int] = []

    # -- scalar metrics ----------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Add *value* to the counter *name* with the given labels."""
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def gauge_set(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge *name* to *value* (last write wins in-process)."""
        self._gauges[metric_key(name, labels)] = value

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        """Raise the gauge *name* to *value* if it is a new high-water mark."""
        key = metric_key(name, labels)
        prev = self._gauges.get(key)
        if prev is None or value > prev:
            self._gauges[key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: object,
    ) -> None:
        """Record *value* into the histogram *name* with the given labels."""
        key = metric_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = HistogramData(buckets or DEFAULT_BUCKETS)
        hist.observe(value)

    # -- spans -------------------------------------------------------------

    def begin_span(self, name: str, start: float, attrs: dict[str, Any]) -> int:
        """Open a span; returns its index for :meth:`end_span`.

        Called by :class:`repro.obs.spans.Span` — *start* is seconds on
        the ``perf_counter`` clock.  The span is recorded immediately
        (with zero duration) so children observe the correct parent and
        depth even before the parent closes.
        """
        index = len(self._spans)
        parent = self._span_stack[-1] if self._span_stack else -1
        self._spans.append(
            SpanData(name, start, 0.0, len(self._span_stack), parent, self.pid, attrs)
        )
        self._span_stack.append(index)
        return index

    def end_span(self, index: int, duration: float) -> None:
        """Close the span opened as *index*, fixing its duration."""
        self._spans[index].duration = duration
        if self._span_stack and self._span_stack[-1] == index:
            self._span_stack.pop()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Deep-copy the current contents into a :class:`MetricsSnapshot`."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={key: hist.copy() for key, hist in self._histograms.items()},
            spans=[
                SpanData(s.name, s.start, s.duration, s.depth, s.parent, s.pid, dict(s.attrs))
                for s in self._spans
            ],
        )


# -- process-global installation -------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def install(registry: MetricsRegistry) -> MetricsRegistry:
    """Make *registry* the process's active sink; returns it for chaining."""
    global _ACTIVE
    _ACTIVE = registry
    return registry


def uninstall() -> None:
    """Remove the active registry; instrumentation reverts to no-ops."""
    global _ACTIVE
    _ACTIVE = None


def active_registry() -> Optional[MetricsRegistry]:
    """Return the installed registry, or ``None`` when observability is off."""
    return _ACTIVE


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of a ``with`` block.

    Used by parallel-worker entry points to collect one task's metrics
    in isolation: the previous registry (usually none) is restored on
    exit, and the caller snapshots the yielded registry into the task's
    result payload.  A failed attempt's registry is simply discarded
    with the exception, so retries never double-count.
    """
    global _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


# -- no-op-checked module helpers ------------------------------------------


def inc(name: str, value: float = 1, **labels: object) -> None:
    """Counter increment on the active registry; no-op when none installed."""
    if _ACTIVE is not None:
        _ACTIVE.inc(name, value, **labels)


def gauge_set(name: str, value: float, **labels: object) -> None:
    """Gauge write on the active registry; no-op when none installed."""
    if _ACTIVE is not None:
        _ACTIVE.gauge_set(name, value, **labels)


def gauge_max(name: str, value: float, **labels: object) -> None:
    """High-water-mark gauge update; no-op when none installed."""
    if _ACTIVE is not None:
        _ACTIVE.gauge_max(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Histogram observation on the active registry; no-op when none installed."""
    if _ACTIVE is not None:
        _ACTIVE.observe(name, value, **labels)
