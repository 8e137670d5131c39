"""Multi-trial measurement methodology (paper Section 5.1).

The paper runs 11 trials per configuration, discards the first, and reports
the median of the remaining 10 with 25th/75th-percentile error bars.  In
this reproduction a trial's only run-to-run variation is the ASLR-style
randomisation of the simulated address space (heap base offsets), so a
handful of trials captures the placement noise; the trial count is a
parameter.  The paper's discarded first run has no counterpart here:
it absorbs a cold system, and every simulated trial starts from a fresh
address space, cache hierarchy and allocator, so nothing is cold for
one trial and warm for the next.  Every trial that runs is reported.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from .runner import Measurement


def nearest_rank(ordered: Sequence[float], quantile: float) -> float:
    """The *quantile*-th value of pre-sorted *ordered* by nearest rank.

    The fractional rank ``quantile * (n - 1)`` is rounded half away from
    zero to the nearest integer index, so the 25th and 75th percentiles
    are computed symmetrically (the historical implementation truncated
    one and rounded the other).
    """
    if not ordered:
        raise ValueError("no values")
    rank = quantile * (len(ordered) - 1)
    index = int(rank + 0.5)
    return ordered[min(len(ordered) - 1, max(0, index))]


@dataclass(frozen=True)
class TrialStats:
    """Median and quartiles of one metric over the recorded trials."""

    median: float
    q25: float
    q75: float

    @staticmethod
    def of(values: Sequence[float]) -> "TrialStats":
        if not values:
            raise ValueError("no trial values")
        ordered = sorted(values)
        return TrialStats(
            median=statistics.median(ordered),
            q25=nearest_rank(ordered, 0.25),
            q75=nearest_rank(ordered, 0.75),
        )


@dataclass
class TrialResult:
    """Aggregate of repeated measurements of one configuration."""

    config: str
    measurements: list[Measurement]
    cycles: TrialStats
    l1_misses: TrialStats

    @property
    def representative(self) -> Measurement:
        """The measurement whose cycles are closest to the median."""
        return min(self.measurements, key=lambda m: abs(m.cycles - self.cycles.median))


def trial_seeds(trials: int) -> range:
    """The seeds of *trials* trials: ``1 .. trials``.

    Exposed so the parallel runner can fan the exact same seeds out to
    worker processes and aggregate identically.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    return range(1, trials + 1)


def aggregate_trials(measurements: Sequence[Measurement]) -> TrialResult:
    """Fold seed-ordered *measurements*, every one of them, into a :class:`TrialResult`.

    The single aggregation path shared by the serial and parallel runners:
    identical measurement lists produce identical results regardless of
    where the measurements were executed.
    """
    kept = list(measurements)
    if not kept:
        raise ValueError("no measurements to aggregate")
    return TrialResult(
        config=kept[0].config,
        measurements=kept,
        cycles=TrialStats.of([m.cycles for m in kept]),
        l1_misses=TrialStats.of([float(m.cache.l1_misses) for m in kept]),
    )


def run_trials(measure: Callable[[int], Measurement], trials: int = 3) -> TrialResult:
    """Run ``measure(seed)`` for each of :func:`trial_seeds` and aggregate."""
    return aggregate_trials([measure(seed) for seed in trial_seeds(trials)])


def miss_reduction(baseline: TrialResult, optimised: TrialResult) -> float:
    """Median L1D miss reduction, oriented as in paper Figure 13."""
    base = baseline.l1_misses.median
    if base == 0:
        return 0.0
    return (base - optimised.l1_misses.median) / base


def speedup(baseline: TrialResult, optimised: TrialResult) -> float:
    """Median execution-time speedup, oriented as in paper Figure 14."""
    cycles = optimised.cycles.median
    if cycles == 0:
        return 0.0
    return baseline.cycles.median / cycles - 1.0
