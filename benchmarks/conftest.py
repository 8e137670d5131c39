"""Shared state for the figure-regeneration benchmarks.

The full evaluation matrix (11 benchmarks x {baseline, HDS, HALO, random}
over repeated trials) is computed once per session and shared by the
Figure 13/14/15 benchmarks, mirroring the paper where one set of runs feeds
all three figures.

Environment knobs:

* ``REPRO_BENCH_SCALE``  — input scale for measured runs (default ``ref``);
* ``REPRO_BENCH_TRIALS`` — trials per configuration (default 1).
"""

from __future__ import annotations

import os

import pytest

from repro.harness import reproduce

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "ref")
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "1"))


@pytest.fixture(scope="session")
def evaluations():
    """The shared evaluation matrix behind Figures 13, 14 and 15."""
    return reproduce.evaluate_all(
        trials=BENCH_TRIALS, scale=BENCH_SCALE, include_random=True
    )


def print_series(title: str, values: dict[str, float]) -> None:
    """Print one figure series as a labelled percentage row set."""
    print(f"\n{title}")
    for name, value in values.items():
        print(f"  {name:10s} {value * 100:+7.2f}%")
