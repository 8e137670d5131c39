"""Three-way engine oracle: direct execution == event replay == columnar.

Every measurement engine must agree with *executing* the workload, not
only with the other engines.  For each workload (a paper benchmark, a
generated scenario, two thread-interleaved tenant mixes and the shipped
corpus) and each configuration (every standalone allocator family plus
HALO, HDS and random pools), one cell is measured three ways: by running
the workload directly, by replaying its event trace through the machine,
and by the columnar engine.  The whole :class:`Measurement` (cycles,
every cache/TLB miss count, allocs/frees, peak live bytes, fragmentation
at the peak, grouped/forwarded/degraded counts) must be identical, and so
must every ``measure.*`` counter each run publishes — false sharing and
``threads_seen`` included.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.allocators import ALLOCATOR_FAMILIES
from repro.harness.prepare import get_or_record_trace, prepare_workload
from repro.harness.runner import measure
from repro.obs import metrics as obs_metrics
from repro.workloads.base import get_workload

CORPUS = Path(__file__).resolve().parent.parent / "corpora" / "default.json"

WORKLOADS = (
    "health",
    "scn-3",
    "mix-3x3-rr",
    "mix-5x3-rr",
    *(entry["name"] for entry in json.loads(CORPUS.read_text())["entries"]),
)

CONFIGS = (*ALLOCATOR_FAMILIES, "halo", "hds", "random-pools")

ENGINES = ("direct", "event", "columnar")


@pytest.fixture(scope="module")
def inputs():
    """Per workload: (workload, trace, prepared artifacts), built on demand."""
    built: dict = {}

    def get(name: str):
        if name not in built:
            workload = get_workload(name)
            trace = get_or_record_trace(name, workload=workload)
            prepared = prepare_workload(name, workload=workload, trace=trace)
            built[name] = (workload, trace, prepared)
        return built[name]

    return get


@pytest.fixture(scope="module")
def runs(inputs):
    """Per (workload, config): every engine's measurement and counters.

    Measured once per module, so the pinned cells below reuse the
    matrix's runs instead of measuring them again.
    """
    done: dict = {}

    def get(name: str, config: str) -> dict:
        if (name, config) not in done:
            done[name, config] = _measure_all_engines(inputs, name, config)
        return done[name, config]

    return get


def _measure_all_engines(inputs, name: str, config: str) -> dict:
    workload, trace, prepared = inputs(name)
    artifacts = getattr(prepared, config, None)
    runs = {}
    for engine in ENGINES:
        kwargs = {} if engine == "direct" else {"trace": trace, "engine": engine}
        with obs_metrics.collecting() as registry:
            measurement = measure(
                workload, config, artifacts, scale="test", seed=1, **kwargs
            )
        runs[engine] = (measurement, registry.snapshot().counters_with_prefix("measure."))
    return runs


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_engines_agree_with_direct_execution(runs, name, config):
    measured = runs(name, config)
    direct, direct_counters = measured["direct"]
    for engine in ("event", "columnar"):
        measurement, counters = measured[engine]
        assert measurement == direct, engine
        assert counters == direct_counters, engine


def test_arena_on_the_five_tenant_mix_is_pinned(runs):
    """The figures ROADMAP recorded for direct execution of this cell."""
    for engine, (measurement, counters) in runs("mix-5x3-rr", "arena").items():
        assert measurement.cycles == 788_668, engine
        assert measurement.cache.l1_misses == 8_631, engine
        sharing = {
            key.split("{")[0]: value for key, value in counters.items()
            if "false_sharing_lines" in key or "threads_seen" in key
        }
        assert sharing == {
            "measure.cache.false_sharing_lines": 0,
            "measure.cache.threads_seen": 3,
        }, engine


def test_shared_heap_false_sharing_survives_trace_engines(runs):
    """The free list's false sharing shows on every engine, not only direct."""
    for engine, (_, counters) in runs("mix-5x3-rr", "freelist-bf").items():
        lines = [v for k, v in counters.items() if "false_sharing_lines" in k]
        assert lines and lines[0] > 0, engine


def test_default_evaluation_reports_false_sharing():
    """``evaluate_all`` measures from the trace by default and still
    reports each family's false sharing."""
    from repro.harness.reproduce import evaluate_all

    with obs_metrics.collecting() as registry:
        evaluate_all(
            ["mix-5x3-rr"], trials=1, scale="test", include_random=False,
            families=("arena", "freelist-bf"),
        )
    snapshot = registry.snapshot()

    def total(config: str, name: str) -> float:
        return snapshot.sum_counter_where(f"measure.cache.{name}", config=config)

    assert snapshot.sum_counter_where("engine.measure.runs", engine="columnar") > 0
    assert snapshot.sum_counter_where("engine.measure.runs", engine="direct") == 0
    assert total("arena", "false_sharing_lines") == 0
    assert total("freelist-bf", "false_sharing_lines") > 0
    assert total("arena", "threads_seen") > 0
