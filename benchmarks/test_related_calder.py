"""Related-work comparison: Calder et al.'s name-based placement (§2.2.3).

The HALO paper positions fixed-window stack naming as a predecessor whose
"fixed-sized contexts" limit what it can characterise.  This bench runs the
replication head-to-head with HALO on the two poles:

* **health** — shallow, distinct allocation paths: the 4-frame XOR name
  separates hot from cold just like HALO's full contexts;
* **xalanc** — every allocation reaches ``malloc`` through the same deep
  allocator plumbing, so all names collide and the scheme can form no
  useful groups, while HALO's full-context selectors keep their win.
"""

import os

from repro.calder import CalderParams
from repro.calder import profile_workload as calder_profile
from repro.core import optimise_profile, profile_workload
from repro.harness.reproduce import halo_params_for
from repro.harness.runner import measure, measure_baseline, measure_halo
from repro.workloads import get_workload

SCALE = os.environ.get("REPRO_BENCH_SCALE", "ref")

BENCHES = ("health", "xalanc")


def test_calder_vs_halo(benchmark):
    def run_all():
        results = {}
        for name in BENCHES:
            workload = get_workload(name)
            halo_params = halo_params_for(workload)
            profile = profile_workload(workload, halo_params, scale="test")
            halo_artifacts = optimise_profile(profile, halo_params)
            calder_artifacts = calder_profile(get_workload(name), CalderParams())

            base = measure_baseline(get_workload(name), scale=SCALE, seed=1)
            halo = measure_halo(get_workload(name), halo_artifacts, scale=SCALE, seed=1)
            calder = measure(
                get_workload(name), "calder", calder_artifacts, scale=SCALE, seed=1
            )

            def reduction(m):
                return (base.cache.l1_misses - m.cache.l1_misses) / base.cache.l1_misses

            results[name] = {
                "halo": reduction(halo),
                "calder": reduction(calder),
                "calder_groups": len(calder_artifacts.groups),
                "calder_names": calder_artifacts.distinct_names,
            }
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print("\nL1D miss reduction: HALO vs Calder-style name-based placement")
    print(f"  {'benchmark':8s} {'HALO':>8s} {'Calder':>8s} {'names':>6s}")
    for name, r in results.items():
        print(
            f"  {name:8s} {r['halo'] * 100:+7.1f}% {r['calder'] * 100:+7.1f}% "
            f"{r['calder_names']:6d}"
        )

    # Shallow paths: the name window is enough — Calder lands near HALO.
    assert results["health"]["calder"] > 0.5 * results["health"]["halo"]
    # Deep plumbing: all names collide, Calder gets (at best) noise.
    assert results["xalanc"]["calder"] < 0.25 * results["xalanc"]["halo"]
    assert results["xalanc"]["halo"] > 0.10
