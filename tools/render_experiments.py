#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a results JSON.

Usage:
    python tools/gen_results.py results.json   # produce the measurements
    python tools/render_experiments.py results.json > EXPERIMENTS.md

Paper values below are read off the published figures (the paper prints few
exact numbers); they are approximate by nature.
"""

import json
import sys

# Approximate values read from the paper's Figures 13-15 and Table 1.
PAPER = {
    "fig13_halo": {"health": 23, "ft": 10, "analyzer": 15, "ammp": 8, "art": 18,
                   "equake": 6, "povray": 13, "omnetpp": 10, "xalanc": 14,
                   "leela": 7, "roms": 1},
    "fig13_hds": {"health": 17, "ft": 9, "analyzer": 13, "ammp": 6, "art": 16,
                  "equake": 5, "povray": 2, "omnetpp": 0, "xalanc": 1,
                  "leela": 2, "roms": -5},
    "fig14_halo": {"health": 28, "ft": 12, "analyzer": 10, "ammp": 8, "art": 15,
                   "equake": 5, "povray": 2, "omnetpp": 4, "xalanc": 16,
                   "leela": 1, "roms": 0},
    "fig14_hds": {"health": 21, "ft": 11, "analyzer": 9, "ammp": 6, "art": 13,
                  "equake": 4, "povray": 0, "omnetpp": 0, "xalanc": 0,
                  "leela": 0, "roms": -2},
    "fig15": {"health": -45, "ft": -40, "analyzer": -25, "ammp": -15, "art": -20,
              "equake": -10, "povray": -2, "omnetpp": -20, "xalanc": -5,
              "leela": -2, "roms": -5},
    "table1": {"health": [0.01, 31.98], "equake": [0.05, 12.08],
               "analyzer": [0.13, 4.31], "ammp": [0.20, 40.97],
               "art": [0.62, 11.70], "ft": [2.06, 4.05],
               "povray": [26.47, 37.06], "roms": [93.60, 29.95],
               "leela": [99.99, 2099.2]},
}

ORDER = ["health", "ft", "analyzer", "ammp", "art", "equake",
         "povray", "omnetpp", "xalanc", "leela", "roms"]


def fig_table(measured, paper, unit="%"):
    lines = ["| benchmark | paper (approx.) | measured |", "|---|---|---|"]
    for name in ORDER:
        if name not in measured:
            continue
        lines.append(f"| {name} | {paper.get(name, '–')}{unit} | {measured[name]:+.1f}{unit} |")
    return "\n".join(lines)


def main() -> None:
    with open(sys.argv[1]) as handle:
        r = json.load(handle)

    fig12_rows = "\n".join(
        f"| {k} | {v * 100:+.2f}% |" for k, v in r["fig12"].items()
    )
    t1_rows = "\n".join(
        f"| {name} | {PAPER['table1'][name][0]:.2f}% / {PAPER['table1'][name][1]:.2f} KiB "
        f"| {r['table1'][name][0]:.2f}% / {r['table1'][name][1]:.2f} KiB |"
        for name in ("health", "equake", "analyzer", "ammp", "art", "ft",
                     "povray", "roms", "leela")
        if name in r["table1"]
    )
    blow_nodes, blow_streams = r["roms_blowup"]

    print(TEMPLATE.format(
        fig13_halo=fig_table(r["fig13_halo"], PAPER["fig13_halo"]),
        fig13_hds=fig_table(r["fig13_hds"], PAPER["fig13_hds"]),
        fig14_halo=fig_table(r["fig14_halo"], PAPER["fig14_halo"]),
        fig14_hds=fig_table(r["fig14_hds"], PAPER["fig14_hds"]),
        fig15=fig_table(r["fig15"], PAPER["fig15"]),
        fig12_rows=fig12_rows,
        t1_rows=t1_rows,
        blow_nodes=blow_nodes,
        blow_streams=blow_streams,
    ))


TEMPLATE = """\
# EXPERIMENTS — paper vs. measured

Every table and figure in the paper's evaluation (Section 5), reproduced by
this repository's simulation.  Measured values below come from
`tools/gen_results.py` (ref-scale inputs, 2 trials with placement jitter,
medians); regenerate any row with the named benchmark target or the `halo
plot` CLI.  The paper discards its first of 11 hardware runs as a
cold-system run; nothing here has a counterpart, because every simulated
trial starts from a fresh address space, cache hierarchy and allocator,
so every trial that runs is reported.

**Reading guide.**  The paper reports hardware wall-clock and `perf`
counters on SPEC binaries; this reproduction reports simulated cycles and
simulated cache counters on synthetic stand-ins.  Absolute agreement is not
the goal (and would be meaningless); the reproduction targets are the
paper's *shape claims*, listed per artefact below with an explicit verdict.
Paper numbers are approximate read-offs from the published figures.

## Figure 13 — L1D cache-miss reduction (`benchmarks/test_fig13_miss_reduction.py`)

HALO:

{fig13_halo}

Chilimbi et al. (hot data streams):

{fig13_hds}

Shape claims, paper → this reproduction:

* **HALO reduces misses on all six prior-work benchmarks and on the
  complex CPU2017 ones** → reproduced (all positive, health strongest).
* **HDS matches HALO only on the prior-work programs** → reproduced.
* **HDS achieves nothing on wrapper/`operator new` programs (povray,
  omnetpp, xalanc, leela)** → reproduced exactly: the replication forms
  *no* co-allocation groups on these, because every hot stream maps to the
  single `malloc` call site inside the wrapper (`repro/hds/coalloc.py`).
* **HDS increases misses on roms** → reproduced, via the paper's stated
  mechanism (truncated co-allocation sets splitting the naturally
  co-located boundary triple; see `repro/workloads/roms.py`).

Known deltas: our HDS bars on the prior-work benchmarks run 1-3 points
closer to HALO than the paper's; xalanc's and leela's HALO miss reductions
overshoot (~27 % vs ~14 %, ~20 % vs ~7 %) while their *speedups* match the
paper — the synthetic versions' savings are more L1-weighted than the
originals'.

## Figure 14 — speedup (`benchmarks/test_fig14_speedup.py`)

HALO:

{fig14_halo}

Chilimbi et al. (hot data streams):

{fig14_hds}

Shape claims:

* **health is the headline (~28 %)** → reproduced (largest bar, ~31 %).
* **xalanc double-digit with HDS at zero** → reproduced (~18 %, HDS 0).
* **omnetpp ~4 %, HDS nothing** → reproduced.
* **povray and leela: misses drop, time "largely unchanged"
  (compute-bound)** → reproduced (≤3 % and ≤2 % respectively, against
  double-digit miss reductions).
* **HALO never significantly degrades a benchmark** → reproduced (minimum
  HALO speedup ≈ 0 on roms).
* **HALO ≥ HDS everywhere** → reproduced.

## Figure 15 — random 4-pool allocator (`benchmarks/test_fig15_random_pools.py`)

{fig15}

Shape claims:

* **placement-sensitive benchmarks slow down under random pooling** →
  reproduced (health/ft/analyzer/ammp/omnetpp all clearly negative).
* **sensitivity aligns with where HALO helps** → reproduced in direction;
  equake and xalanc are the outliers (random pooling lands mildly
  *positive* at the median for them — their synthetic locality comes from
  same-class pollution rather than allocation-order adjacency, which
  random pooling incidentally dilutes).
* Known delta: magnitudes are milder than the paper's (our worst is ~-24 %
  on omnetpp vs the paper's ~-55 % on health); the simulated baseline
  retains more incidental locality under random pooling than real
  jemalloc heaps do.

## Figure 12 — omnetpp vs affinity distance (`benchmarks/test_fig12_affinity_sweep.py`)

Relative simulated time vs the unmodified baseline (negative = faster):

| A (bytes) | vs baseline |
|---|---|
{fig12_rows}

Shape claims: the evaluation's chosen A = 128 sits in the sweet spot, and
larger distances (here from A = 512) lose most of the benefit — the window
starts admitting unrelated contexts into the groups — matching the paper's
right-hand degradation.
Known delta: the paper's plot also degrades at the far-left (A = 8-16);
our synthetic omnetpp still finds the event/message pair at tiny windows
because their accesses are genuinely byte-adjacent, so the left side stays
flat at the optimum.  The sweep stops at 2^13 (profiling cost grows with
the window; the curve has flattened by 2^11).

## Table 1 — fragmentation of grouped objects at peak memory usage (`benchmarks/test_table1_fragmentation.py`)

| benchmark | paper (frag % / wasted) | measured (frag % / wasted) |
|---|---|---|
{t1_rows}

Shape claims:

* **two regimes** — prior-work benchmarks keep grouped data live at peak
  (sub-1 % fragmentation); povray is intermediate; roms and leela strand
  nearly their whole pools → reproduced, including leela's
  99.99 %-with-~2 MiB-wasted signature (the per-game UCT tree dies before
  the scoring-phase peak).
* **absolute waste stays small** → reproduced (nothing beyond a few MiB).

## §5.2 — "essentially no effect" control

The paper excludes the CPU2017 benchmarks that neither technique affects.
`repro/workloads/deepsjeng.py` provides one such control (large hash
tables dominate; small-object placement is moot);
`tests/test_control_workload.py` asserts HALO changes its time by <2 % in
either direction and that the random 4-pool allocator leaves it unfazed —
the paper's non-degradation claim.

## §5.2 — representation blow-up on roms

Paper: "HALO's affinity graph can represent over 90 % of all salient
accesses in this program using only 31 nodes, the hot-data-stream-based
approach requires over 150,000 streams."

Measured (test input): **{blow_nodes} affinity-graph nodes vs
{blow_streams} hot data streams** — three orders of magnitude smaller than
the paper's trace, same two-orders-of-magnitude representational gap.

## Extensions (beyond the paper)

* `benchmarks/test_ablations.py` — disabling co-allocatability, the
  loop-aware score, or the 90 % coverage filter never beats the full
  configuration on health; a 16-byte affinity distance still finds the
  dominant pair there (its accesses are adjacent), matching the Figure 12
  discussion.
* `benchmarks/test_ablation_sharded.py` — §6's free-list sharding bounds
  leela's dead grouped space (≈2.9 MiB → ≈1.0 MiB at peak) at no L1 cost;
  roms is unchanged because its pool dies all at once, which sharding
  cannot help.
* `benchmarks/test_related_calder.py` — the §2.2.3 related-work scheme
  (Calder et al.'s XOR-of-last-4-return-addresses naming) replicated as a
  third technique: it matches HALO on health (+~23 % L1 both) and forms no
  useful groups on xalanc (all names collide below the deep allocator
  plumbing), reproducing the paper's "fixed-sized contexts" critique.
* `benchmarks/test_cache_sensitivity.py` — §5.2's conjecture holds when
  "external cache pressure" is modelled as shared-L3 contention (povray's
  speedup grows ~3 % → ~5 %, leela's ~0.5 % → ~2 % with the L3 squeezed to
  1.5 MiB), but *not* when the private L1/L2 shrink too — once nothing
  fits anywhere, both placements thrash alike.  The trace-replay tool
  behind this sweep is `repro.harness.AccessTrace`
  (`examples/cache_geometry_sweep.py`).

## Reproducing

```bash
pytest benchmarks/ --benchmark-only          # everything (~20 min)
halo plot --figure 13 --out out/             # one figure + JSON data
python tools/gen_results.py out/results.json # the numbers behind this file
python tools/render_experiments.py out/results.json > EXPERIMENTS.md
```
"""


if __name__ == "__main__":
    main()
