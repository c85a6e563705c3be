#!/usr/bin/env python3
"""A month in the life of an erasure-coded cluster (repro.runtime).

Simulates a 30-node cluster storing 1,000 (9, 6) stripes for 30 days of
simulated wall-clock time: transient outages and permanent node failures
arrive continuously (section 2.3's 90/10 mix), a risk-prioritised repair
queue dispatches background repairs through the ECPipe coordinator's greedy
helper scheduling (section 3.3), repair egress is throttled per node, and a
Poisson foreground read workload shares every NIC and disk with the repair
traffic.  Reads that hit an unreadable block become degraded reads through
the configured repair scheme.

Three views are printed:

1. a month-long run under repair pipelining (the headline numbers);
2. the same month replayed under conventional repair, PPR and repair
   pipelining -- the paper's comparison, now expressed as MTTR, tail
   latency and durability instead of single-repair makespans;
3. a repair-bandwidth-cap sweep showing the throttle trading MTTR for
   foreground latency.

All randomness derives from one seed, so rerunning this script prints the
identical tables (same-seed replay is part of the runtime's contract).
Scaled-down knobs for CI smoke tests::

    REPRO_RUNTIME_STRIPES=60 REPRO_RUNTIME_DAYS=2 python examples/cluster_runtime.py

Run with::

    python examples/cluster_runtime.py
"""

import sys
import time

from repro.cluster import MiB, build_flat_cluster
from repro.codes import RSCode
from repro.config import env_int, env_positive_int
from repro.exp import ExperimentTable
from repro.runtime import DAY, ClusterRuntime, RuntimeConfig
from repro.workloads import random_stripes

NUM_NODES = env_positive_int("REPRO_RUNTIME_NODES", 30)
NUM_STRIPES = env_positive_int("REPRO_RUNTIME_STRIPES", 1000)
DAYS = env_positive_int("REPRO_RUNTIME_DAYS", 30)
SEED = env_int("REPRO_RUNTIME_SEED", 2017)

BLOCK_SIZE = 8 * MiB
SLICE_SIZE = 2 * MiB
REPAIR_CAP = 50e6  # 50 MB/s repair egress per node
FOREGROUND_RATE = 0.03  # reads/second across the cluster
DETECTION_DELAY = 600.0  # HDFS-style ~10 min dead-node detection


def build_config(scheme, cap=REPAIR_CAP, days=DAYS):
    return RuntimeConfig(
        horizon_seconds=days * DAY,
        block_size=BLOCK_SIZE,
        slice_size=SLICE_SIZE,
        scheme=scheme,
        max_concurrent_repairs=8,
        repair_bandwidth_cap=cap,
        detection_delay=DETECTION_DELAY,
        mean_failure_interarrival=4 * 3600.0,
        transient_duration_mean=1800.0,
        foreground_rate=FOREGROUND_RATE,
        seed=SEED,
    )


def simulate(scheme, cap=REPAIR_CAP, days=DAYS):
    cluster = build_flat_cluster(NUM_NODES)
    nodes = [f"node{i}" for i in range(NUM_NODES)]
    stripes = random_stripes(RSCode(9, 6), nodes, NUM_STRIPES, seed=SEED)
    runtime = ClusterRuntime(cluster, stripes, build_config(scheme, cap, days))
    return runtime.run()


def fmt(value, digits=2):
    if value != value:  # NaN: no samples in this cell
        return "-"
    if value == float("inf"):
        return "inf"
    return f"{value:.{digits}f}"


def month_in_the_life():
    report = simulate("rp")
    s = report.summary
    print(
        f"month-in-the-life: {NUM_STRIPES} stripes of (9,6) on {NUM_NODES} nodes, "
        f"{DAYS} simulated days, scheme=rp, {REPAIR_CAP / 1e6:.0f} MB/s repair cap"
    )
    print(f"  failures injected : {s['node_failures']:.0f} node, "
          f"{s['transient_failures']:.0f} transient")
    print(f"  blocks repaired   : {s['blocks_repaired']:.0f} "
          f"({s['repair_gibibytes']:.1f} GiB of repair traffic)")
    print(f"  MTTR              : mean {fmt(s['mttr_mean_seconds'])} s, "
          f"p99 {fmt(s['mttr_p99_seconds'])} s")
    print(f"  repair queue      : peak depth {s['queue_depth_max']:.0f}")
    print(f"  foreground reads  : {s['normal_reads']:.0f} normal "
          f"(p99 {fmt(s['normal_read_p99_seconds'], 4)} s), "
          f"{s['degraded_reads']:.0f} degraded "
          f"(p99 {fmt(s['degraded_read_p99_seconds'], 4)} s)")
    print(f"  data loss         : {s['data_loss_events']:.0f} events, "
          f"{s['failed_reads']:.0f} failed reads")
    print(f"  est. MTTDL        : {fmt(s['mttdl_years'], 0)} years "
          f"(Markov model fed with the measured failure rate and MTTR)")
    print()


def scheme_comparison():
    table = ExperimentTable(
        f"repair schemes over the same {DAYS}-day failure trace (seed {SEED})",
        ["scheme", "mttr_mean_s", "mttr_p99_s", "degraded_p99_s",
         "queue_peak", "repair_gib", "mttdl_years"],
    )
    for scheme in ("conventional", "ppr", "rp"):
        s = simulate(scheme).summary
        table.add_row(
            scheme,
            s["mttr_mean_seconds"],
            s["mttr_p99_seconds"],
            s["degraded_read_p99_seconds"],
            s["queue_depth_max"],
            s["repair_gibibytes"],
            s["mttdl_years"],
        )
    table.show()
    print("MTTR is dominated by the 10-minute dead-node detection window, so the")
    print("schemes tie there; the repair scheme shows up in the degraded-read tail,")
    print("where repair pipelining reconstructs a block in near-normal-read time")
    print("while conventional repair pays k serialised block fetches.\n")


def throttle_sweep():
    table = ExperimentTable(
        "per-node repair bandwidth cap versus MTTR and foreground latency (rp)",
        ["cap_mb_per_s", "mttr_mean_s", "normal_p99_s", "degraded_p99_s"],
    )
    for cap in (None, 100e6, 25e6):
        s = simulate("rp", cap=cap).summary
        table.add_row(
            "uncapped" if cap is None else f"{cap / 1e6:.0f}",
            s["mttr_mean_seconds"],
            s["normal_read_p99_seconds"],
            s["degraded_read_p99_seconds"],
        )
    table.show()
    print("the cap is a hard bound on each node's repair egress (asserted by the")
    print("contention tests); tightening it lengthens repairs while foreground")
    print("latency holds steady -- the insurance a production cluster buys.\n")


def main():
    start = time.time()
    month_in_the_life()
    scheme_comparison()
    throttle_sweep()
    print(f"[wall-clock: {time.time() - start:.1f} s]", file=sys.stderr)


if __name__ == "__main__":
    main()
