"""Month-long cluster trace: repair schemes and throttles under live traffic.

Not a paper figure -- this is the continuous-operation view the paper's
section 2.3 failure statistics and section 3.3 multi-stripe scheduling imply:
a 30-node cluster of 1,000 (9, 6) stripes runs for a simulated month while
transient and permanent failures arrive, a risk-prioritised repair queue
feeds up to 8 concurrent repairs, and a Poisson foreground read workload
contends with repair traffic on the same simulated NICs and disks.

Since PR 2 the benchmark runs through the parallel experiment engine
(:mod:`repro.exp`): every configuration is a :class:`~repro.exp.Scenario`
sharing one trace key, so all rows replay the *same* seeded months, and
``REPRO_EXP_TRIALS`` independent months (sharded over
``REPRO_EXP_WORKERS`` processes) turn each cell into a mean +/- 95% CI.

Scaling knobs (tabulated in EXPERIMENTS.md): ``REPRO_RUNTIME_DAYS`` (default
30), ``REPRO_RUNTIME_STRIPES`` (default 1000), ``REPRO_RUNTIME_NODES``
(default 30), ``REPRO_EXP_ROOT_SEED`` (default 2017, falling back to the
legacy ``REPRO_RUNTIME_SEED``), ``REPRO_EXP_TRIALS`` (default 2),
``REPRO_EXP_WORKERS`` (default: CPU count).
"""

from dataclasses import replace

from repro.cluster import MiB
from repro.config import env_int, env_positive_int
from repro.exp import Scenario, aggregate_matrix, aggregate_table, run_matrix

#: (row label, scheme, per-node repair egress cap in bytes/second or None).
CONFIGURATIONS = [
    ("conventional", "conventional", None),
    ("ppr", "ppr", None),
    ("rp", "rp", None),
    ("rp cap=50MB/s", "rp", 50e6),
    ("rp cap=25MB/s", "rp", 25e6),
]

#: Metric columns of the aggregated table (label, trial-summary key).
COLUMNS = [
    ("mttr_mean_s", "mttr_mean_seconds"),
    ("mttr_p99_s", "mttr_p99_seconds"),
    ("queue_peak", "queue_depth_max"),
    ("degraded_p99_s", "degraded_read_p99_seconds"),
    ("repair_gib", "repair_gibibytes"),
    ("loss_events", "data_loss_events"),
    ("mttdl_years", "mttdl_years"),
]


def build_scenarios():
    """One scenario per configuration, all replaying the same seeded months."""
    base = Scenario(
        name="month",
        code=("rs", 9, 6),
        num_nodes=env_positive_int("REPRO_RUNTIME_NODES", 30),
        num_stripes=env_positive_int("REPRO_RUNTIME_STRIPES", 1000),
        days=env_positive_int("REPRO_RUNTIME_DAYS", 30),
        block_size=8 * MiB,
        slice_size=2 * MiB,
        max_concurrent_repairs=8,
        detection_delay=600.0,
        mean_failure_interarrival=4 * 3600.0,
        transient_duration_mean=1800.0,
        foreground_rate=0.03,
        trace_key="month",
    )
    return [
        replace(base, name=label, scheme=scheme, repair_bandwidth_cap=cap)
        for label, scheme, cap in CONFIGURATIONS
    ]


def run_experiment(workers=None):
    """Replay the seeded months under every configuration; returns the table."""
    root_seed = env_int(
        "REPRO_EXP_ROOT_SEED", env_int("REPRO_RUNTIME_SEED", 2017)
    )
    trials = env_positive_int("REPRO_EXP_TRIALS", 2)
    result = run_matrix(
        build_scenarios(), trials=trials, root_seed=root_seed, workers=workers
    )
    aggregates = aggregate_matrix(result)
    table = aggregate_table(
        aggregates,
        COLUMNS,
        "month trace: MTTR / queue depth / tail latency / durability by scheme "
        f"({trials} trials, mean +/- 95% CI)",
    )
    return table, aggregates


def test_runtime_month_trace(benchmark):
    table, aggregates = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.show()
    rows = {a.scenario: a for a in aggregates}
    # Same seeded traces: every scheme repairs the same volume of data.
    volumes = {a.mean("repair_gibibytes") for a in aggregates}
    assert len(volumes) == 1
    # Degraded reads through repair pipelining have a no-worse tail than
    # conventional repair (strictly better at full scale).
    conventional_p99 = rows["conventional"].mean("degraded_read_p99_seconds")
    rp_p99 = rows["rp"].mean("degraded_read_p99_seconds")
    if conventional_p99 == conventional_p99 and rp_p99 == rp_p99:
        assert rp_p99 <= conventional_p99
    # The throttle slows repairs down, never up (moot when a scaled-down
    # trace happens to contain no permanent failure at all).
    capped = rows["rp cap=25MB/s"].mean("mttr_mean_seconds")
    uncapped = rows["rp"].mean("mttr_mean_seconds")
    if capped == capped and uncapped == uncapped:
        assert capped >= uncapped


if __name__ == "__main__":
    run_experiment()[0].show()
