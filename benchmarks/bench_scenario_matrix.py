"""Parallel scenario matrix: schemes x failure models x read mixes, many trials.

The paper's evaluation is one trial per point; this benchmark is the
engine-powered version -- a 12-scenario matrix (3 repair schemes x 2 failure
models x 2 foreground read mixes) runs ``REPRO_EXP_TRIALS`` trials per
scenario, sharded over ``REPRO_EXP_WORKERS`` processes, and reports every
metric as mean +/- 95% CI across trials.

Scenarios differing only in repair scheme share a trace key, so each trial
replays the *same* failures and foreground arrivals under every scheme --
scheme deltas are paired, not confounded by trace noise.  The engine's
determinism contract means the printed table is byte-identical for any
``REPRO_EXP_WORKERS``; only the wall-clock line below it changes.

Knobs: ``REPRO_EXP_TRIALS`` (default 4), ``REPRO_EXP_WORKERS`` (default:
CPU count), ``REPRO_EXP_ROOT_SEED`` (default 2017), and the matrix scale --
``REPRO_MATRIX_STRIPES`` (default 100), ``REPRO_MATRIX_NODES`` (default
20), ``REPRO_MATRIX_DAYS`` (default 2).
"""

import sys
import time

from repro.cluster import MiB
from repro.config import env_int, env_positive_int
from repro.exp import (
    Scenario,
    aggregate_matrix,
    aggregate_table,
    expand,
    run_matrix,
)

#: Metric columns of the aggregated table (label, trial-summary key).
COLUMNS = [
    ("mttr_mean_s", "mttr_mean_seconds"),
    ("queue_peak", "queue_depth_max"),
    ("degraded_p99_s", "degraded_read_p99_seconds"),
    ("normal_p99_s", "normal_read_p99_seconds"),
    ("repair_gib", "repair_gibibytes"),
    ("loss_events", "data_loss_events"),
]


def build_matrix():
    """The 12-scenario matrix (3 schemes x 2 failure models x 2 read mixes)."""
    base = Scenario(
        name="matrix",
        code=("rs", 9, 6),
        num_nodes=env_positive_int("REPRO_MATRIX_NODES", 20),
        num_racks=4,
        num_stripes=env_positive_int("REPRO_MATRIX_STRIPES", 100),
        days=env_positive_int("REPRO_MATRIX_DAYS", 2),
        block_size=8 * MiB,
        slice_size=2 * MiB,
        detection_delay=600.0,
        mean_failure_interarrival=4 * 3600.0,
        transient_duration_mean=1800.0,
        foreground_rate=0.02,
    )
    return expand(
        base,
        {
            "scheme": ("conventional", "ppr", "rp"),
            "failure_model": ("independent", "rack_burst"),
            "read_distribution": ("uniform", "zipf"),
        },
        shared_trace=True,
    )


def run_experiment(workers=None):
    """Run the matrix and return ``(table, matrix_result)``."""
    trials = env_positive_int("REPRO_EXP_TRIALS", 4)
    root_seed = env_int("REPRO_EXP_ROOT_SEED", 2017)
    result = run_matrix(
        build_matrix(), trials=trials, root_seed=root_seed, workers=workers
    )
    table = aggregate_table(
        aggregate_matrix(result),
        COLUMNS,
        f"scenario matrix: {len(result.scenarios())} scenarios x "
        f"{result.trials} trials (mean +/- 95% CI, root seed {result.root_seed})",
    )
    return table, result


def test_scenario_matrix(benchmark):
    table, result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.show()
    assert len(result.scenarios()) == 12
    # Scenarios sharing a trace key replay identical failures, so the mean
    # repaired volume depends only on (failure_model, read_distribution),
    # never on the scheme.
    aggregates = {a.scenario: a for a in aggregate_matrix(result)}
    for model in ("independent", "rack_burst"):
        for mix in ("uniform", "zipf"):
            volumes = {
                aggregates[
                    f"matrix/scheme={scheme}/failure_model={model}"
                    f"/read_distribution={mix}"
                ].mean("repair_gibibytes")
                for scheme in ("conventional", "ppr", "rp")
            }
            assert len(volumes) == 1
    # Any worker count aggregates byte-identically (here: 1 vs whatever
    # REPRO_EXP_WORKERS selected for the benchmarked run).
    serial_table, serial_result = run_experiment(workers=1)
    assert serial_table.render() == table.render()
    assert serial_result.to_json() == result.to_json()


def main():
    start = time.time()
    table, result = run_experiment()
    table.show()
    wall = time.time() - start
    serial_equivalent = result.total_trial_wall_seconds()
    print(
        f"[{len(result.results)} trials over {result.workers} workers: "
        f"{wall:.1f} s wall-clock, {serial_equivalent:.1f} s of trial work, "
        f"{serial_equivalent / wall:.2f}x parallel efficiency]",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
