"""Conformance differ as a benchmark: reference-engine overhead, quantified.

Not a paper figure -- this measures the price of independence: the naive
reference engine (:mod:`repro.sim.reference`) re-runs the same chaos
scenarios as the optimized stack, and the differ asserts byte-identical
reports while the wall-clock ratio shows how much the engine overhaul
(PR 3) actually buys on identical inputs.  A conformance failure fails the
benchmark, so running this *is* running the safety net.

Scaling knobs: ``REPRO_CONFORMANCE_SCENARIOS`` (default 10 here; the CI
``conformance`` job runs the full matrix through ``python -m
repro.conformance`` instead), ``REPRO_CONFORMANCE_TRIALS``,
``REPRO_CONFORMANCE_ROOT_SEED``, ``REPRO_DIFFER_DAYS``,
``REPRO_DIFFER_STRIPES``.
"""

from repro.config import env_int, env_positive_int
from repro.conformance import chaos_scenarios, run_differential_matrix
from repro.conformance.differ import CHAOS_ROOT_SEED


def run_experiment():
    """Run the differ on a scaled chaos matrix; returns the report."""
    root_seed = env_int("REPRO_CONFORMANCE_ROOT_SEED", CHAOS_ROOT_SEED)
    scenarios = chaos_scenarios(
        env_positive_int("REPRO_CONFORMANCE_SCENARIOS", 10),
        root_seed=root_seed,
        days=float(env_positive_int("REPRO_DIFFER_DAYS", 1)),
        num_stripes=env_positive_int("REPRO_DIFFER_STRIPES", 16),
    )
    report = run_differential_matrix(
        scenarios,
        trials=env_positive_int("REPRO_CONFORMANCE_TRIALS", 1),
        root_seed=root_seed,
    )
    return report


def test_conformance_differ(benchmark):
    report = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(report.render())
    assert report.ok, report.render(verbose=True)
    optimized = sum(t.optimized_wall for t in report.trials)
    reference = sum(t.reference_wall for t in report.trials)
    # The naive engine must never be the faster one on a non-trivial
    # matrix -- if it is, the optimized stack has regressed badly.
    assert reference >= optimized * 0.8


if __name__ == "__main__":
    result = run_experiment()
    print(result.render(verbose=True))
    raise SystemExit(0 if result.ok else 1)
