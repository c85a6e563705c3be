"""CLI: ``python -m repro.conformance``.

Runs the chaos differential matrix (optimized vs reference engine on
identical seeds) plus the analytical report oracles, streams one line per
trial, and exits non-zero on any conformance failure.  CI runs this as the
required ``conformance`` job; locally::

    PYTHONPATH=src python -m repro.conformance --scenarios 20
    PYTHONPATH=src python -m repro.conformance --scenarios 5 --days 0.25 -v
    PYTHONPATH=src python -m repro.conformance --list

Environment knobs mirror the flags for CI convenience:
``REPRO_CONFORMANCE_SCENARIOS``, ``REPRO_CONFORMANCE_TRIALS``,
``REPRO_CONFORMANCE_ROOT_SEED`` (flags win).
"""

from __future__ import annotations

import argparse
import sys

from repro.config import env_positive_int
from repro.conformance.differ import (
    CHAOS_ROOT_SEED,
    chaos_scenarios,
    live_vocabulary_scenarios,
    run_differential_matrix,
)


def _env_default(name: str, fallback: int) -> int:
    """The harness's validated env reader, exiting cleanly on bad input."""
    try:
        return env_positive_int(name, fallback)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description=(
            "Differential conformance: run randomized chaos scenarios on the "
            "optimized and the reference engine with identical seeds and "
            "diff the reports field by field."
        ),
    )
    parser.add_argument(
        "--scenarios",
        type=int,
        default=_env_default("REPRO_CONFORMANCE_SCENARIOS", 20),
        help="number of chaos scenarios to draw (default 20)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=_env_default("REPRO_CONFORMANCE_TRIALS", 1),
        help="trials per scenario (default 1)",
    )
    parser.add_argument(
        "--root-seed",
        type=int,
        default=_env_default("REPRO_CONFORMANCE_ROOT_SEED", CHAOS_ROOT_SEED),
        help=f"root seed of the chaos draw (default {CHAOS_ROOT_SEED})",
    )
    parser.add_argument(
        "--days", type=float, default=None, help="override the simulated horizon"
    )
    parser.add_argument(
        "--stripes", type=int, default=None, help="override the stripe population"
    )
    parser.add_argument(
        "--no-oracles",
        action="store_true",
        help="skip the analytical report oracles (engine diff only)",
    )
    parser.add_argument(
        "--vocab",
        action="store_true",
        help=(
            "append the live chaos-harness vocabulary (repro.chaos) to the "
            "matrix: one scenario per live fault script, on the axes the "
            "live run stresses"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the drawn scenario matrix and exit",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print every trial, not just failures"
    )
    args = parser.parse_args(argv)
    if args.scenarios <= 0 or args.trials <= 0:
        parser.error("--scenarios and --trials must be positive")

    scenarios = chaos_scenarios(
        args.scenarios,
        root_seed=args.root_seed,
        days=args.days,
        num_stripes=args.stripes,
    )
    if args.vocab:
        scenarios = scenarios + live_vocabulary_scenarios(
            days=args.days if args.days is not None else 0.5,
            num_stripes=args.stripes if args.stripes is not None else 12,
        )
    if args.list:
        for scenario in scenarios:
            print(
                f"{scenario.name}: code={scenario.code} {scenario.topology} "
                f"nodes={scenario.num_nodes} scheme={scenario.scheme} "
                f"failures={scenario.failure_model} "
                f"cap={scenario.repair_bandwidth_cap} "
                f"fg={scenario.foreground_rate}/{scenario.read_distribution} "
                f"days={scenario.days}"
            )
        return 0

    print(
        f"differential conformance: {len(scenarios)} chaos scenarios x "
        f"{args.trials} trial(s), root seed {args.root_seed}"
    )
    report = run_differential_matrix(
        scenarios,
        trials=args.trials,
        root_seed=args.root_seed,
        check_oracles=not args.no_oracles,
        progress=lambda diff: print(diff.render(), flush=True)
        if args.verbose or not diff.ok
        else None,
    )
    print(report.render(verbose=False).splitlines()[-1])
    if not report.ok:
        print(
            f"CONFORMANCE FAILURE: {len(report.failures)} of "
            f"{len(report.trials)} trials diverged or violated an oracle",
            file=sys.stderr,
        )
        return 1
    print("conformance OK: engines byte-identical, oracles satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
