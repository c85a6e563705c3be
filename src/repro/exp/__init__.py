"""Parallel experiment engine.

The paper's evaluation -- and the month-long runtime of
:mod:`repro.runtime` -- are single-process, single-trial runs.  This
subpackage makes the scenario space cheap to explore:

:class:`~repro.exp.scenario.Scenario` / :func:`~repro.exp.scenario.expand`
    A declarative spec (code, topology, failure model, foreground workload,
    repair scheme) and its cartesian expansion into named trial matrices.
:func:`~repro.exp.seeds.derive_seed`
    ``SHA-256(root_seed | trace_key | trial)`` -- per-trial master seeds
    that depend only on *what* runs, never on where, so sharding cannot
    change results; scenarios sharing a ``trace_key`` draw paired traces.
:func:`~repro.exp.runner.run_matrix` / :class:`~repro.exp.runner.MatrixResult`
    ``multiprocessing``-sharded trial execution returning serialisable
    per-trial results in canonical order.
:func:`~repro.exp.aggregate.aggregate_matrix` /
:func:`~repro.exp.aggregate.aggregate_table`
    Cross-trial reduction (mean / std / 95% CI per metric, via
    :mod:`repro.analysis.stats`) rendered as standard experiment tables
    (:class:`~repro.exp.table.ExperimentTable`).
:mod:`repro.exp.figures`
    The paper's evaluation as data: one registry entry per figure/table
    and the paper's claims as checks, run and scored by ``python -m
    repro.exp figures [ID ...]``.  Not imported here -- only the CLI and
    the tests pay for it.

The engine's contract, pinned by the determinism tests: for a fixed root
seed, the aggregated tables are **byte-identical for any worker count**.
``REPRO_EXP_WORKERS`` / ``REPRO_EXP_TRIALS`` / ``REPRO_EXP_ROOT_SEED`` are
the conventional environment knobs benchmarks read (see EXPERIMENTS.md).
"""

from repro.exp.aggregate import (
    ScenarioAggregate,
    aggregate_matrix,
    aggregate_table,
)
from repro.exp.runner import (
    ENGINES,
    MatrixResult,
    TrialResult,
    default_workers,
    run_matrix,
    run_trial,
)
from repro.exp.scenario import CODE_FAMILIES, TOPOLOGIES, Scenario, expand, make_code
from repro.exp.seeds import derive_seed
from repro.exp.table import ExperimentTable

__all__ = [
    "Scenario",
    "expand",
    "make_code",
    "derive_seed",
    "ENGINES",
    "run_matrix",
    "run_trial",
    "default_workers",
    "MatrixResult",
    "TrialResult",
    "aggregate_matrix",
    "aggregate_table",
    "ScenarioAggregate",
    "ExperimentTable",
    "CODE_FAMILIES",
    "TOPOLOGIES",
]
