"""Sharded trial execution.

The runner turns a scenario list into a trial matrix (``scenarios x
trials``), shards the trials over a ``multiprocessing`` pool, and collects
one serialisable :class:`TrialResult` per trial.  Three properties make the
sharding sound:

* each trial's seed comes from :func:`repro.exp.seeds.derive_seed`, so it
  depends only on ``(root_seed, trace_key, trial)`` -- never on which worker
  ran it or in what order;
* workers return plain primitives (the trial's metric summary), so results
  are identical whether they crossed a process boundary or not;
* results are sorted into canonical ``(scenario, trial)`` order before any
  aggregation, so the aggregated tables are byte-identical for any worker
  count -- the property the determinism tests pin.

``REPRO_EXP_WORKERS`` selects the worker count (default: the machine's CPU
count); ``workers=1`` runs inline in the calling process, which is also the
fallback whenever there is only one trial to run.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import env_positive_int
from repro.exp.scenario import Scenario
from repro.exp.seeds import derive_seed
from repro.runtime.runtime import ClusterRuntime, RuntimeReport
from repro.sim.reference import ReferenceSimulator

#: Engines a trial can execute on.  ``"optimized"`` is the production
#: :class:`~repro.sim.engine.DynamicSimulator` with graph templates, plan
#: memoization and the GF solver memo on; ``"reference"`` is the
#: independent naive interpreter (see :mod:`repro.sim.reference`) with all
#: three caching layers disabled, so every graph is re-planned, re-solved
#: and re-compiled from scratch.  Identical seeds must produce identical
#: :class:`TrialResult`\ s on both -- the contract the conformance harness
#: (:mod:`repro.conformance`) enforces.
ENGINES = ("optimized", "reference")


def default_workers() -> int:
    """Worker count: ``REPRO_EXP_WORKERS`` or the visible CPU count."""
    return env_positive_int("REPRO_EXP_WORKERS", os.cpu_count() or 1)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial, in transport-safe primitives.

    ``wall_seconds`` is the worker's wall-clock cost -- useful for speedup
    reporting but *excluded from every aggregated table*, since it varies
    run to run while the simulated metrics do not.
    """

    scenario: str
    trial: int
    seed: int
    summary: Dict[str, float]
    final_time: float
    tasks_completed: int
    wall_seconds: float = field(compare=False, default=0.0)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic primitive form (wall-clock excluded)."""
        return {
            "scenario": self.scenario,
            "trial": self.trial,
            "seed": self.seed,
            "summary": dict(self.summary),
            "final_time": self.final_time,
            "tasks_completed": self.tasks_completed,
        }

    def to_json(self) -> str:
        """Canonical serialisation for replay comparison.

        Dataclass ``==`` is too strict here: an undefined metric is ``NaN``
        and ``NaN != NaN``, so two bit-identical replays would compare
        unequal.  The JSON form spells ``NaN`` out as a token, making
        "identical serialised metrics" a plain string (byte) comparison.
        """
        return json.dumps(self.to_dict(), sort_keys=True)


def run_trial(
    scenario: Scenario, trial: int, root_seed: int, engine: str = "optimized"
) -> TrialResult:
    """Run one trial in the current process.

    ``engine`` selects the executor (see :data:`ENGINES`); the result must
    not depend on the choice, only the wall-clock does.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    seed = derive_seed(root_seed, scenario.seed_key, trial)
    cluster = scenario.build_cluster()
    stripes = scenario.build_stripes(seed)
    config = scenario.runtime_config(seed)
    start = time.perf_counter()
    if engine == "reference":
        for stripe in stripes:
            stripe.code.disable_caches()
        runtime = ClusterRuntime(
            cluster, stripes, config, engine=ReferenceSimulator(), use_templates=False
        )
    else:
        runtime = ClusterRuntime(cluster, stripes, config)
    report: RuntimeReport = runtime.run()
    wall = time.perf_counter() - start
    return TrialResult(
        scenario=scenario.name,
        trial=trial,
        seed=seed,
        summary=dict(report.summary),
        final_time=report.final_time,
        tasks_completed=report.tasks_completed,
        wall_seconds=wall,
    )


def _run_task(task: Tuple[Scenario, int, int]) -> TrialResult:
    """Pool entry point (module-level so it pickles)."""
    scenario, trial, root_seed = task
    return run_trial(scenario, trial, root_seed)


@contextlib.contextmanager
def worker_pool(workers: int) -> Iterator[multiprocessing.pool.Pool]:
    """A multiprocessing pool that never leaks workers.

    On a clean exit the pool is ``close()``d and ``join()``ed (workers drain
    and are reaped); on *any* exception -- including ``KeyboardInterrupt`` of
    an interactive ``run_matrix`` -- the workers are ``terminate()``d and
    then still ``join()``ed, so an interrupted matrix leaves no live or
    zombie worker processes behind.  (The bare ``with Pool()`` statement
    terminates but does not join, which is exactly the leak this guards
    against.)
    """
    pool = multiprocessing.Pool(processes=workers)
    try:
        yield pool
    except BaseException:
        pool.terminate()
        pool.join()
        raise
    else:
        pool.close()
        pool.join()


@dataclass
class MatrixResult:
    """All trial results of one matrix run, in canonical order."""

    #: Results sorted by (scenario position in the input list, trial index).
    results: List[TrialResult]
    #: Root seed the per-trial seeds were derived from.
    root_seed: int
    #: Trials per scenario.
    trials: int
    #: Worker processes actually used (the request is capped at the task
    #: count, so this can be below REPRO_EXP_WORKERS for small matrices).
    workers: int
    #: Wall-clock seconds of the whole matrix run (varies run to run).
    wall_seconds: float = field(compare=False, default=0.0)

    def scenarios(self) -> List[str]:
        """Scenario names in canonical order (first-trial order)."""
        seen: List[str] = []
        for result in self.results:
            if result.scenario not in seen:
                seen.append(result.scenario)
        return seen

    def summaries(self, scenario: str) -> List[Dict[str, float]]:
        """Per-trial metric summaries of one scenario, in trial order."""
        rows = [r.summary for r in self.results if r.scenario == scenario]
        if not rows:
            raise KeyError(f"no results for scenario {scenario!r}")
        return rows

    def total_trial_wall_seconds(self) -> float:
        """Sum of per-trial worker wall-clock (the serial-equivalent cost)."""
        return sum(r.wall_seconds for r in self.results)

    def to_json(self) -> str:
        """Canonical serialisation of every trial (see
        :meth:`TrialResult.to_json`); byte-identical for any worker count."""
        return json.dumps([r.to_dict() for r in self.results], sort_keys=True)


def run_matrix(
    scenarios: Sequence[Scenario],
    trials: int = 1,
    root_seed: int = 2017,
    workers: Optional[int] = None,
) -> MatrixResult:
    """Run every ``(scenario, trial)`` cell, sharded over workers.

    Parameters
    ----------
    scenarios:
        The scenario list; names must be unique.
    trials:
        Trials per scenario (seeds ``0 .. trials-1`` per trace key).
    root_seed:
        Root of the per-trial seed derivation.
    workers:
        Worker processes; ``None`` means :func:`default_workers`.  Any
        value yields identical results -- only wall-clock changes.
    """
    if not scenarios:
        raise ValueError("at least one scenario is required")
    if trials <= 0:
        raise ValueError("trials must be positive")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate scenario names: {duplicates}")
    if workers is None:
        workers = default_workers()
    if workers <= 0:
        raise ValueError("workers must be positive")

    tasks = [
        (scenario, trial, root_seed)
        for scenario in scenarios
        for trial in range(trials)
    ]
    workers = min(workers, len(tasks))
    start = time.perf_counter()
    if workers == 1:
        results = [_run_task(task) for task in tasks]
    else:
        # chunksize=1 keeps long trials from serialising behind short ones;
        # map() preserves task order, so no re-sort is needed.
        with worker_pool(workers) as pool:
            results = pool.map(_run_task, tasks, chunksize=1)
    wall = time.perf_counter() - start
    return MatrixResult(
        results=results,
        root_seed=root_seed,
        trials=trials,
        workers=workers,
        wall_seconds=wall,
    )
