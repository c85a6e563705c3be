"""Cross-trial aggregation into experiment tables.

One trial yields a flat metric summary; a matrix run yields ``trials`` of
them per scenario.  This layer reduces each scenario's trials key-by-key
(:func:`repro.analysis.stats.reduce_summaries`) and renders
mean +/- 95%-CI tables through the same :class:`~repro.exp.table.ExperimentTable`
every figure prints -- so a multi-trial benchmark row looks exactly like
a single-trial one, plus its uncertainty.

Everything here is deterministic in the trial summaries alone: scenario
order follows the input matrix, metric order follows the collector's fixed
key order, and the formatting is fixed-precision -- which is why the
engine can promise byte-identical tables for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.analysis.stats import MetricStats, reduce_summaries
from repro.exp.runner import MatrixResult
from repro.exp.table import ExperimentTable

#: A table column: either a metric key (used as the column label too) or a
#: ``(label, key)`` pair for short headers.
ColumnSpec = Union[str, Tuple[str, str]]


@dataclass(frozen=True)
class ScenarioAggregate:
    """Cross-trial statistics of one scenario."""

    scenario: str
    trials: int
    stats: Dict[str, MetricStats]

    def mean(self, key: str) -> float:
        """Convenience: the mean of one metric."""
        return self.stats[key].mean

    def ci95(self, key: str) -> float:
        """Convenience: the 95% CI half-width of one metric."""
        return self.stats[key].ci95


def aggregate_matrix(result: MatrixResult) -> List[ScenarioAggregate]:
    """Reduce a matrix run to one :class:`ScenarioAggregate` per scenario."""
    aggregates: List[ScenarioAggregate] = []
    for scenario in result.scenarios():
        summaries = result.summaries(scenario)
        aggregates.append(
            ScenarioAggregate(
                scenario=scenario,
                trials=len(summaries),
                stats=reduce_summaries(summaries),
            )
        )
    return aggregates


def _column(spec: ColumnSpec) -> Tuple[str, str]:
    if isinstance(spec, str):
        return spec, spec
    label, key = spec
    return label, key


def aggregate_table(
    aggregates: Sequence[ScenarioAggregate],
    columns: Sequence[ColumnSpec],
    title: str,
    digits: int = 3,
) -> ExperimentTable:
    """Render scenario aggregates as a ``mean+/-ci`` experiment table.

    Parameters
    ----------
    aggregates:
        Scenario aggregates, in display order.
    columns:
        Metric columns -- keys of the trial summaries, optionally as
        ``(label, key)`` pairs.
    title:
        Table title.
    digits:
        Fixed precision of every cell (fixed so re-renders are
        byte-identical).
    """
    if not columns:
        raise ValueError("at least one metric column is required")
    labels_keys = [_column(spec) for spec in columns]
    table = ExperimentTable(
        title, ["scenario", "trials"] + [label for label, _ in labels_keys]
    )
    for aggregate in aggregates:
        cells = [
            aggregate.stats[key].format_mean_ci(digits) for _, key in labels_keys
        ]
        table.add_row(aggregate.scenario, aggregate.trials, *cells)
    return table
