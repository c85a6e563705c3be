"""Benchmark harness helpers.

Conventions shared by every benchmark:

* the default environment mirrors the paper's local testbed -- 17 nodes on
  1 Gb/s Ethernet, 64 MiB blocks, 32 KiB slices, (14, 10) RS codes -- and can
  be scaled down through environment variables (``REPRO_BLOCK_MIB``,
  ``REPRO_STRIPES``, ...) so that the whole suite runs quickly on a laptop
  while keeping the paper-scale defaults reproducible;
* every benchmark prints an :class:`ExperimentTable` whose rows mirror the
  series of the corresponding paper figure, so the output can be compared
  against the figure directly (EXPERIMENTS.md records that comparison);
* environment overrides are validated on read -- a non-positive
  ``REPRO_BLOCK_MIB`` or ``REPRO_SLICE_KIB`` raises a ``ValueError`` naming
  the variable instead of surfacing later as a division error inside a
  scheme.

Runtime benchmarks (``bench_runtime_*``) follow two extra conventions:

* long-horizon knobs are also environment-driven -- ``REPRO_RUNTIME_DAYS``
  (simulated days), ``REPRO_RUNTIME_STRIPES`` (cluster size in stripes) and
  ``REPRO_RUNTIME_SEED`` -- so CI can smoke-test a scaled-down cluster while
  the defaults reproduce the full month-long trace;
* every row reports the continuous-operation metrics of
  :class:`repro.runtime.MetricsCollector` (MTTR, repair-queue depth,
  degraded-read tail latency, data-loss events) rather than a single repair
  makespan, and runs with a fixed seed so two invocations print identical
  tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.builders import build_flat_cluster
from repro.cluster.cluster import Cluster
from repro.cluster.spec import ClusterSpec
from repro.cluster.units import KiB, MiB
from repro.codes.base import ErasureCode
# Re-exported: the ``benchmarks/`` scripts import the env readers from here.
from repro.config import env_float, env_int, env_positive_int  # noqa: F401
from repro.core.request import RepairRequest, StripeInfo

#: Number of storage nodes in the paper's local testbed (16 helpers + 1 host
#: for the requestor; the coordinator is control-plane only).
DEFAULT_NUM_NODES = 17
#: Node hosting the requestor in single-block experiments (stores no block of
#: the repaired stripe, so helper data always crosses the network).
DEFAULT_REQUESTOR = "node16"


def default_block_size() -> int:
    """Benchmark block size in bytes (``REPRO_BLOCK_MIB``, default 64 MiB)."""
    return env_positive_int("REPRO_BLOCK_MIB", 64) * MiB


def default_slice_size() -> int:
    """Benchmark slice size in bytes (``REPRO_SLICE_KIB``, default 32 KiB)."""
    return env_positive_int("REPRO_SLICE_KIB", 32) * KiB


def standard_cluster(
    num_nodes: int = DEFAULT_NUM_NODES, spec: Optional[ClusterSpec] = None
) -> Cluster:
    """The paper's local testbed: a flat cluster of 1 Gb/s nodes."""
    return build_flat_cluster(num_nodes, spec=spec)


def standard_stripe(code: ErasureCode, stripe_id: int = 0) -> StripeInfo:
    """Place the ``n`` blocks of a stripe on ``node0 .. node{n-1}``.

    The default requestor (``node16``) stores no block of the stripe, so all
    helper data crosses the network, as in the paper's methodology.
    """
    if code.n >= DEFAULT_NUM_NODES:
        raise ValueError(
            f"standard stripe supports n < {DEFAULT_NUM_NODES}, got n={code.n}"
        )
    return StripeInfo(code, {i: f"node{i}" for i in range(code.n)}, stripe_id=stripe_id)


def single_block_request(
    code: ErasureCode,
    block_size: Optional[int] = None,
    slice_size: Optional[int] = None,
    failed_index: int = 0,
    requestor: str = DEFAULT_REQUESTOR,
) -> RepairRequest:
    """A single-block degraded read on the standard stripe."""
    return RepairRequest(
        standard_stripe(code),
        [failed_index],
        requestor,
        block_size if block_size is not None else default_block_size(),
        slice_size if slice_size is not None else default_slice_size(),
    )


def reduction_percent(baseline: float, value: float) -> float:
    """Percentage reduction of ``value`` relative to ``baseline``."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - value) / baseline


class ExperimentTable:
    """A small fixed-column result table printed by each benchmark.

    Parameters
    ----------
    title:
        Table title (usually the paper figure/table being reproduced).
    columns:
        Column names; the first column is the row label.
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("at least one column is required")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values) -> None:
        """Append a row; values are converted to display strings."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        formatted = []
        for value in values:
            if isinstance(value, float):
                formatted.append(f"{value:.3f}")
            else:
                formatted.append(str(value))
        self.rows.append(formatted)

    def as_dicts(self) -> List[Dict[str, str]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def render(self) -> str:
        """Render the table as aligned plain text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, ""]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table."""
        print("\n" + self.render() + "\n")
