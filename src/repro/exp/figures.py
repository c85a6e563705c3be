"""The paper's evaluation as data: one registry, one runner, one scorecard.

Every figure and table of the paper's evaluation (Figs. 8-11, Table 1,
Algorithm 2's search time) is one :class:`Figure` in :data:`FIGURES`: an id,
a title, a plain function that regenerates the figure's tables, and the
paper's sentences about it as :class:`Claim`\\ s -- a number read off the
table, a comparison and a bound.  ``python -m repro.exp figures [ID ...]``
runs the named figures (default: all) over the experiment engine's worker
pool, prints each table and then the scorecard, and exits non-zero when a
claim fails that is not a recorded known gap, or when a known gap closes
while its mark is still on.

Every figure runs at one fixed scale -- the paper's 64 MiB blocks and 32 KiB
slices on the 17-node 1 Gb/s testbed, scaled down where the figure's
docstring says so; the figure ids are the only argument.
``tests/data/figures.json`` pins the tables of the 16 deterministic figures
and ``REPRODUCTION.md`` is :func:`scorecard` over that file; ``alg2`` times a
search, so it is scored by a run and not pinned.  ``Claim.paper`` quotes the
paper as the scripts this module replaced quoted it; it is not re-worded.
"""

from __future__ import annotations

import operator
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.cluster import (
    ClusterSpec, KiB, MiB, build_flat_cluster, build_rack_cluster, gbps, mbps, to_mib_per_sec,
)
from repro.codes import LRCCode, RotatedRSCode, RSCode
from repro.core import (
    BruteForcePathSelector, ConventionalRepair, CyclicRepairPipelining, DirectRead,
    FullNodeRecovery, PPRRepair, RackAwarePathSelector, RandomPathSelector, RepairPipelining,
    RepairRequest, StripeInfo, WeightedPathSelector,
)
from repro.exp.runner import default_workers, worker_pool
from repro.exp.table import ExperimentTable
from repro.sim import Simulator
from repro.storage import HDFS3, QFS, HDFSRaid
from repro.workloads import (
    ASIA_BANDWIDTH_MBPS, NORTH_AMERICA_BANDWIDTH_MBPS, assign_random_link_bandwidths,
    bandwidth_matrix_bytes, build_ec2_cluster, random_stripes,
)
from repro.workloads.ec2 import regions as ec2_regions

#: One table's rows, as :meth:`ExperimentTable.as_dicts` returns them.
Rows = List[Dict[str, str]]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One sentence of the paper about a figure, as a check on its table."""

    #: What is measured, in this repo's words.
    text: str
    #: What the paper reports, as the replaced script quoted it.
    paper: str
    #: The number the sentence is about, read off the table's rows.
    measure: Callable[[Rows], float]
    #: Comparison of the measured number with ``bound`` (a key of ``_OPS``).
    op: str
    bound: float
    #: Which of the figure's tables ``measure`` reads.
    table: int = 0
    #: Why the claim is known not to hold here.  A marked claim must fail:
    #: one that starts passing is reported until the mark is removed.
    known_gap: str = ""


@dataclass(frozen=True)
class Figure:
    """One figure or table of the paper's evaluation."""

    id: str
    title: str
    #: Regenerates the figure's tables (its docstring is the methodology).
    run: Callable[[], List[ExperimentTable]]
    claims: Tuple[Claim, ...]


#: The registry, by id, in the paper's order.
FIGURES: Dict[str, Figure] = {}


def _figure(figure_id: str, title: str, *claims: Claim):
    def register(run):
        FIGURES[figure_id] = Figure(figure_id, title, run, claims)
        return run

    return register


# --------------------------------------------------------------- fixtures
#: The paper's defaults (section 6.1): 64 MiB blocks cut into 32 KiB slices.
BLOCK_SIZE, SLICE_SIZE = 64 * MiB, 32 * KiB
#: Full-node recovery (Figs. 8(e), 10(b)): 16 stripes of 8 MiB blocks in
#: 128 KiB slices, scaled down from the paper's 64 stripes of 64 MiB blocks;
#: the recovery *rate* is what is compared.
_RECOVERY_STRIPES, _RECOVERY_BLOCK_SIZE, _RECOVERY_SLICE_SIZE = 16, 8 * MiB, 128 * KiB
#: The paper's four (n, k) configurations.
_CODING_PARAMS = [(9, 6), (12, 8), (14, 10), (16, 12)]
_HELPERS = [f"node{i}" for i in range(16)]
_NODES = _HELPERS + ["node16"]


def _testbed():
    """The paper's local testbed: 16 helpers and a requestor host on 1 Gb/s."""
    return build_flat_cluster(17)


def _stripe(code) -> StripeInfo:
    return StripeInfo(code, {i: f"node{i}" for i in range(code.n)})


def _degraded_read(code, block_size=BLOCK_SIZE, slice_size=SLICE_SIZE) -> RepairRequest:
    """Block 0 of a stripe on ``node0 .. node{n-1}`` read at ``node16``, which
    stores none of it, so all helper data crosses the network (section 6.1)."""
    return RepairRequest(_stripe(code), [0], "node16", block_size, slice_size)


def _reduction(baseline: float, value: float) -> float:
    """Percentage reduction of ``value`` relative to ``baseline``."""
    return 100.0 * (baseline - value) / baseline


def _three_schemes():
    return {"conventional": ConventionalRepair(), "ppr": PPRRepair(),
            "repair_pipelining": RepairPipelining("rp")}


_RP_VS_CONV_AND_PPR = {"rp_vs_conv_%": ("conventional", "repair_pipelining"),
                       "rp_vs_ppr_%": ("ppr", "repair_pipelining")}


def _makespan_sweep(title, label_columns, points, schemes, reductions) -> ExperimentTable:
    """One row per ``(labels, request, cluster)`` point: the repair time of
    every scheme, then ``reductions``' ``column: (baseline, scheme)`` in %."""
    table = ExperimentTable(title, [*label_columns, *schemes, *reductions])
    for labels, request, cluster in points:
        seconds = {name: scheme.repair_time(request, cluster).makespan
                   for name, scheme in schemes.items()}
        table.add_row(*labels, *seconds.values(),
                      *(_reduction(seconds[a], seconds[b]) for a, b in reductions.values()))
    return table


def _recovery_rates(stripes, runs, block_size, slice_size, cluster) -> List[float]:
    """Recovery rate (MiB/s) of ``node0``'s blocks for each
    ``(scheme, greedy_scheduling, requestors)`` run."""
    return [
        to_mib_per_sec(
            FullNodeRecovery(scheme, greedy_scheduling=greedy)
            .run(stripes, "node0", requestors, block_size, slice_size, cluster)
            .recovery_rate
        )
        for scheme, greedy, requestors in runs
    ]


# ---------------------------------------------------- reading a table's rows
def _cell(rows: Rows, column: str, **where) -> float:
    """``column`` of the one row whose ``where`` columns have these values."""
    (row,) = [r for r in rows if all(r[k] == str(v) for k, v in where.items())]
    return float(row[column])


def _col(rows: Rows, column: str) -> List[float]:
    return [float(row[column]) for row in rows]


def _growth(rows: Rows, column: str) -> float:
    """Last row over first row."""
    return float(rows[-1][column]) / float(rows[0][column])


def _spread(rows: Rows, column: str) -> float:
    return max(_col(rows, column)) / min(_col(rows, column))


def _ratios(rows: Rows, numerator: str, denominator: str) -> List[float]:
    return [a / b for a, b in zip(_col(rows, numerator), _col(rows, denominator))]


def _smallest_step(values: Sequence[float]) -> float:
    """Smallest difference from one value to the next; positive iff the
    values strictly increase."""
    return min(b - a for a, b in zip(values, values[1:]))


def _order_margin(rows: Rows, *columns: str) -> float:
    """Smallest gap between neighbours when every row should read
    ``columns[0] < columns[1] < ...``; positive iff all of them do."""
    return min(_smallest_step([float(row[c]) for c in columns]) for row in rows)


# ------------------------------------------------------------------ Figure 8
@_figure(
    "8a", "Figure 8(a): single-block repair time versus slice size",
    Claim("reduction vs conventional repair at 32 KiB slices (%)",
          "~90% below conventional repair",
          lambda r: _cell(r, "rp_vs_conv_%", slice_kib=32), ">", 80.0),
    Claim("reduction vs PPR at 32 KiB slices (%)", "~70% below PPR",
          lambda r: _cell(r, "rp_vs_ppr_%", slice_kib=32), ">", 55.0),
    Claim("the U-shape: rp at 1 KiB slices over rp at 32 KiB",
          "repair pipelining is slow for tiny slices (per-slice request overhead), "
          "reaches its minimum around 32-64 KiB",
          lambda r: _cell(r, "repair_pipelining", slice_kib=1)
          / _cell(r, "repair_pipelining", slice_kib=32), ">", 1.0),
)
def fig8a():
    """Slice size from 1 to 256 KiB on a (14, 10) stripe, plus the direct-send
    (normal read) baseline.  8 MiB block so the 1 KiB point stays cheap; the
    curve's shape is block-size independent."""
    cluster, code = _testbed(), RSCode(14, 10)
    return [_makespan_sweep(
        "Figure 8(a): repair time (s) vs slice size, (14,10), 8 MiB block", ["slice_kib"],
        [((slice_kib,), _degraded_read(code, 8 * MiB, slice_kib * KiB), cluster)
         for slice_kib in (1, 2, 4, 8, 16, 32, 64, 128, 256)],
        {**_three_schemes(), "direct_send": DirectRead(block_index=1)}, _RP_VS_CONV_AND_PPR,
    )]


@_figure(
    "8b", "Figure 8(b): single-block repair time versus block size",
    Claim("smallest reduction vs conventional repair over the block sizes (%)",
          "~89-92% versus conventional repair",
          lambda r: min(_col(r, "rp_vs_conv_%")), ">", 80.0),
    Claim("smallest reduction vs PPR over the block sizes (%)",
          "~66-92% versus PPR across all block sizes",
          lambda r: min(_col(r, "rp_vs_ppr_%")), ">", 55.0),
    Claim("rp repair time at 128 MiB over 8 MiB",
          "every scheme's time scales roughly linearly with the block size",
          lambda r: _growth(r, "repair_pipelining"), ">", 1.0),
    Claim("conventional repair time at 128 MiB over 8 MiB",
          "every scheme's time scales roughly linearly with the block size",
          lambda r: _growth(r, "conventional"), ">", 1.0),
)
def fig8b():
    """Block size from 8 to 128 MiB at 32 KiB slices, (14, 10)."""
    cluster, code = _testbed(), RSCode(14, 10)
    return [_makespan_sweep(
        "Figure 8(b): repair time (s) vs block size, (14,10), 32 KiB slices", ["block_mib"],
        [((block_mib,), _degraded_read(code, block_mib * MiB), cluster)
         for block_mib in (8, 16, 32, 64, 128)],
        _three_schemes(), _RP_VS_CONV_AND_PPR,
    )]


@_figure(
    "8c", "Figure 8(c): single-block repair time versus coding parameters",
    Claim("smallest step of conventional repair time from one k to the next (s)",
          "conventional repair grows linearly with k",
          lambda r: _smallest_step(_col(r, "conventional")), ">=", 0.0),
    Claim("largest rp repair time over smallest", "repair pipelining stays essentially flat",
          lambda r: _spread(r, "repair_pipelining"), "<", 1.25),
    Claim("reduction vs conventional at k=12 minus at k=6 (% points)",
          "the reduction versus conventional repair widens from ~82% at k=6 to ~91% at k=12",
          lambda r: _cell(r, "rp_vs_conv_%", k=12) - _cell(r, "rp_vs_conv_%", k=6), ">", 0.0),
    Claim("reduction vs conventional at k=12 (%)", "~91% at k=12",
          lambda r: _cell(r, "rp_vs_conv_%", k=12), ">", 85.0),
)
def fig8c():
    """The paper's four (n, k) at 64 MiB blocks and 32 KiB slices."""
    cluster = _testbed()
    return [_makespan_sweep(
        "Figure 8(c): repair time (s) vs (n,k), 64 MiB block, 32 KiB slices", ["n", "k"],
        [((n, k), _degraded_read(RSCode(n, k)), cluster) for n, k in _CODING_PARAMS],
        _three_schemes(), _RP_VS_CONV_AND_PPR,
    )]


def _normalised(rows: Rows, code: str, scheme: str) -> float:
    return _cell(rows, "normalised", code=code, scheme=scheme)


@_figure(
    "8d", "Figure 8(d): repair pipelining combined with repair-friendly codes",
    Claim("blocks a Rotated RS (16,12) degraded read fetches on average",
          "Rotated RS reads 9 on average (~0.75)",
          lambda _rows: RotatedRSCode(16, 12).average_repair_reads(), "==", 9),
    Claim("LRC under conventional repair, normalised time: distance from 0.5",
          "LRC's local repair reads 6 blocks (~0.5 normalised)",
          lambda r: abs(_normalised(r, "LRC(12,2,2)", "conventional") - 0.5), "<", 0.15),
    Claim("Rotated RS under conventional repair, normalised time: distance from 0.75",
          "Rotated RS reads 9 on average (~0.75)",
          lambda r: abs(_normalised(r, "RotatedRS(16,12)", "conventional") - 0.75), "<", 0.15),
    Claim("LRC under repair pipelining, normalised time",
          "adding repair pipelining drops the normalised time to ~0.1 regardless of the code",
          lambda r: _normalised(r, "LRC(12,2,2)", "repair_pipelining"), "<", 0.15),
    Claim("Rotated RS under repair pipelining, normalised time",
          "adding repair pipelining drops the normalised time to ~0.1 regardless of the code",
          lambda r: _normalised(r, "RotatedRS(16,12)", "repair_pipelining"), "<", 0.15),
    Claim("LRC: PPR's time over repair pipelining's", "PPR helps but less than repair pipelining",
          lambda r: _normalised(r, "LRC(12,2,2)", "ppr")
          / _normalised(r, "LRC(12,2,2)", "repair_pipelining"), ">", 1.0),
)
def fig8d():
    """LRC (k=12, two local groups) and Rotated RS (16, 12) under the three
    schemes, normalised to conventional repair of a (16, 12) RS code.  The
    rotation reads fractions of blocks; its average traffic equals nine whole
    blocks (``RotatedRSCode.average_repair_reads``), modelled as a plain
    (13, 9) MDS stripe on the same nodes: the same traffic and the same
    pipelining behaviour as the rotated layout."""
    cluster = _testbed()
    baseline = ConventionalRepair().repair_time(_degraded_read(RSCode(16, 12)), cluster).makespan
    table = ExperimentTable("Figure 8(d): normalised repair time (vs conventional RS(16,12))",
                            ["code", "scheme", "repair_time_s", "normalised"])
    for code_name, code in (("LRC(12,2,2)", LRCCode(12, 2, 2)), ("RotatedRS(16,12)", RSCode(13, 9))):
        for scheme_name, scheme in _three_schemes().items():
            seconds = scheme.repair_time(_degraded_read(code), cluster).makespan
            table.add_row(code_name, scheme_name, seconds, seconds / baseline)
    table.add_row("RS(16,12)", "conventional (baseline)", baseline, 1.0)
    return [table]


@_figure(
    "8e", "Figure 8(e): full-node recovery rate versus number of requestors",
    Claim("conventional recovery rate at 16 requestors over 1",
          "every scheme's recovery rate grows with the number of requestors",
          lambda r: _growth(r, "conventional"), ">", 1.0),
    Claim("rp recovery rate at 16 requestors over 1",
          "every scheme's recovery rate grows with the number of requestors",
          lambda r: _growth(r, "rp"), ">", 1.0),
    Claim("smallest rp recovery rate over conventional's, over the requestor counts",
          "repair pipelining stays ahead of conventional repair",
          lambda r: min(_ratios(r, "rp", "conventional")), ">", 0.95,
          known_gap="at 16 requestors rp recovers 111.577 MiB/s against conventional's 127.232 "
          "(rp+scheduling, 133.350, is ahead); red since the seed commit (113.6 vs 127.2), "
          "found when the claims first ran"),
    Claim("rp+scheduling recovery rate over rp's at 16 requestors",
          "greedy scheduling adds a further gain once there are many requestors",
          lambda r: _cell(r, "rp+scheduling", requestors=16) / _cell(r, "rp", requestors=16),
          ">=", 0.98),
)
def fig8e():
    """One block per stripe erased on ``node0`` and recovered by 1 to 16
    requestors: conventional repair, PPR, repair pipelining with fixed
    (lowest-index) helpers, and with the paper's greedy least-recently-
    selected scheduling."""
    cluster = _testbed()
    stripes = random_stripes(RSCode(14, 10), _HELPERS, _RECOVERY_STRIPES, seed=2017,
                             pin_node="node0")
    table = ExperimentTable("Figure 8(e): full-node recovery rate (MiB/s) vs number of requestors",
                            ["requestors", "conventional", "ppr", "rp", "rp+scheduling"])
    for count in (1, 2, 4, 8, 16):
        requestors = [f"node{i}" for i in range(1, count + 1)]
        runs = [(ConventionalRepair(), False, requestors), (PPRRepair(), False, requestors),
                (RepairPipelining("rp"), False, requestors),
                (RepairPipelining("rp"), True, requestors)]
        table.add_row(count, *_recovery_rates(
            stripes, runs, _RECOVERY_BLOCK_SIZE, _RECOVERY_SLICE_SIZE, cluster))
    return [table]


@_figure(
    "8f", "Figure 8(f): multi-block repair time versus number of failed blocks",
    Claim("largest conventional repair time over smallest",
          "conventional repair is roughly flat in the number of failures",
          lambda r: _spread(r, "conventional"), "<", 1.6),
    Claim("rp repair time at four failures over one: distance from 4x",
          "repair pipelining grows linearly with the number of failures",
          lambda r: abs(_growth(r, "repair_pipelining") - 4.0), "<", 1.0),
    Claim("reduction vs conventional for a four-block repair (%)", "~60% less in the paper",
          lambda r: _cell(r, "rp_vs_conv_%", failures=4), ">", 40.0),
)
def fig8f():
    """1 to 4 failed blocks of a (14, 10) stripe, each reconstructed at a
    distinct requestor (``node16`` downwards)."""
    cluster, stripe = _testbed(), _stripe(RSCode(14, 10))
    return [_makespan_sweep(
        "Figure 8(f): multi-block repair time (s) vs number of failed blocks", ["failures"],
        [((failures,),
          RepairRequest(stripe, list(range(failures)),
                        tuple(f"node{16 - i}" for i in range(failures)), BLOCK_SIZE, SLICE_SIZE),
          cluster)
         for failures in (1, 2, 3, 4)],
        {"conventional": ConventionalRepair(), "repair_pipelining": RepairPipelining("rp")},
        {"rp_vs_conv_%": ("conventional", "repair_pipelining")},
    )]


@_figure(
    "8g", "Figure 8(g): limited edge bandwidth -- basic versus cyclic repair pipelining",
    Claim("basic and cyclic at 1000 Mb/s: difference over basic's time",
          "at full edge bandwidth the two are nearly identical",
          lambda r: abs(_cell(r, "basic", edge_mbps=1000) - _cell(r, "cyclic", edge_mbps=1000))
          / _cell(r, "basic", edge_mbps=1000), "<", 0.2),
    Claim("basic repair time at 100 Mb/s over 1000 Mb/s",
          "the basic version's repair time grows roughly in inverse proportion to the edge "
          "bandwidth",
          lambda r: _cell(r, "basic", edge_mbps=100) / _cell(r, "basic", edge_mbps=1000),
          ">", 4.0),
    Claim("cyclic repair time at 100 Mb/s over 1000 Mb/s", "the cyclic version grows only mildly",
          lambda r: _cell(r, "cyclic", edge_mbps=100) / _cell(r, "cyclic", edge_mbps=1000),
          "<", 2.0),
    Claim("cyclic's reduction vs basic at 100 Mb/s (%)",
          "~83% less repair time at 100 Mb/s in the paper",
          lambda r: _cell(r, "cyclic_vs_basic_%", edge_mbps=100), ">", 60.0),
)
def fig8g():
    """Every helper's link towards the requestor throttled (the paper uses
    ``tc``) to 1000/500/200/100 Mb/s: the basic linear-path pipelining
    against the cyclic (parallel-read) version of section 4.1."""
    request, points = _degraded_read(RSCode(14, 10)), []
    for edge_mbps in (1000, 500, 200, 100):
        cluster = _testbed()
        cluster.throttle_edge_to("node16", mbps(edge_mbps))
        points.append(((edge_mbps,), request, cluster))
    return [_makespan_sweep(
        "Figure 8(g): repair time (s) vs edge bandwidth (Mb/s)", ["edge_mbps"], points,
        {"basic": RepairPipelining("rp"), "cyclic": CyclicRepairPipelining()},
        {"cyclic_vs_basic_%": ("basic", "cyclic")},
    )]


@_figure(
    "8h", "Figure 8(h): rack-aware path selection in a rack-based data centre",
    Claim("smallest margin in rack-aware < rp < conventional, both bandwidths (s)",
          "repair pipelining already beats conventional repair, and rack awareness cuts the "
          "repair time further (reduction vs conventional improves from ~61% to ~78% at 800 Mb/s)",
          lambda r: _order_margin(r, "rp+rackaware", "rp", "conventional"), ">", 0.0),
    Claim("smallest rack-aware reduction vs conventional (%)", "~78% at 800 Mb/s in the paper",
          lambda r: min(_col(r, "rackaware_vs_conv_%")), ">", 60.0),
)
def fig8h():
    """A (9, 6) stripe over three racks of six nodes (three blocks per rack),
    block 0 read at ``node3``, cross-rack core throttled to 400 or 800 Mb/s:
    conventional repair, repair pipelining over a random helper path, and
    over the rack-aware path of Algorithm 1."""
    # rack0 -> node0..2, rack1 -> node6..8, rack2 -> node12..14
    locations = {i: f"node{6 * (i // 3) + i % 3}" for i in range(9)}
    request = RepairRequest(StripeInfo(RSCode(9, 6), locations), [0], "node3",
                            BLOCK_SIZE, SLICE_SIZE)
    table = ExperimentTable(
        "Figure 8(h): repair time (s) vs cross-rack bandwidth",
        ["cross_rack_mbps", "conventional", "rp", "rp+rackaware", "rp_vs_conv_%",
         "rackaware_vs_conv_%"])
    for cross_rack_mbps in (400, 800):
        cluster = build_rack_cluster(3, 6, mbps(cross_rack_mbps))
        conventional = ConventionalRepair().repair_time(request, cluster).makespan
        rp, rack_aware = (
            RepairPipelining("rp", path_selector=selector).repair_time(request, cluster).makespan
            for selector in (RandomPathSelector(seed=1), RackAwarePathSelector())
        )
        table.add_row(cross_rack_mbps, conventional, rp, rack_aware,
                      _reduction(conventional, rp), _reduction(conventional, rack_aware))
    return [table]


@_figure(
    "8i", "Figure 8(i): repair time versus network bandwidth (1-10 Gb/s)",
    Claim("largest repair time at 10 Gb/s over 1 Gb/s, over the three schemes",
          "all schemes speed up with faster networks",
          lambda r: max(_cell(r, scheme, gbps=10) / _cell(r, scheme, gbps=1)
                        for scheme in ("conventional", "ppr", "repair_pipelining")), "<", 1.0),
    Claim("reduction vs conventional at 10 Gb/s (%)",
          "the reduction vs conventional dropping from ~90% to ~81%",
          lambda r: _cell(r, "rp_vs_conv_%", gbps=10), ">", 40.0),
    Claim("reduction vs conventional at 1 Gb/s minus at 10 Gb/s (% points)",
          "repair pipelining's relative gain shrinks at 10 Gb/s",
          lambda r: _cell(r, "rp_vs_conv_%", gbps=1) - _cell(r, "rp_vs_conv_%", gbps=10),
          ">", 0.0),
)
def fig8i():
    """Every node's network bandwidth scaled from 1 to 10 Gb/s."""
    request = _degraded_read(RSCode(14, 10))
    return [_makespan_sweep(
        "Figure 8(i): repair time (s) vs network bandwidth (Gb/s)", ["gbps"],
        [((bandwidth,), request,
          build_flat_cluster(17, spec=ClusterSpec(network_bandwidth=gbps(bandwidth))))
         for bandwidth in (1, 2, 5, 10)],
        _three_schemes(), _RP_VS_CONV_AND_PPR,
    )]


# ------------------------------------------------------------------ Figure 9
@_figure(
    "9", "Figure 9: degraded reads on the two geo-distributed EC2 clusters",
    Claim("requestor locations measured (four regions in each of two clusters)",
          "a single-block degraded read is issued from a requestor hosted in each region in turn",
          len, "==", 8),
    Claim("largest rp repair time over PPR's, over the requestor locations",
          "repair pipelining beats PPR for every requestor location (62-87% reduction in the "
          "paper)",
          lambda r: max(_ratios(r, "rp", "ppr")), "<", 1.0),
    Claim("largest weighted-path repair time over the random path's",
          "weighted path selection shaves off a further 7-45%",
          lambda r: max(_ratios(r, "rp+optimal", "rp")), "<=", 1.001),
    Claim("largest reduction of the weighted path vs the random path (%)",
          "weighted path selection shaves off a further 7-45%",
          lambda r: max(_col(r, "optimal_vs_rp_%")), ">", 5.0),
)
def fig9():
    """A (16, 12) stripe over the four regions of each EC2 cluster (region
    ``r`` stores blocks ``4r .. 4r+3`` on ``{region}-0 .. -3``), block 0 read
    from each region in turn at 64 MiB: PPR, repair pipelining over a random
    path, and over the optimal weighted path of Algorithm 2 on the Table 1
    link bandwidths.  The requestor is the region's fourth instance,
    ``{region}-3``, which itself stores block ``4r+3``; that local block is
    left out of both pipelining paths' candidates (PPR plans over every
    available block).  Conventional repair is omitted, as in the paper (its
    repair time is an order of magnitude larger)."""
    table = ExperimentTable(
        "Figure 9: single-block repair time (s) on Amazon EC2",
        ["cluster", "requestor_region", "ppr", "rp", "rp+optimal", "rp_vs_ppr_%",
         "optimal_vs_rp_%"])
    for cluster_name in ("north_america", "asia"):
        cluster, names = build_ec2_cluster(cluster_name), ec2_regions(cluster_name)
        stripe = StripeInfo(RSCode(16, 12), {4 * r + i: f"{region}-{i}"
                                             for r, region in enumerate(names) for i in range(4)})
        for region in names:
            requestor = f"{region}-3"
            request = RepairRequest(stripe, [0], requestor, BLOCK_SIZE, SLICE_SIZE)
            remote = [i for i in request.available_blocks() if stripe.location(i) != requestor]
            ppr = PPRRepair().repair_time(request, cluster).makespan
            rp, optimal = (
                Simulator(RepairPipelining("rp", path_selector=selector)
                          .build_graph(request, cluster, candidates=remote)).run().makespan
                for selector in (RandomPathSelector(seed=11), WeightedPathSelector())
            )
            table.add_row(cluster_name, region, ppr, rp, optimal,
                          _reduction(ppr, rp), _reduction(rp, optimal))
    return [table]


# ----------------------------------------------------------------- Figure 10
@_figure(
    "10a", "Figure 10(a): HDFS-RAID single-block repair time versus coding parameters",
    Claim("smallest reduction of rp vs the original repair path (%)",
          "repair pipelining reduces the single-block repair time by ~83-91% across "
          "(9,6)..(16,12)",
          lambda r: min(_col(r, "rp_vs_original_%")), ">", 80.0),
    Claim("smallest reduction from moving conventional repair into ECPipe (%)",
          "moving the repair logic to ECPipe alone shaves up to ~22% off conventional repair",
          lambda r: min(_col(r, "ecpipe_conv_vs_original_%")), ">", 0.0),
    Claim("largest reduction from moving conventional repair into ECPipe (%)",
          "moving the repair logic to ECPipe alone shaves up to ~22% off conventional repair",
          lambda r: max(_col(r, "ecpipe_conv_vs_original_%")), "<", 35.0),
)
def fig10a():
    """HDFS-RAID's original repair path (reads through the HDFS routine,
    per-helper connection setup) against conventional repair and repair
    pipelining executed by ECPipe helpers (native-file-system reads)."""
    cluster, system = _testbed(), HDFSRaid(_NODES)
    return [_makespan_sweep(
        "Figure 10(a): HDFS-RAID single-block repair time (s) vs (n,k)", ["n", "k"],
        [((n, k), _degraded_read(RSCode(n, k)), cluster) for n, k in _CODING_PARAMS],
        {"hdfs_raid": system.original_repair_scheme(),
         "ecpipe_conventional": system.ecpipe_conventional_scheme(),
         "ecpipe_rp": system.ecpipe_pipelining_scheme()},
        {"rp_vs_original_%": ("hdfs_raid", "ecpipe_rp"),
         "ecpipe_conv_vs_original_%": ("hdfs_raid", "ecpipe_conventional")},
    )]


@_figure(
    "10b", "Figure 10(b): HDFS-3 full-node recovery rate versus coding parameters",
    Claim("smallest rp recovery rate over the original path's",
          "repair pipelining achieves a multiple (5-16x in the paper) of the original recovery "
          "rate",
          lambda r: min(_col(r, "rp_speedup_x")), ">", 3.0),
    Claim("ECPipe conventional recovery rate over the original path's at (16,12)",
          "ECPipe's conventional repair overtakes the original path for large k because the "
          "original path pays a per-helper connection cost that grows with k",
          lambda r: _cell(r, "ecpipe_conventional", k=12) / _cell(r, "hdfs_3", k=12), ">", 1.0),
)
def fig10b():
    """A DataNode holding one block of every stripe erased and all lost
    blocks recovered in a new DataNode (``node16``) with greedy helper
    scheduling: HDFS-3's original repair path, conventional repair and
    repair pipelining under ECPipe."""
    cluster, system = _testbed(), HDFS3(_HELPERS)
    table = ExperimentTable(
        "Figure 10(b): HDFS-3 full-node recovery rate (MiB/s) vs (n,k)",
        ["n", "k", "hdfs_3", "ecpipe_conventional", "ecpipe_rp", "rp_speedup_x"])
    for n, k in _CODING_PARAMS:
        stripes = random_stripes(RSCode(n, k), _HELPERS, _RECOVERY_STRIPES, seed=31,
                                 pin_node="node0")
        runs = [(scheme, True, ["node16"])
                for scheme in (system.original_repair_scheme(),
                               system.ecpipe_conventional_scheme(),
                               system.ecpipe_pipelining_scheme())]
        original, conventional, rp = _recovery_rates(
            stripes, runs, _RECOVERY_BLOCK_SIZE, _RECOVERY_SLICE_SIZE, cluster)
        table.add_row(n, k, original, conventional, rp, rp / original)
    return [table]


@_figure(
    "10cd", "Figure 10(c)-(d): QFS single-block repair time versus slice and block size",
    Claim("reduction vs the original QFS path at 32 KiB slices (%)",
          "repair pipelining cuts the repair time by up to ~87% (at 32 KiB slices, 64 MiB blocks)",
          lambda r: _cell(r, "rp_vs_qfs_%", slice_kib=32), ">", 75.0),
    Claim("the U-shape: rp at 1 KiB slices over rp at 32 KiB",
          "the slice-size sweep shows the same U-shape as Figure 8(a)",
          lambda r: _cell(r, "ecpipe_rp", slice_kib=1) / _cell(r, "ecpipe_rp", slice_kib=32),
          ">", 1.0),
    Claim("smallest reduction vs the original QFS path over the block sizes (%)",
          "the original QFS repair path is the slowest at every point",
          lambda r: min(_col(r, "rp_vs_qfs_%")), ">", 70.0, table=1),
)
def fig10cd():
    """QFS's (9, 6) code: 10(c) sweeps the slice size at an 8 MiB block (the
    paper's is 64 MiB; the 1 KiB point stays cheap), 10(d) the block size at
    32 KiB slices."""
    cluster, system = _testbed(), QFS(_NODES)
    schemes = {"qfs": system.original_repair_scheme(),
               "ecpipe_rp": system.ecpipe_pipelining_scheme()}
    reductions = {"rp_vs_qfs_%": ("qfs", "ecpipe_rp")}
    return [
        _makespan_sweep(
            "Figure 10(c): QFS repair time (s) vs slice size (8 MiB block)", ["slice_kib"],
            [((slice_kib,), _degraded_read(system.code, 8 * MiB, slice_kib * KiB), cluster)
             for slice_kib in (1, 4, 16, 32, 64, 128, 256)],
            schemes, reductions),
        _makespan_sweep(
            "Figure 10(d): QFS repair time (s) vs block size (32 KiB slices)", ["block_mib"],
            [((block_mib,), _degraded_read(system.code, block_mib * MiB), cluster)
             for block_mib in (8, 16, 32, 64)],
            schemes, reductions),
    ]


# ----------------------------------------------------------------- Figure 11
@_figure(
    "11a", "Figure 11(a): block-level vs serial-slice vs parallel-slice pipelining",
    Claim("smallest margin in rp < pipe_s < pipe_b, over the block sizes (s)",
          "Pipe-B is the slowest by an order of magnitude (no pipelining benefit at all), "
          "Pipe-S cuts most of that",
          lambda r: _order_margin(r, "rp", "pipe_s", "pipe_b"), ">", 0.0),
    Claim("smallest reduction of rp vs Pipe-S (%)",
          "RP's careful parallelisation shaves roughly another 40-50% off Pipe-S at every "
          "block size",
          lambda r: min(_col(r, "rp_vs_pipe_s_%")), ">", 30.0),
    Claim("smallest Pipe-B repair time over rp's", "Pipe-B is the slowest by an order of magnitude",
          lambda r: min(_ratios(r, "pipe_b", "rp")), ">", 5.0),
)
def fig11a():
    """The three repair-pipelining implementations of section 6.4 -- Pipe-B
    (block-level), Pipe-S (slice-level, serial per-slice sub-operations) and
    RP (slice-level, parallelised sub-operations) -- from 8 to 64 MiB blocks."""
    cluster, code = _testbed(), RSCode(14, 10)
    return [_makespan_sweep(
        "Figure 11(a): repair time (s) of pipelining implementations vs block size",
        ["block_mib"],
        [((block_mib,), _degraded_read(code, block_mib * MiB), cluster)
         for block_mib in (8, 16, 32, 64)],
        {name: RepairPipelining(name) for name in ("pipe_b", "pipe_s", "rp")},
        {"rp_vs_pipe_s_%": ("pipe_s", "rp")},
    )]


@_figure(
    "11b", "Figure 11(b): full-node recovery -- PUSH baselines versus repair pipelining",
    Claim("RP-single recovery rate over Pipe-Rep's at 64 MiB blocks",
          "80%/268% higher than Pipe-Rep/Pipe-Sur at 64 MiB in the paper",
          lambda r: _cell(r, "rp_single", block_mib=64) / _cell(r, "pipe_rep", block_mib=64),
          ">", 1.0),
    Claim("RP-all recovery rate over Pipe-Sur's at 64 MiB blocks",
          "80%/268% higher than Pipe-Rep/Pipe-Sur at 64 MiB in the paper",
          lambda r: _cell(r, "rp_all", block_mib=64) / _cell(r, "pipe_sur", block_mib=64),
          ">", 1.0),
    Claim("RP-all recovery rate over RP-single's at 64 MiB blocks",
          "RP-all beats RP-single by spreading the requestor load",
          lambda r: _cell(r, "rp_all", block_mib=64) / _cell(r, "rp_single", block_mib=64),
          ">", 1.0),
    Claim("RP-all recovery rate at 64 MiB blocks over 1 MiB",
          "as the block size grows its recovery rate collapses while RP's grows",
          lambda r: _growth(r, "rp_all"), ">=", 0.8),
)
def fig11b():
    """Block-level pipelining in the style of PUSH (Pipe-Rep reconstructs
    every block on ``node16``; Pipe-Sur spreads reconstructed blocks over all
    nodes) against slice-level repair pipelining (RP-single, RP-all), all
    with greedy scheduling, for 1 to 64 MiB blocks in 32 KiB slices.  The
    paper repairs 4 TiB; here 8 stripes (the recovery *rate* is what
    matters, not the total volume)."""
    cluster, everyone = _testbed(), _HELPERS[1:]
    stripes = random_stripes(RSCode(14, 10), _HELPERS, 8, seed=64, pin_node="node0")
    runs = [(RepairPipelining("pipe_b"), True, ["node16"]),
            (RepairPipelining("pipe_b"), True, everyone),
            (RepairPipelining("rp"), True, ["node16"]),
            (RepairPipelining("rp"), True, everyone)]
    table = ExperimentTable("Figure 11(b): full-node recovery rate (MiB/s) vs block size",
                            ["block_mib", "pipe_rep", "pipe_sur", "rp_single", "rp_all"])
    for block_mib in (1, 4, 16, 64):
        table.add_row(block_mib,
                      *_recovery_rates(stripes, runs, block_mib * MiB, SLICE_SIZE, cluster))
    return [table]


# ------------------------------------------------------- Table 1, Algorithm 2
def _links_minus_cells(cluster_name: str) -> Callable[[Rows], float]:
    """Largest difference (bytes/s), over the region pairs, between the
    simulated ``{src}-0 -> {dst}-1`` link and the table's cell."""
    def measure(rows: Rows) -> float:
        cluster = build_ec2_cluster(cluster_name)
        return max(
            abs(cluster.link_bandwidth(f"{row['from/to']}-0", f"{dst}-1") - mbps(float(cell)))
            for row in rows for dst, cell in row.items() if dst != "from/to"
        )

    return measure


def _inner_dominated_regions(rows: Rows) -> float:
    """Regions whose inner-region bandwidth exceeds every cross-region one."""
    return sum(
        float(row[row["from/to"]])
        > max(float(v) for dst, v in row.items() if dst not in ("from/to", row["from/to"]))
        for row in rows
    )


_DRIVES_THE_CLUSTER = ("this reproduction embeds the measured values and uses them as the "
                       "simulated link capacities")
_INNER_DOMINATES = ("inner-region bandwidth dominates the cross-region bandwidth for the vast "
                    "majority of region pairs (the paper's observation)")


@_figure(
    "table1", "Table 1: inner- and cross-region bandwidth of the two EC2 clusters",
    Claim("North America: largest gap between a simulated link and the table's cell (B/s)",
          _DRIVES_THE_CLUSTER, _links_minus_cells("north_america"), "==", 0.0),
    Claim("Asia: largest gap between a simulated link and the table's cell (B/s)",
          _DRIVES_THE_CLUSTER, _links_minus_cells("asia"), "==", 0.0, table=1),
    Claim("North America: regions (of 4) whose inner bandwidth exceeds all their cross-region ones",
          _INNER_DOMINATES, _inner_dominated_regions, ">=", 3),
    Claim("Asia: regions (of 4) whose inner bandwidth exceeds all their cross-region ones",
          _INNER_DOMINATES, _inner_dominated_regions, ">=", 3, table=1),
)
def table1():
    """The paper measures the two matrices with iperf; they are embedded
    here (:mod:`repro.workloads.ec2`) and printed in Mb/s as the geo-cluster
    builder consumes them."""
    tables = []
    for title, matrix in (
        ("Table 1(a): North America bandwidth (Mb/s)", NORTH_AMERICA_BANDWIDTH_MBPS),
        ("Table 1(b): Asia bandwidth (Mb/s)", ASIA_BANDWIDTH_MBPS),
    ):
        table = ExperimentTable(title, ["from/to", *matrix])
        converted = bandwidth_matrix_bytes(matrix)
        for src in matrix:
            table.add_row(src, *[converted[src][dst] / mbps(1) for dst in matrix])
        tables.append(table)
    return tables


_ALG2_RUNS, _REDUCED_RUNS = 25, 5


def _timed_search(selector, code, num_nodes: int, seed: int):
    """One weighted-path search for block 0 of a stripe on a flat cluster
    with random 50 Mb/s - 1 Gb/s links: ``(seconds, cost of the path)``."""
    cluster = build_flat_cluster(num_nodes)
    assign_random_link_bandwidths(cluster, mbps(50), gbps(1), seed=seed)
    request = RepairRequest(_stripe(code), [0], f"node{num_nodes - 1}", BLOCK_SIZE, SLICE_SIZE)
    start = time.perf_counter()
    path = selector(request, cluster, request.available_blocks(), code.k)
    seconds = time.perf_counter() - start
    return seconds, WeightedPathSelector().max_link_weight(request, cluster, path)


def _reduced_searches() -> List[Tuple[float, float, float]]:
    """Per draw of the reduced (8, 5) configuration: Algorithm 2's seconds,
    brute force's seconds, and Algorithm 2's path cost over brute force's."""
    draws = []
    for seed in range(1000, 1000 + _REDUCED_RUNS):
        fast_seconds, fast_cost = _timed_search(WeightedPathSelector(), RSCode(8, 5), 9, seed)
        brute_seconds, brute_cost = _timed_search(BruteForcePathSelector(), RSCode(8, 5), 9, seed)
        draws.append((fast_seconds, brute_seconds, fast_cost / brute_cost))
    return draws


@_figure(
    "alg2", "Algorithm 2 search time versus brute-force path search (section 4.3)",
    Claim("Algorithm 2 on the paper's (14,10) configuration, mean search time (ms)",
          "Algorithm 2 takes ~0.9 ms",
          lambda r: _cell(r, "mean_search_ms", configuration="(14,10)"), "<", 200.0),
    Claim("largest cost of Algorithm 2's path over brute force's, reduced configuration",
          "verifying that both searches return paths of identical cost",
          lambda _rows: max(draw[2] for draw in _reduced_searches()), "<=", 1 + 1e-9),
    Claim("brute-force search time over Algorithm 2's, reduced configuration",
          "brute force takes ~27 s per search in their C++ implementation while Algorithm 2 "
          "takes ~0.9 ms",
          lambda r: _cell(r, "mean_search_ms", configuration="(8,5)", algorithm="brute-force")
          / _cell(r, "mean_search_ms", configuration="(8,5)", algorithm="algorithm-2"), ">", 5.0),
)
def alg2():
    """The paper times the optimal weighted-path search for a (14, 10) code
    over 1,000 Monte-Carlo draws of link weights.  A full (14, 10) brute
    force enumerates 13!/3! (about 1.04 billion) permutations and is not
    feasible in pure Python, so this (i) times Algorithm 2 on the paper's
    (14, 10) configuration over 25 draws and (ii) times both searches on a
    reduced (8, 5) configuration, where brute force is tractable, over 5."""
    table = ExperimentTable("Algorithm 2 vs brute-force path search",
                            ["configuration", "algorithm", "mean_search_ms", "runs"])
    total = sum(_timed_search(WeightedPathSelector(), RSCode(14, 10), 15, seed)[0]
                for seed in range(_ALG2_RUNS))
    table.add_row("(14,10)", "algorithm-2", 1e3 * total / _ALG2_RUNS, _ALG2_RUNS)
    fast, brute, _ = zip(*_reduced_searches())
    table.add_row("(8,5)", "algorithm-2", 1e3 * sum(fast) / _REDUCED_RUNS, _REDUCED_RUNS)
    table.add_row("(8,5)", "brute-force", 1e3 * sum(brute) / _REDUCED_RUNS, _REDUCED_RUNS)
    return [table]


# ------------------------------------------------------ scoring and running
#: Statuses a healthy tree reports; anything else is a non-zero exit.
EXPECTED = ("PASS", "KNOWN GAP")


def verdicts(figure: Figure, tables: Sequence[Rows]) -> List[Tuple[Claim, float, str]]:
    """``(claim, measured value, status)`` for every claim of ``figure``.

    The known-gap mark is strict both ways: a marked claim that holds is
    ``GAP CLOSED`` (remove the mark), an unmarked one that does not is
    ``FAIL``.
    """
    scored = []
    for claim in figure.claims:
        value = claim.measure(tables[claim.table])
        holds = _OPS[claim.op](value, claim.bound)
        if claim.known_gap:
            status = "GAP CLOSED" if holds else "KNOWN GAP"
        else:
            status = "PASS" if holds else "FAIL"
        scored.append((claim, value, status))
    return scored


def scorecard(tables: Mapping[str, Sequence[Rows]]) -> Tuple[str, List[str]]:
    """The markdown scorecard of the figures in ``tables`` (id -> the rows
    of each of its tables), and one line per claim whose status is not in
    :data:`EXPECTED`."""
    lines = [
        "# Reproduction scorecard",
        "",
        "One row per sentence of the paper's evaluation that this repo checks: what is",
        "measured, what the paper reports, what the simulator gives, the bound the check",
        "holds it to, and the status.  `KNOWN GAP` is a check recorded as failing, with its",
        "reason; it is not loosened.  Regenerate any figure with `PYTHONPATH=src python -m",
        "repro.exp figures [ID ...]`; `tests/data/figures.json` pins the tables this file is",
        "rendered from (`alg2` times a search, so it is scored only by a run).",
    ]
    counts: Dict[str, int] = {}
    unexpected = []
    for figure in FIGURES.values():
        if figure.id not in tables:
            continue
        lines += ["", f"## `{figure.id}` -- {figure.title}", "",
                  "| claim | paper | ours | bound | status |", "| --- | --- | --- | --- | --- |"]
        gaps = []
        for claim, value, status in verdicts(figure, tables[figure.id]):
            counts[status] = counts.get(status, 0) + 1
            lines.append(f"| {claim.text} | {claim.paper} | {value:.3f} "
                         f"| {claim.op} {claim.bound:.10g} | {status} |")
            if claim.known_gap:
                gaps.append(f"{status} -- {claim.text}: {claim.known_gap}.")
            if status not in EXPECTED:
                unexpected.append(f"{figure.id}: {claim.text}: {status}")
        if gaps:
            lines += ["", *gaps]
    summary = ", ".join(f"{n} {status}" for status, n in sorted(counts.items()))
    lines += ["", f"**{sum(counts.values())} claims: {summary}.**"]
    return "\n".join(lines) + "\n", unexpected


def _run(figure_id: str) -> List[ExperimentTable]:
    """Pool entry point (module-level so it pickles)."""
    return FIGURES[figure_id].run()


def regenerate(ids: Sequence[str]) -> Iterator[List[ExperimentTable]]:
    """The tables of each of ``ids``, in that order, over the worker pool."""
    workers = min(default_workers(), len(ids))
    if workers == 1:
        yield from map(_run, ids)
        return
    # chunksize=1 keeps the two slow figures (9, 11b) from queueing behind
    # each other; imap yields in the order asked whatever finishes first.
    with worker_pool(workers) as pool:
        yield from pool.imap(_run, ids, chunksize=1)


def run_figures(ids: Sequence[str]) -> int:
    """Regenerate and print the figures ``ids``, then their scorecard;
    returns the process exit status."""
    start = time.perf_counter()
    rows: Dict[str, List[Rows]] = {}
    for figure_id, tables in zip(ids, regenerate(ids)):
        for table in tables:
            table.show()
        rows[figure_id] = [table.as_dicts() for table in tables]
    text, unexpected = scorecard(rows)
    print(text)
    print(f"figures: {len(ids)} regenerated in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    for line in unexpected:
        print(f"unexpected: {line}", file=sys.stderr)
    return 1 if unexpected else 0
