"""Repair schemes -- the paper's primary contribution.

The package implements every repair strategy evaluated in the paper as a
*planner*: given a stripe, a failure, a cluster and a code, a scheme compiles
the repair into a task DAG that the discrete-event simulator executes.  The
same planners drive the byte-level data plane in :mod:`repro.ecpipe`.

Schemes
-------
:class:`~repro.core.conventional.ConventionalRepair`
    Classical RS repair: the requestor fetches ``k`` blocks (section 2.2);
    also implements the dedicated-requestor multi-block repair.
:class:`~repro.core.ppr.PPRRepair`
    Partial-parallel repair (Mitra et al., EuroSys'16): hierarchical pairwise
    aggregation in ``ceil(log2(k+1))`` rounds.
:class:`~repro.core.pipelining.RepairPipelining`
    The paper's repair pipelining in its three implementations -- ``rp``
    (parallelised slice sub-operations), ``pipe_s`` (serial slice
    sub-operations), ``pipe_b`` (block-level pipelining) -- plus multi-block
    repair (section 4.4).
:class:`~repro.core.cyclic.CyclicRepairPipelining`
    The cyclic (parallel-read) extension for limited edge bandwidth
    (section 4.1).
:class:`~repro.core.recovery.FullNodeRecovery`
    Multi-stripe recovery with greedy helper scheduling and multi-requestor
    placement (sections 3.3 and 6.4), including the PUSH baselines.

Path selection
--------------
:mod:`repro.core.paths` provides helper/path selectors: first-k, random,
rack-aware (Algorithm 1), and weighted optimal path selection (Algorithm 2)
with its brute-force baseline.

Templates
---------
:mod:`repro.core.templates` captures a compiled task graph over the roles
its nodes play (:class:`~repro.core.templates.RebindableGraphTemplate`,
keyed by :func:`~repro.core.templates.role_pattern`, rebound per use through
a :class:`~repro.core.templates.PortResolver`) so repeated operations --
repairs, degraded reads and normal reads alike -- skip the planner and
scheme compile entirely: the continuous runtime's hot path.
"""

from repro.core.conventional import ConventionalRepair, DirectRead
from repro.core.cyclic import CyclicRepairPipelining
from repro.core.paths import (
    BruteForcePathSelector,
    FirstKPathSelector,
    RackAwarePathSelector,
    RandomPathSelector,
    WeightedPathSelector,
)
from repro.core.pipelining import RepairPipelining
from repro.core.planner import RepairScheme, TaskEmitter
from repro.core.ppr import PPRRepair
from repro.core.recovery import FullNodeRecovery, RecoveryResult
from repro.core.request import RepairRequest, StripeInfo
from repro.core.templates import (
    PortResolver,
    RebindableGraphTemplate,
    role_pattern,
)

__all__ = [
    "RebindableGraphTemplate",
    "PortResolver",
    "role_pattern",
    "RepairRequest",
    "StripeInfo",
    "RepairScheme",
    "TaskEmitter",
    "ConventionalRepair",
    "DirectRead",
    "PPRRepair",
    "RepairPipelining",
    "CyclicRepairPipelining",
    "FullNodeRecovery",
    "RecoveryResult",
    "FirstKPathSelector",
    "RandomPathSelector",
    "RackAwarePathSelector",
    "WeightedPathSelector",
    "BruteForcePathSelector",
]
