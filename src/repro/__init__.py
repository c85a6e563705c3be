"""repro: a Python reproduction of *Repair Pipelining for Erasure-Coded Storage*.

The package rebuilds the paper's system, ECPipe, together with every
substrate it depends on:

* :mod:`repro.gf`, :mod:`repro.codes` -- GF(2^8) arithmetic and the erasure
  codes (Reed-Solomon, LRC, Rotated RS);
* :mod:`repro.sim`, :mod:`repro.cluster` -- a discrete-event network/cluster
  simulator standing in for the paper's physical testbed and EC2 clusters;
* :mod:`repro.core` -- the repair schemes: conventional repair, PPR, and
  repair pipelining with all of its extensions (cyclic parallel reads,
  rack-aware and weighted path selection, multi-block repair, full-node
  recovery);
* :mod:`repro.ecpipe` -- the ECPipe middleware data plane (coordinator,
  helpers, requestors) operating on real bytes;
* :mod:`repro.storage` -- HDFS-RAID / HDFS-3 / QFS facades;
* :mod:`repro.workloads`, :mod:`repro.analysis` -- workload generators and
  analytical models;
* :mod:`repro.exp` -- the parallel experiment engine and, in
  :mod:`repro.exp.figures`, the paper's figures and claims as one registry
  (``python -m repro.exp figures``);
* :mod:`repro.conformance` -- differential conformance: an independent
  reference engine (:mod:`repro.sim.reference`), analytical oracles, and a
  chaos-scenario differ that hold the optimized simulator to byte-identical
  reports.

Quick start::

    from repro.cluster import build_flat_cluster, MiB, KiB
    from repro.codes import RSCode
    from repro.core import RepairPipelining, ConventionalRepair, RepairRequest, StripeInfo

    cluster = build_flat_cluster(17)
    code = RSCode(14, 10)
    stripe = StripeInfo(code, {i: f"node{i}" for i in range(code.n)})
    request = RepairRequest(stripe, failed=[0], requestors="node16",
                            block_size=64 * MiB, slice_size=32 * KiB)
    print(ConventionalRepair().repair_time(request, cluster).makespan)
    print(RepairPipelining().repair_time(request, cluster).makespan)
"""

from repro.codes import ErasureCode, LRCCode, RepairPlan, RotatedRSCode, RSCode
from repro.cluster import (
    Cluster,
    ClusterSpec,
    GiB,
    KiB,
    MiB,
    build_flat_cluster,
    build_geo_cluster,
    build_rack_cluster,
    gbps,
    mbps,
)
from repro.core import (
    ConventionalRepair,
    CyclicRepairPipelining,
    DirectRead,
    FullNodeRecovery,
    PPRRepair,
    RepairPipelining,
    RepairRequest,
    StripeInfo,
)
from repro.ecpipe import ECPipe

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # codes
    "ErasureCode",
    "RSCode",
    "LRCCode",
    "RotatedRSCode",
    "RepairPlan",
    # cluster
    "Cluster",
    "ClusterSpec",
    "build_flat_cluster",
    "build_rack_cluster",
    "build_geo_cluster",
    "KiB",
    "MiB",
    "GiB",
    "mbps",
    "gbps",
    # repair schemes
    "ConventionalRepair",
    "PPRRepair",
    "RepairPipelining",
    "CyclicRepairPipelining",
    "DirectRead",
    "FullNodeRecovery",
    "RepairRequest",
    "StripeInfo",
    # middleware
    "ECPipe",
]
