#!/usr/bin/env python3
"""Full-node recovery with greedy helper scheduling (section 3.3).

Writes many stripes across a 16-node cluster through the HDFS-3 facade,
fails one DataNode, and recovers every lost block two ways:

1. through the byte-level ECPipe data plane (proving the recovered bytes are
   exact), and
2. through the timing planners, comparing the recovery rate of the original
   HDFS-3 repair path, conventional repair under ECPipe, and repair
   pipelining with and without greedy least-recently-selected helper
   scheduling, across several requestor counts (Figure 8(e) / 10(b)).

Run with::

    python examples/full_node_recovery.py
"""

import os

from repro.cluster import KiB, MiB, build_flat_cluster, to_mib_per_sec
from repro.codes import RSCode
from repro.core import ConventionalRepair, FullNodeRecovery, RepairPipelining
from repro.storage import HDFS3
from repro.workloads import random_stripes

NODES = [f"node{i}" for i in range(16)]
NUM_STRIPES = 16
DATA_BLOCK_SIZE = 16 * KiB   # byte-level payloads (kept small for speed)
SIM_BLOCK_SIZE = 8 * MiB     # simulated block size for the timing study
SIM_SLICE_SIZE = 1 * MiB


def byte_level_recovery():
    """Fail a DataNode of an HDFS-3 deployment and verify the recovery."""
    system = HDFS3(NODES, code=RSCode(9, 6), block_size=DATA_BLOCK_SIZE)
    original = {}
    for i in range(4):
        payload = os.urandom(DATA_BLOCK_SIZE * 6)
        system.write_file(f"file-{i}", payload)
        original[f"file-{i}"] = payload

    victim = system.stripe(0).location(0)
    lost = system.fail_node(victim)
    print(f"byte-level recovery: DataNode {victim} failed, {len(lost)} blocks lost")

    recovered = system.ecpipe.recover_node(
        victim, ["node14", "node15"], slice_size=4 * KiB
    )
    for (stripe_id, block_index), payload in recovered.items():
        expected = system.code.encode(
            [
                original[f"file-{stripe_id}"][i * DATA_BLOCK_SIZE:(i + 1) * DATA_BLOCK_SIZE]
                for i in range(6)
            ]
        )[block_index].tobytes()
        assert payload == expected
        system.restore_block(stripe_id, block_index, payload)
    print(f"  all {len(recovered)} blocks reconstructed bit-exactly and written back\n")


def recovery_rate_study():
    """Compare recovery rates of the repair strategies (simulated timing)."""
    cluster = build_flat_cluster(17)
    code = RSCode(14, 10)
    stripes = random_stripes(code, NODES, NUM_STRIPES, seed=7, pin_node="node0")
    system = HDFS3(NODES, code=code)

    strategies = {
        "hdfs-3 original repair": FullNodeRecovery(system.original_repair_scheme(), False),
        "ecpipe conventional": FullNodeRecovery(ConventionalRepair(), False),
        "ecpipe rp": FullNodeRecovery(RepairPipelining("rp"), False),
        "ecpipe rp + scheduling": FullNodeRecovery(RepairPipelining("rp"), True),
    }
    print("full-node recovery rate (MiB/s), 16 stripes of 8 MiB blocks:")
    print(f"{'requestors':>10s}  " + "  ".join(f"{name:>22s}" for name in strategies))
    for count in (1, 4, 8):
        requestors = [f"node{i}" for i in range(1, count + 1)]
        rates = []
        for recovery in strategies.values():
            result = recovery.run(
                stripes, "node0", requestors, SIM_BLOCK_SIZE, SIM_SLICE_SIZE, cluster
            )
            rates.append(to_mib_per_sec(result.recovery_rate))
        print(f"{count:>10d}  " + "  ".join(f"{rate:>22.1f}" for rate in rates))
    print("\nrepair pipelining multiplies the recovery rate; greedy scheduling adds")
    print("a further gain once many requestors pull repairs concurrently.")


def main():
    byte_level_recovery()
    recovery_rate_study()


if __name__ == "__main__":
    main()
