"""What a degraded read costs, by role and by slice size -- the live Fig. 8(a).

Boots a process-mode deployment (one OS process per role, as perfbench and
the CLI do), stores one (n, k) stripe, erases a block and then times
pipelined (``rp``) degraded reads of it at each slice size, beside
conventional and healthy reads of the same block size.  Every row reports,
per read:

* wall-clock p50;
* CPU seconds of every role process and of this client, from
  ``/proc/<pid>/stat`` (user + system) -- on a box with fewer cores than
  hops this sum, not the wall clock, is what a change to the hop must move;
* minor page faults over all of them (fresh buffers are faulted in).

The last line fits the coordinator's slice model to the first and last
``rp`` rows: a hop that moves a block of ``B`` bytes in ``s`` slices is busy
for ``s * c_slice + B * c_byte``, so the helpers' CPU per hop at two slice
sizes gives ``c_slice``, ``c_byte`` and ``beta = c_slice / c_byte``
(``repro.service.coordinator.SLICE_BETA``).  CPU, not the hops' ``CHAIN``
spans: with fewer cores than hops every span measures the whole chain's
wall clock, not its hop's busy time.

    PYTHONPATH=src python examples/degraded_read_cost.py
    PYTHONPATH=src python examples/degraded_read_cost.py --slices 64,1024 --reads 60

Every byte read back is compared with the stored block and the reply's
``sha256``.  Linux only (``/proc``).
"""

import argparse
import asyncio
import hashlib
import os
import random
import statistics
import time

from repro.cluster import DeploymentSpec
from repro.service import LocalDeployment, ServiceClient

KIB = 1024
TICK = os.sysconf("SC_CLK_TCK")


def proc_cost(pid):
    """``(cpu_seconds, minor_faults)`` of one process so far."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    # After the command name: state is fields[0], so minflt is [7], utime [11], stime [12].
    return (int(fields[11]) + int(fields[12])) / TICK, int(fields[7])


def snapshot(deployment):
    groups = {"client": [os.getpid()]}
    for handle in deployment.handles:
        groups.setdefault(handle.role, []).append(handle.pid)
    return {
        role: tuple(map(sum, zip(*(proc_cost(pid) for pid in pids))))
        for role, pids in groups.items()
    }


async def measure(deployment, client, reads, expected, **read_options):
    """One table row: ``reads`` verified block reads with ``read_options``."""
    walls = []
    before = snapshot(deployment)
    for _ in range(reads):
        began = time.perf_counter()
        payload, header = await client.read_block(1, 0, **read_options)
        walls.append(time.perf_counter() - began)
        digest = hashlib.sha256(payload).hexdigest()
        assert payload == expected and digest == header["sha256"], "wrong bytes read back"
    after = snapshot(deployment)
    cpu = {role: (after[role][0] - before[role][0]) / reads * 1e3 for role in after}
    faults = sum(after[role][1] - before[role][1] for role in after) / reads
    return statistics.median(walls) * 1e3, cpu, faults


def fit_beta(block, hops, first, last):
    """``(c_slice, c_byte, beta)`` from two ``(slices, helper CPU seconds per read)``."""
    (s1, cpu1), (s2, cpu2) = first, last
    c_slice = (cpu1 - cpu2) / hops / (s1 - s2)
    c_byte = (cpu1 / hops - s1 * c_slice) / block
    return c_slice, c_byte, c_slice / c_byte


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=9)
    parser.add_argument("--k", type=int, default=6)
    parser.add_argument("--block-mib", type=float, default=8.0)
    parser.add_argument(
        "--slices",
        default="32,64,128,256,512,1024,2048,model",
        help="slice sizes in KiB; 'model' lets the coordinator decide",
    )
    parser.add_argument("--reads", type=int, default=30)
    args = parser.parse_args()

    block = int(args.block_mib * KIB * KIB)
    payload = random.Random(21).randbytes(args.k * block)
    deployment = LocalDeployment(spec=DeploymentSpec.local(args.n + 1), scan=False)
    deployment.up()
    try:
        client = ServiceClient(deployment.gateway_addresses())

        async def session():
            await client.put(1, payload, {"family": "rs", "n": args.n, "k": args.k})
            await client.erase(1, 0)
            rows, points = [], []
            for label in args.slices.split(","):
                options = {"scheme": "rp", "force_repair": True}
                if label != "model":
                    options["slice_size"] = min(int(label) * KIB, block)
                await measure(deployment, client, 3, payload[:block], **options)  # warm
                row = await measure(deployment, client, args.reads, payload[:block], **options)
                rows.append((f"rp {label}", row))
                if label != "model":
                    points.append((-(-block // options["slice_size"]), row[1]["helper"] / 1e3))
            rows.append(("conventional", await measure(
                deployment, client, args.reads, payload[:block],
                scheme="conventional", force_repair=True)))
            await client.repair(1, [0])
            rows.append(("healthy", await measure(
                deployment, client, args.reads, payload[:block])))
            return rows, points

        rows, points = asyncio.run(session())
    finally:
        deployment.down()

    roles = ("helper", "gateway", "coordinator", "client")
    print(f"({args.n},{args.k}), {args.block_mib:g} MiB block, {args.reads} reads per row; "
          f"CPU in ms per read")
    print(f"{'read':<14}{'wall p50':>9}" + "".join(f"{role:>12}" for role in roles)
          + f"{'all roles':>11}{'minor faults':>14}")
    for label, (wall, cpu, faults) in rows:
        print(f"{label:<14}{wall:>9.1f}" + "".join(f"{cpu[role]:>12.1f}" for role in roles)
              + f"{sum(cpu.values()):>11.1f}{faults:>14.0f}")
    if len(points) >= 2 and points[0][0] != points[-1][0]:
        c_slice, c_byte, beta = fit_beta(block, args.k, points[0], points[-1])
        print(f"hop CPU at {points[0][0]} and {points[-1][0]} slices: c_slice {c_slice * 1e6:.0f} us, "
              f"c_byte {c_byte * 1e9:.2f} ns, beta {beta / KIB:.0f} KiB")


if __name__ == "__main__":
    main()
