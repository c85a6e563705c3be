"""What a node-recovery repair costs, by role -- the live full-node recovery.

Boots a process-mode deployment (one OS process per role, as perfbench and
the CLI do: (9, 6), ten helpers, ten stripes), and then, round after round,
erases every block one victim helper holds and drains the list with ``rp``
``REPAIR``s from ``--clients`` concurrent clients -- what perfbench's
``node-recovery`` workload does.  Every repair's reply digest is compared
with the SHA-256 of the block as encoded locally, and every round reads one
repaired block back; a wrong digest exits non-zero.

Per role (all helpers together, the gateway, the coordinator, this client)
it prints, *per repair*:

* CPU milliseconds, split user / system, from ``/proc/<pid>/stat`` -- the
  drain is CPU-bound on a box with fewer cores than hops, so this sum, not
  one role's wall clock, is what a change to the repair path must move;
* minor page faults (fresh buffers are faulted in);
* voluntary context switches from ``/proc/<pid>/status`` (how often a role
  went to sleep waiting for a frame -- the per-hop wake-ups).

and then the repair and victim-drain p50 and the recovery rate.  A ``REPAIR``
chain ends at the helper that stores the block, so the gateway's row is
control only (plan, locate, one ``CHAIN``, one ``OK``): a few milliseconds,
whatever the block size.  ``--block-mib 0.0625`` shows the per-chain fixed
cost (set-up, acks, wake-ups per hop) with the bytes taken out.

    PYTHONPATH=src python examples/recovery_cost.py
    PYTHONPATH=src python examples/recovery_cost.py --block-mib 0.0625 --rounds 6

Run it on parent and change, interleaved, before believing a claim: the
box's speed moves 20 % between minutes.  Linux only (``/proc``).
"""

import argparse
import asyncio
import hashlib
import os
import random
import statistics
import sys
import time

from repro.cluster import DeploymentSpec
from repro.codes import RSCode
from repro.service import LocalDeployment, ServiceClient
from repro.service.placement import rotated_placement

MIB = 1024 * 1024
TICK = os.sysconf("SC_CLK_TCK")
N, K, HELPERS, STRIPES = 9, 6, 10, 10
ROLES = ("helper", "gateway", "coordinator", "client")


def proc_cost(pid):
    """``(user s, system s, minor faults, voluntary switches)`` of one process so far."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    # After the command name: state is fields[0], so minflt is [7], utime [11], stime [12].
    with open(f"/proc/{pid}/status") as fh:
        switches = next(
            int(line.split()[1]) for line in fh if line.startswith("voluntary_ctxt_switches")
        )
    return int(fields[11]) / TICK, int(fields[12]) / TICK, int(fields[7]), switches


def snapshot(deployment):
    groups = {"client": [os.getpid()]}
    for handle in deployment.handles:
        groups.setdefault(handle.role, []).append(handle.pid)
    return {
        role: tuple(map(sum, zip(*(proc_cost(pid) for pid in pids))))
        for role, pids in groups.items()
    }


async def drain(client, lost, digests, clients):
    """Erase ``lost`` and repair it back; ``(repair seconds, drain seconds)``."""
    for stripe, block in lost:
        await client.erase(stripe, block)
    queue, walls = list(reversed(lost)), []

    async def drain_client():
        while queue:
            stripe, block = queue.pop()
            began = time.perf_counter()
            reply = await client.repair(stripe, [block], scheme="rp")
            walls.append(time.perf_counter() - began)
            if reply["sha256"].get(str(block)) != digests[stripe][block]:
                sys.exit(f"repair of {stripe}.{block}: digest mismatch")

    began = time.perf_counter()
    await asyncio.gather(*(drain_client() for _ in range(clients)))
    took = time.perf_counter() - began
    # The store landed: one repaired block reads back healthy.
    stripe, block = lost[0]
    payload, header = await client.read_block(stripe, block)
    if header["repaired"] or hashlib.sha256(payload).hexdigest() != digests[stripe][block]:
        sys.exit(f"block {stripe}.{block} is not readable after its repair")
    return walls, took


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--block-mib", type=float, default=2.0)
    parser.add_argument("--clients", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=8, help="victims drained, after one warm-up")
    args = parser.parse_args()

    block = int(args.block_mib * MIB)
    rng = random.Random(23)
    code = RSCode(N, K)
    spec = DeploymentSpec.local(HELPERS)
    deployment = LocalDeployment(spec=spec, scan=False)
    deployment.up()
    try:
        client = ServiceClient(deployment.gateway_addresses())

        async def session():
            digests = []
            for stripe in range(STRIPES):
                payload = rng.randbytes(K * block)
                view = memoryview(payload)
                coded = code.encode([view[i * block:(i + 1) * block] for i in range(K)])
                digests.append([hashlib.sha256(b).hexdigest() for b in coded])
                await client.put(stripe, payload, {"family": "rs", "n": N, "k": K})
            victims = rng.sample(spec.helpers, len(spec.helpers))
            lost = {
                victim: [
                    (stripe, index)
                    for stripe in range(STRIPES)
                    for index, node in rotated_placement(stripe, N, spec.helpers).items()
                    if node == victim
                ]
                for victim in victims
            }
            await drain(client, lost[victims[-1]], digests, args.clients)  # warm
            repairs, drains, count = [], [], 0
            before = snapshot(deployment)
            for round_ in range(args.rounds):
                victim = victims[round_ % len(victims)]
                walls, took = await drain(client, lost[victim], digests, args.clients)
                repairs += walls
                drains.append((took, len(lost[victim])))
                count += len(lost[victim])
            return before, snapshot(deployment), repairs, drains, count

        before, after, repairs, drains, count = asyncio.run(session())
    finally:
        deployment.down()

    print(f"({N},{K}), {HELPERS} helpers, {STRIPES} stripes of {args.block_mib:g} MiB blocks, "
          f"{args.clients} client(s), {args.rounds} victim(s) drained: {count} repairs, "
          f"every digest checked; per repair")
    print(f"{'role':<12}{'CPU ms':>9}{'user':>8}{'sys':>8}{'minor faults':>14}{'vol. switches':>15}")
    totals = [0.0] * 4
    for role in ROLES:
        user, system, faults, switches = (
            (a - b) / count for a, b in zip(after[role], before[role])
        )
        row = ((user + system) * 1e3, user * 1e3, system * 1e3, faults, switches)
        totals = [t + r for t, r in zip(totals, row[1:])]
        print(f"{role:<12}{row[0]:>9.1f}{row[1]:>8.1f}{row[2]:>8.1f}{row[3]:>14.0f}{row[4]:>15.1f}")
    print(f"{'all':<12}{totals[0] + totals[1]:>9.1f}{totals[0]:>8.1f}{totals[1]:>8.1f}"
          f"{totals[2]:>14.0f}{totals[3]:>15.1f}")
    moved = sum(n for _, n in drains) * block / 1e6
    print(f"repair p50 {statistics.median(repairs) * 1e3:.1f} ms, "
          f"victim drain p50 {statistics.median(t for t, _ in drains) * 1e3:.1f} ms, "
          f"recovery {moved / sum(t for t, _ in drains):.1f} MB/s")


if __name__ == "__main__":
    main()
