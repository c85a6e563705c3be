"""A live ECPipe deployment in one script.

Boots a localhost service plane (coordinator + helper agents + gateway) in
this process, stores an object as a (9, 6) Reed-Solomon stripe, injects a
block loss, serves a degraded read through the pipelined repair chain, runs
a full repair with write-back, and finishes with a burst of seeded
closed-loop foreground reads -- the whole paper middleware, on real TCP
sockets, in a couple of seconds.

For a multi-process deployment driven from the shell, see the CLI::

    PYTHONPATH=src python -m repro.service up --helpers 9
    PYTHONPATH=src python -m repro.service put --stripe 1 --n 9 --k 6
    PYTHONPATH=src python -m repro.service erase --stripe 1 --block 2
    PYTHONPATH=src python -m repro.service read --stripe 1 --block 2
    PYTHONPATH=src python -m repro.service down

Scaling knobs: ``REPRO_SERVICE_HELPERS`` (default 9),
``REPRO_SERVICE_OBJECT`` (object bytes, default 3 MiB),
``REPRO_SERVICE_OPS`` (foreground reads, default 40).
"""

import asyncio
import hashlib
import random
import sys

from repro.cluster import DeploymentSpec
from repro.config import env_positive_int
from repro.service import LoadGenerator, LocalDeployment, ServiceClient


async def main() -> None:
    helpers = env_positive_int("REPRO_SERVICE_HELPERS", 9)
    object_size = env_positive_int("REPRO_SERVICE_OBJECT", 3 * 1024 * 1024)
    foreground_ops = env_positive_int("REPRO_SERVICE_OPS", 40)

    deployment = LocalDeployment(spec=DeploymentSpec.local(helpers))
    await deployment.start()
    print(f"deployment up: coordinator, {helpers} helpers, gateway (in-process)")
    try:
        client = ServiceClient(deployment.gateway_address)

        payload = random.Random(2017).randbytes(object_size)
        put = await client.put(1, payload, {"family": "rs", "n": 9, "k": 6})
        print(
            f"put: {object_size / 2**20:.1f} MiB object -> 9 blocks of "
            f"{put['block_size'] / 2**20:.2f} MiB (sha256 {put['sha256'][:16]}...)"
        )

        await client.erase(1, 2)
        block, header = await client.read_block(1, 2, scheme="rp", slice_size=65536)
        print(
            f"degraded read of lost block 2: repaired={header['repaired']}, "
            f"{len(block)} bytes, sha256 {header['sha256'][:16]}..."
        )

        repair = await client.repair(1, [2], scheme="rp", slice_size=65536)
        assert repair["sha256"]["2"] == header["sha256"]
        print("repair: block 2 reconstructed and written back to its node")

        roundtrip = await client.get(1)
        assert hashlib.sha256(roundtrip).hexdigest() == put["sha256"]
        print("get: object round-trips byte-exact")

        generator = LoadGenerator(
            deployment.gateway_address, {1: 6}, seed=7, concurrency=4, slice_size=65536
        )
        report = await generator.run(max_operations=foreground_ops)
        print(
            f"foreground load: {report.operations} closed-loop reads, "
            f"{report.errors} errors"
        )
        # Wall-clock-derived numbers vary run to run; keep stdout
        # deterministic (the repo's example contract) and report them on
        # stderr like the other examples do.
        print(
            f"  {report.throughput:.0f} ops/s, mean latency "
            f"{report.mean_latency * 1e3:.1f} ms, p95 "
            f"{report.latency_percentile(0.95) * 1e3:.1f} ms, "
            f"{report.degraded_reads} degraded",
            file=sys.stderr,
        )
    finally:
        await deployment.stop()
    print("deployment down (all sockets closed)")


if __name__ == "__main__":
    asyncio.run(main())
