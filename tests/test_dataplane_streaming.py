"""The streaming data plane: chunked PUT/GET, placement, multi-gateway.

Everything here boots real in-process deployments and drives the chunked
transfer paths with deliberately tiny transfer chunks (``REPRO_CHUNK_SIZE``)
and, where useful, a shrunken ``MAX_FRAME``, so objects larger than a frame
-- the whole reason the streaming plane exists -- are exercised in
milliseconds instead of gigabytes.
"""

import asyncio
import hashlib
import socket

import numpy as np
import pytest

import repro.service.protocol as protocol
from repro.cluster import DeploymentSpec
from repro.codes import RSCode
from repro.gf.gf256 import gf_mulsum_into, gf_mulsum_stacked
from repro.service import LocalDeployment, ServiceClient
from repro.service.coordinator import CoordinatorServer
from repro.service.gateway import Gateway
from repro.service.placement import rotated_placement
from repro.service.protocol import (
    Op,
    chunk_size_from_env,
    request,
    transfer_timeout,
)
from conftest import random_payload


def run(coro):
    return asyncio.run(coro)


async def booted(num_helpers, gateways=1):
    spec = DeploymentSpec.local(num_helpers, gateways=gateways)
    deployment = LocalDeployment(spec=spec)
    await deployment.start()
    return deployment


# ------------------------------------------------------------------ placement
class TestRotatedPlacement:
    def test_rotates_by_stripe_id(self):
        nodes = [f"n{i}" for i in range(5)]
        p0 = rotated_placement(0, 5, nodes)
        p2 = rotated_placement(2, 5, nodes)
        assert p0 == {i: f"n{i}" for i in range(5)}
        assert p2[0] == "n2" and p2[4] == "n1"

    def test_consecutive_stripes_spread_block0(self):
        # The old placement pinned block i on sorted node i for every
        # stripe, hot-spotting node0 with every block-0 replica.  Rotation
        # must spread block 0 across all nodes over n consecutive stripes.
        nodes = [f"n{i}" for i in range(5)]
        holders = {rotated_placement(s, 5, nodes)[0] for s in range(5)}
        assert holders == set(nodes)

    def test_each_stripe_is_still_a_bijection(self):
        nodes = [f"n{i}" for i in range(7)]
        for stripe_id in range(9):
            placement = rotated_placement(stripe_id, 7, nodes)
            assert sorted(placement) == list(range(7))
            assert sorted(placement.values()) == sorted(nodes)

    def test_stacking_rejected_by_default(self):
        with pytest.raises(ValueError, match="stack"):
            rotated_placement(1, 5, ["a", "b", "c"])

    def test_live_put_places_rotated(self, rng):
        payload = random_payload(rng, 30000)

        async def scenario():
            deployment = await booted(5)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(2, payload, {"family": "rs", "n": 5, "k": 3})
                coordinator = deployment.coordinator_address
                expected = rotated_placement(2, 5, [f"node{i}" for i in range(5)])
                for block, node in expected.items():
                    reply = await request(
                        *coordinator, Op.LOCATE, {"stripe_id": 2, "block": block}
                    )
                    assert reply.header["node"] == node
            finally:
                await deployment.stop()

        run(scenario())


# ----------------------------------------------------------- protocol knobs
class TestTransferKnobs:
    def test_transfer_timeout_scales_with_bytes(self):
        floor = transfer_timeout(0)
        assert floor == pytest.approx(protocol.TRANSFER_TIMEOUT_FLOOR)
        # 1 GiB at the 1 MiB/s floor bandwidth adds 1024 seconds.
        assert transfer_timeout(1 << 30) == pytest.approx(floor + 1024.0)

    def test_chunk_size_default_and_clamp(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_SIZE", raising=False)
        assert chunk_size_from_env() == protocol.DEFAULT_CHUNK_SIZE
        monkeypatch.setenv("REPRO_CHUNK_SIZE", str(1 << 40))
        # Clamped under MAX_FRAME with headroom for the frame header.
        assert chunk_size_from_env() < protocol.MAX_FRAME
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "4096")
        assert chunk_size_from_env() == 4096


# ------------------------------------------------------------ encode kernels
class TestSegmentEncode:
    def test_gf_mulsum_stacked_matches_into(self, rng):
        rnd = np.random.default_rng(20170712)
        rows = [rnd.integers(0, 256, 5000, dtype=np.uint8) for _ in range(4)]
        coeffs = [3, 0, 1, 200]
        expected = np.empty(5000, dtype=np.uint8)
        gf_mulsum_into(coeffs, [r.tobytes() for r in rows], expected)
        out = np.empty(5000, dtype=np.uint8)
        gf_mulsum_stacked(coeffs, np.stack(rows), out)
        assert bytes(out) == bytes(expected)

    def test_gf_mulsum_stacked_strided_columns(self):
        # The gateway hands in non-contiguous column slices of a (k, L)
        # view; the kernel must not assume contiguity.
        rnd = np.random.default_rng(7)
        data = rnd.integers(0, 256, (3, 4096), dtype=np.uint8)
        window = data[:, 1000:3000]
        out = np.empty(2000, dtype=np.uint8)
        gf_mulsum_stacked([9, 30, 77], window, out)
        expected = np.empty(2000, dtype=np.uint8)
        gf_mulsum_into(
            [9, 30, 77], [window[i].tobytes() for i in range(3)], expected
        )
        assert bytes(out) == bytes(expected)

    def test_encode_into_segments_equal_whole_block_encode(self, rng):
        # The property the chunked PUT path rests on: a systematic linear
        # code encodes segment-by-segment identically to one-shot.
        code = RSCode(6, 4)
        block = 10000
        payload = random_payload(rng, 4 * block)
        data = np.frombuffer(payload, dtype=np.uint8).reshape(4, block)
        whole = code.encode([data[i].tobytes() for i in range(4)])
        outs = [np.empty(block, dtype=np.uint8) for _ in range(6)]
        segment = 1234  # deliberately not a divisor of the block size
        for off in range(0, block, segment):
            stop = min(off + segment, block)
            code.encode_into(
                data[:, off:stop], [out[off:stop] for out in outs]
            )
        for i in range(6):
            assert bytes(outs[i]) == whole[i].tobytes()


# ----------------------------------------------------------- chunked objects
class TestChunkedRoundTrip:
    CHUNK = 4096

    def _client(self, deployment, chunk=None):
        return ServiceClient(
            deployment.gateway_addresses(),
            chunk_size=self.CHUNK if chunk is None else chunk,
        )

    @pytest.mark.parametrize(
        "size",
        [
            3 * 4096 - 1,  # one byte under the chunked threshold per block
            3 * 4096 + 1,  # just over: first size that streams
            10 * 4096 + 37,  # several chunks, ragged tail
        ],
    )
    def test_round_trip_straddles_chunk_boundary(self, rng, monkeypatch, size):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", str(self.CHUNK))
        payload = random_payload(rng, size)

        async def scenario():
            deployment = await booted(5)
            try:
                client = self._client(deployment)
                reply = await client.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                assert reply["sha256"] == hashlib.sha256(payload).hexdigest()
                back = await client.get(1)
                assert hashlib.sha256(back).hexdigest() == hashlib.sha256(payload).hexdigest()
                assert back == payload
            finally:
                await deployment.stop()

        run(scenario())

    def test_object_larger_than_max_frame(self, rng, monkeypatch):
        # Shrink MAX_FRAME so "an object no single frame could ever carry"
        # costs kilobytes: 512 KiB object against a 256 KiB frame ceiling
        # (large enough to keep chunk_size_from_env's header headroom from
        # clamping the gateway's chunk to nothing).
        monkeypatch.setattr(protocol, "MAX_FRAME", 256 * 1024)
        monkeypatch.setenv("REPRO_CHUNK_SIZE", str(16 * 1024))
        payload = random_payload(rng, 512 * 1024 + 3)

        async def scenario():
            deployment = await booted(5)
            try:
                client = ServiceClient(
                    deployment.gateway_addresses(), chunk_size=16 * 1024
                )
                await client.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                back = await client.get(1)
                assert back == payload
            finally:
                await deployment.stop()

        run(scenario())

    def test_degraded_chunked_get(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", str(self.CHUNK))
        payload = random_payload(rng, 9 * 4096 + 11)

        async def scenario():
            deployment = await booted(5)
            try:
                client = self._client(deployment)
                await client.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                await client.erase(1, 1)
                back = await client.get(1)
                assert back == payload
                stats = await client.stat()
                assert sum(stats["repairs_completed"].values()) >= 1
            finally:
                await deployment.stop()

        run(scenario())

    def test_chunked_and_single_frame_stripes_byte_identical(self, rng, monkeypatch):
        # The regression that pins segment-wise encoding to the legacy
        # whole-block encode: the same payload stored through the
        # single-frame PUT and the chunked PUT_OPEN stream must land
        # byte-identical blocks (data AND parity) on the helpers.
        monkeypatch.setenv("REPRO_CHUNK_SIZE", str(self.CHUNK))
        payload = random_payload(rng, 8 * 4096 + 123)

        async def scenario():
            deployment = await booted(5)
            try:
                single = self._client(deployment, chunk=1 << 30)  # never streams
                chunked = self._client(deployment)  # always streams
                await single.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                await chunked.put(2, payload, {"family": "rs", "n": 5, "k": 3})
                for block in range(5):
                    a, _ = await single.read_block(1, block)
                    b, _ = await chunked.read_block(2, block)
                    assert a == b, f"block {block} differs between put paths"
            finally:
                await deployment.stop()

        run(scenario())


# ------------------------------------------------------- zero-copy PUT spread
class TestZeroCopySpread:
    """The gateway streams systematic blocks as views of its object buffer."""

    CHUNK = 4099  # the gateway's encode segment is ceil(4099 / 3) = 1367, odd
    SPEC = {"family": "rs", "n": 5, "k": 3}

    @staticmethod
    def _expected_blocks(payload):
        code = RSCode(5, 3)
        block = -(-len(payload) // code.k)
        padded = payload + bytes(code.k * block - len(payload))
        return [
            coded.tobytes()
            for coded in code.encode(
                [padded[i * block:(i + 1) * block] for i in range(code.k)]
            )
        ]

    @staticmethod
    def _encodes_observed(deployment):
        (gateway,) = (s for s in deployment._servers if isinstance(s, Gateway))
        return gateway.registry.snapshot()['gateway_encode_seconds_count{role="gateway"}']

    def test_both_wire_forms_store_the_whole_block_encode(self, rng, monkeypatch):
        # Not a multiple of k, so the last systematic block carries padding;
        # every other segment of a block starts at an odd offset.
        monkeypatch.setenv("REPRO_CHUNK_SIZE", str(self.CHUNK))
        payload = random_payload(rng, 7 * 4096 + 6)
        assert len(payload) % 3
        expected = self._expected_blocks(payload)

        async def scenario():
            deployment = await booted(5)
            try:
                single = ServiceClient(deployment.gateway_addresses(), chunk_size=1 << 30)
                chunked = ServiceClient(deployment.gateway_addresses(), chunk_size=self.CHUNK)
                for puts, (stripe_id, client) in enumerate(((1, single), (2, chunked)), 1):
                    await client.put(stripe_id, payload, self.SPEC)
                    assert self._encodes_observed(deployment) == puts
                    for index in range(5):
                        stored, header = await client.read_block(stripe_id, index)
                        assert not header["repaired"]
                        assert stored == expected[index], (stripe_id, index)
            finally:
                await deployment.stop()

        run(scenario())

    def test_overwrite_never_aliases_an_earlier_put_buffer(self, rng, monkeypatch):
        # Keep every PUT's padded object buffer alive, as a slow transport
        # would: the views streamed out of the first must not change when
        # the same stripe is written again, and the second PUT's blocks must
        # come from its own bytes only.
        monkeypatch.setenv("REPRO_CHUNK_SIZE", str(self.CHUNK))
        first = random_payload(rng, 6 * 4096 + 1)
        second = random_payload(rng, 6 * 4096 + 1)
        held = []
        stripe_buffer = Gateway._stripe_buffer

        def holding(header, size):
            code, padded = stripe_buffer(header, size)
            held.append(padded)
            return code, padded

        monkeypatch.setattr(Gateway, "_stripe_buffer", staticmethod(holding))

        async def scenario():
            deployment = await booted(5)
            try:
                client = ServiceClient(deployment.gateway_addresses(), chunk_size=self.CHUNK)
                await client.put(1, first, self.SPEC)
                await client.put(1, second, self.SPEC)
                assert len(held) == 2 and held[0] is not held[1]
                assert bytes(held[0][: len(first)]) == first
                assert bytes(held[1][: len(second)]) == second
                expected = self._expected_blocks(second)
                for index in range(5):
                    stored, _ = await client.read_block(1, index)
                    assert stored == expected[index], index
                assert await client.get(1) == second
            finally:
                await deployment.stop()

        run(scenario())


# ------------------------------------------------------------- multi-gateway
class TestMultiGateway:
    def test_deployment_boots_n_gateways(self):
        async def scenario():
            deployment = await booted(5, gateways=3)
            try:
                addresses = deployment.gateway_addresses()
                assert len(addresses) == len(set(addresses)) == 3
                reply = await request(
                    *deployment.coordinator_address, Op.GATEWAYS, {}
                )
                assert len(reply.header["gateways"]) == 3
            finally:
                await deployment.stop()

        run(scenario())

    def test_round_robin_spreads_requests(self, rng):
        payload = random_payload(rng, 30000)

        async def scenario():
            deployment = await booted(5, gateways=2)
            try:
                client = ServiceClient(deployment.gateway_addresses())
                await client.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                for _ in range(4):
                    assert await client.get(1) == payload
                served = [
                    server.stat()["frames"].get("GET", 0)
                    for server in deployment._servers
                    if isinstance(server, Gateway)
                ]
                assert len(served) == 2
                # 4 round-robined GETs over 2 gateways: both serve some.
                assert all(count >= 2 for count in served)
            finally:
                await deployment.stop()

        run(scenario())

    def test_failover_survives_a_dead_gateway(self, rng):
        payload = random_payload(rng, 30000)

        async def scenario():
            deployment = await booted(5, gateways=2)
            try:
                client = ServiceClient(deployment.gateway_addresses())
                await client.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                victim = next(
                    s for s in deployment._servers if isinstance(s, Gateway)
                )
                await victim.abort()
                # Every rotation position must now fail over to the live one.
                for _ in range(4):
                    assert await client.get(1) == payload
            finally:
                await deployment.stop()

        run(scenario())

    def test_port_plan_backwards_compatible_and_extended(self):
        spec = DeploymentSpec.local(3, base_port=9000)
        assert spec.gateway_port() == 9001
        assert spec.helper_port(0) == 9002
        multi = DeploymentSpec.local(3, base_port=9000, gateways=2)
        assert multi.gateway_port(0) == 9001
        assert multi.gateway_port(1) == 9002
        assert multi.helper_port(0) == 9003
        assert multi.coordinator_port() == 9000
        assert multi.helper_port(2) == 9005

    def test_spec_dict_round_trip_defaults_old_state_to_one(self):
        spec = DeploymentSpec.local(3, gateways=2)
        assert DeploymentSpec.from_dict(spec.to_dict()).gateways == 2
        legacy = spec.to_dict()
        del legacy["gateways"]
        assert DeploymentSpec.from_dict(legacy).gateways == 1


# --------------------------------------------------- registration durability
class TestGatewayRegistration:
    def test_registers_retroactively_and_after_restart(self):
        async def scenario():
            # Boot the coordinator only to learn a free port, then stop it:
            # the gateway must boot fine with its coordinator down and
            # register in the background once it appears.
            coordinator = CoordinatorServer("127.0.0.1", 0)
            await coordinator.start()
            host, port = coordinator.address
            await coordinator.stop()

            gateway = Gateway((host, port), "127.0.0.1", 0)
            await gateway.start()
            try:
                assert not gateway.registered
                coordinator = CoordinatorServer(host, port)
                await coordinator.start()
                try:
                    for _ in range(100):
                        if gateway.registered:
                            break
                        await asyncio.sleep(0.05)
                    assert gateway.registered
                    assert coordinator.stat()["gateways"] == 1
                finally:
                    await coordinator.stop()
            finally:
                await gateway.stop()

        run(scenario())

    def test_reregisters_after_coordinator_restart(self):
        async def scenario():
            coordinator = CoordinatorServer("127.0.0.1", 0)
            await coordinator.start()
            host, port = coordinator.address
            gateway = Gateway((host, port), "127.0.0.1", 0)
            gateway.announce_interval = 0.1
            await gateway.start()
            try:
                assert gateway.registered
                await coordinator.stop()
                # Same port, empty in-memory store: the restarted
                # coordinator knows nothing until the announce loop runs.
                coordinator = CoordinatorServer(host, port)
                await coordinator.start()
                try:
                    for _ in range(100):
                        if coordinator.stat()["gateways"]:
                            break
                        await asyncio.sleep(0.05)
                    assert coordinator.stat()["gateways"] == 1
                finally:
                    await coordinator.stop()
            finally:
                await gateway.stop()

        run(scenario())


# ------------------------------------------------------- repair accounting
class TestRepairAccounting:
    def test_requested_vs_executed_scheme(self, rng):
        # With k=1 the repair chain has a single hop, which the coordinator
        # serves conventionally (a 1-hop chain IS a block push); the gateway
        # must account the override honestly on both counters.
        payload = random_payload(rng, 5000)

        async def scenario():
            deployment = await booted(2)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, payload, {"family": "rs", "n": 2, "k": 1})
                await client.erase(1, 0)
                block, header = await client.read_block(1, 0, scheme="rp")
                assert header["repaired"]
                assert block == payload
                stats = await client.stat()
                assert stats["repairs_requested"] == {"rp": 1}
                assert stats["repairs_completed"] == {"conventional": 1}
            finally:
                await deployment.stop()

        run(scenario())

    def test_normal_chain_counts_match(self, rng):
        payload = random_payload(rng, 30000)

        async def scenario():
            deployment = await booted(5)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                await client.erase(1, 0)
                await client.read_block(1, 0, scheme="rp")
                stats = await client.stat()
                assert stats["repairs_requested"] == {"rp": 1}
                assert stats["repairs_completed"] == {"rp": 1}
            finally:
                await deployment.stop()

        run(scenario())


# ------------------------------------------------- streamed read backpressure
class TestStreamedReadBackpressure:
    """The sink awaits the reader: a slow reader slows the chain, a gone one aborts it."""

    BLOCK = 16 * 1024 * 1024  # more than the kernel's socket buffers can swallow
    SLICE = 64 * 1024
    N, K = 4, 2

    async def _degraded_stripe(self, rng):
        deployment = await booted(self.N)
        payload = rng.randbytes(self.K * self.BLOCK)  # random_payload is per-byte: 2 s here
        client = ServiceClient(deployment.gateway_address)
        await client.put(1, payload, {"family": "rs", "n": self.N, "k": self.K})
        await client.erase(1, 0)
        return deployment, client, payload[: self.BLOCK]

    async def _open_read(self, deployment, **options):
        """A ``READ_BLOCK`` over a socket whose receive buffer is small and fixed."""
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, deployment.gateway_address)
        reader, writer = await asyncio.open_connection(sock=sock, limit=64 * 1024)
        writer.write(
            protocol.encode_frame(
                Op.READ_BLOCK,
                {"stripe_id": 1, "block": 0, "scheme": "rp", "slice_size": self.SLICE, **options},
            )
        )
        await writer.drain()
        opened = await asyncio.wait_for(protocol.read_frame(reader), 10.0)
        assert opened.op == Op.OK and opened.header["stream"]
        return reader, writer

    @staticmethod
    def _held_bytes(gateway):
        """Payload bytes the gateway holds in user space, over all its connections."""
        return sum(
            channel._queued_bytes + channel._transport.get_write_buffer_size()
            for channel in gateway._connections.values()
        )

    @staticmethod
    async def _stalled(gateway):
        """Wait until the one delivery in flight has stopped moving; it."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 20.0
        seen, since = -1, loop.time()
        while True:
            assert loop.time() < deadline, "the chain never stalled"
            await asyncio.sleep(0.05)
            deliveries = list(gateway.requestor._deliveries.values())
            delivered = deliveries[0].delivered if deliveries else -1
            if delivered != seen:
                seen, since = delivered, loop.time()
            elif delivered > 0 and loop.time() - since >= 0.5:
                return deliveries[0]

    def test_a_stalled_reader_stalls_the_chain_not_the_gateways_memory(self, rng):
        async def scenario():
            deployment, client, expected = await self._degraded_stripe(rng)
            try:
                gateway = deployment._servers[-1]
                reader, writer = await self._open_read(deployment)
                # The reader reads nothing.  Stalled, not slow: no slice has
                # moved for half a second, well short of the block, and what
                # waits in the gateway is the channel's queue marks plus the
                # slice in hand -- a fraction of the block.
                delivery = await self._stalled(gateway)
                assert delivery.delivered < delivery.plan.num_slices
                held = self._held_bytes(gateway)
                assert held <= protocol.QUEUE_HIGH_BYTES + 2 * self.SLICE < self.BLOCK // 2
                digest, received = hashlib.sha256(), 0
                while True:
                    frame = await asyncio.wait_for(protocol.read_frame(reader), 10.0)
                    if frame.op == Op.GET_END:
                        break
                    assert frame.op == Op.GET_CHUNK and frame.header["off"] == received
                    digest.update(frame.payload)
                    received += len(frame.payload)
                writer.close()
                assert received == self.BLOCK
                assert frame.header["sha256"] == digest.hexdigest()
                assert digest.hexdigest() == hashlib.sha256(expected).hexdigest()
                assert gateway.requestor.stat()["pending_deliveries"] == 0
            finally:
                await deployment.stop()

        run(scenario())

    def test_stop_does_not_wait_for_a_reader_that_never_reads(self, rng):
        # A handler cut off mid-stream drops its unsent bytes with the
        # connection; flushing them to a stalled peer would hold stop() for
        # as long as the peer cares to stall.
        async def scenario():
            deployment, client, expected = await self._degraded_stripe(rng)
            reader, writer = await self._open_read(deployment)
            try:
                await self._stalled(deployment._servers[-1])
            finally:
                began = asyncio.get_running_loop().time()
                await asyncio.wait_for(deployment.stop(), 30.0)
            writer.close()
            return asyncio.get_running_loop().time() - began

        assert run(scenario()) < 10.0

    def test_a_helper_killed_mid_chain_ends_the_stream_and_a_retry_excluding_it_works(self, rng):
        async def scenario():
            deployment, client, expected = await self._degraded_stripe(rng)
            try:
                gateway = deployment._servers[-1]
                # Not greedy: the chain is blocks 1 and 2, in that order.
                holder = rotated_placement(1, self.N, [f"node{i}" for i in range(self.N)])[2]
                reader, writer = await self._open_read(deployment, greedy=False)
                frames = [await asyncio.wait_for(protocol.read_frame(reader), 10.0)]
                # One chunk in, and the reader's pace holds the chain back:
                # the last hop dies with most of the block still to come.
                await deployment.crash_role("helper", holder)
                while frames[-1] is not None and frames[-1].op != Op.ERROR:
                    frames.append(await asyncio.wait_for(protocol.read_frame(reader), 10.0))
                assert [f.op for f in frames[:-1]] == [Op.GET_CHUNK] * (len(frames) - 1)
                assert 0 < len(frames) - 1 < self.BLOCK // self.SLICE  # mid-stream
                assert frames[-1].op == Op.ERROR
                # After ERROR the gateway hangs up: nothing more, then EOF.
                assert await asyncio.wait_for(protocol.read_frame(reader), 10.0) is None
                writer.close()
                assert gateway.requestor.stat()["pending_deliveries"] == 0
                with pytest.raises(protocol.RemoteError):
                    # Still planned through the dead helper: fails before a stream opens.
                    await client.read_block(1, 0, slice_size=self.SLICE, greedy=False)
                block, header = await client.read_block(
                    1, 0, slice_size=self.SLICE, greedy=False, exclude=[holder]
                )
                assert block == expected and header["repaired"]
                assert header["sha256"] == hashlib.sha256(expected).hexdigest()
            finally:
                await deployment.stop()

        run(scenario())

    def test_a_reader_that_goes_away_aborts_the_chain(self, rng):
        async def scenario():
            deployment, client, expected = await self._degraded_stripe(rng)
            try:
                gateway = deployment._servers[-1]
                helpers = [s for s in deployment._servers if s.role == "helper"]
                reader, writer = await self._open_read(deployment)
                await asyncio.wait_for(protocol.read_frame(reader), 10.0)  # one chunk
                writer.transport.abort()
                deadline = asyncio.get_running_loop().time() + 10.0
                while gateway.requestor.stat()["pending_deliveries"]:
                    assert asyncio.get_running_loop().time() < deadline, "chain not aborted"
                    await asyncio.sleep(0.02)
                # The delivery handler failed on the reader's dead socket,
                # the last hop got ERROR and the ack cascade failed upwards.
                assert gateway.handler_errors_total.value(op="DELIVER_OPEN") == 1
                assert gateway.handler_errors_total.value(op="READ_BLOCK") == 1
                assert sum(h.handler_errors_total.value(op="CHAIN") for h in helpers) == self.K
                assert gateway.requestor.stat()["repairs_completed"] == {}
                block, header = await client.read_block(1, 0, slice_size=self.SLICE)
                assert block == expected and header["repaired"]
            finally:
                await deployment.stop()

        run(scenario())


# ------------------------------------------------- the storing chain's failures
class TestStoringChainFailures:
    """A ``REPAIR`` chain that breaks stores nothing, counts nothing, and can be retried."""

    BLOCK = 16 * 1024 * 1024  # hundreds of slices: time to die mid-chain
    SLICE = 64 * 1024
    N, K = 4, 2
    KEY = "stripe1.block0"

    async def _degraded_stripe(self, rng):
        deployment = await booted(self.N)
        payload = rng.randbytes(self.K * self.BLOCK)
        client = ServiceClient(deployment.gateway_address)
        await client.put(1, payload, {"family": "rs", "n": self.N, "k": self.K})
        await client.erase(1, 0)
        placement = rotated_placement(1, self.N, [f"node{i}" for i in range(self.N)])
        agents = {
            index: next(s for s in deployment._servers if getattr(s, "node", None) == node)
            for index, node in placement.items()
        }
        return deployment, client, payload[: self.BLOCK], agents

    def test_a_helper_killed_mid_chain_fails_the_repair_and_a_retry_excluding_it_stores(self, rng):
        async def scenario():
            deployment, client, expected, agents = await self._degraded_stripe(rng)
            try:
                gateway = deployment._servers[-1]
                # Not greedy: the chain is blocks 1 and 2, in that order, and
                # its last hop dies a quarter of the way through the block.
                target, last = agents[0], agents[2]
                read_slice, crashes = last.helper.read_slice, []

                def dying(key, offset, length):
                    if offset >= self.BLOCK // 4 and not crashes:
                        crashes.append(
                            asyncio.ensure_future(deployment.crash_role("helper", last.node))
                        )
                    return read_slice(key, offset, length)

                last.helper.read_slice = dying
                with pytest.raises(protocol.RemoteError):
                    await asyncio.wait_for(
                        client.repair(1, [0], slice_size=self.SLICE, greedy=False), 30.0
                    )
                await asyncio.gather(*crashes)
                # The target saw the stream open and die: nothing committed,
                # nothing visible, and the gateway counted no repair.
                assert target.handler_errors_total.value(op="PUT_BLOCK_OPEN") == 1
                assert not target.helper.has_block(self.KEY)
                has = await request(*target.address, Op.HAS_BLOCK, {"key": self.KEY})
                assert not has.header["present"]
                assert gateway.handler_errors_total.value(op="REPAIR") == 1
                stat = await client.stat()
                assert stat["repairs_requested"] == {} and stat["repairs_completed"] == {}
                assert stat["pending_deliveries"] == 0
                reply = await client.repair(
                    1, [0], slice_size=self.SLICE, greedy=False, exclude=[last.node]
                )
                assert reply["sha256"]["0"] == hashlib.sha256(expected).hexdigest()
                assert target.helper.read_block(self.KEY) == expected
                assert (await client.stat())["repairs_completed"] == {"rp": 1}
            finally:
                await deployment.stop()

        run(scenario())

    def test_a_target_that_is_down_fails_the_repair_fast(self, rng):
        async def scenario():
            deployment, client, expected, agents = await self._degraded_stripe(rng)
            try:
                await agents[0].stop()
                with pytest.raises(protocol.RemoteError):
                    await asyncio.wait_for(client.repair(1, [0], slice_size=self.SLICE), 10.0)
                stat = await client.stat()
                assert stat["repairs_requested"] == {} and stat["repairs_completed"] == {}
                # The gateway keeps serving, and a reader still gets the block.
                block, header = await client.read_block(1, 0, slice_size=self.SLICE)
                assert block == expected and header["repaired"]
            finally:
                await deployment.stop()

        run(scenario())

    FORGED = {
        "out-of-order": ([(Op.BLOCK_CHUNK, {"off": 8}, bytes(8))], "out-of-order chunk"),
        "overflowing": (
            [(Op.BLOCK_CHUNK, {"off": 0}, bytes(8)), (Op.BLOCK_CHUNK, {"off": 8}, bytes(9))],
            "overflows announced size",
        ),
        "short-end": (
            [(Op.BLOCK_CHUNK, {"off": 0}, bytes(8)), (Op.BLOCK_END, {}, b"")],
            "ended short",
        ),
    }

    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_a_forged_store_stream_commits_nothing(self, case):
        script, message = self.FORGED[case]

        async def scenario():
            deployment = await booted(1)
            try:
                helper = next(s for s in deployment._servers if s.role == "helper")
                channel = await protocol.open_channel(*helper.address)
                try:
                    await protocol.write_frame(
                        channel, Op.PUT_BLOCK_OPEN, {"key": "k", "size": 16, "digest": True}
                    )
                    for op, header, payload in script:
                        await protocol.write_frame(channel, op, header, payload)
                    reply = await asyncio.wait_for(channel.read_frame(), 5.0)
                    assert reply.op == Op.ERROR and message in reply.header["message"]
                    assert await asyncio.wait_for(channel.read_frame(), 5.0) is None
                finally:
                    await protocol.close_writer(channel)
                assert not helper.helper.has_block("k")
                assert "k" not in helper.helper.block_keys()  # the heartbeat inventory
                has = await request(*helper.address, Op.HAS_BLOCK, {"key": "k"})
                assert not has.header["present"]
            finally:
                await deployment.stop()

        run(scenario())

    @pytest.mark.parametrize("digest", [False, True])
    def test_the_store_streams_digest_is_opt_in(self, rng, digest):
        payload = random_payload(rng, 3000)

        async def scenario():
            deployment = await booted(1)
            try:
                helper = next(s for s in deployment._servers if s.role == "helper")
                opener = {"key": "k", "size": len(payload)}
                if digest:
                    opener["digest"] = True
                reply = await protocol.upload_stream(
                    *helper.address, protocol.BLOCK_UPLOAD, opener, payload, 1024
                )
                assert helper.helper.read_block("k") == payload
                return reply.header
            finally:
                await deployment.stop()

        expected = {"stored": len(payload)}
        if digest:
            expected["sha256"] = hashlib.sha256(payload).hexdigest()
        assert run(scenario()) == expected
