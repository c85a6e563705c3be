"""Unit coverage for the service plane's building blocks.

Framing, the transport-agnostic chain state machines, the zero-copy GF
kernels and the code/deployment spec plumbing -- everything below the
sockets.  The live end-to-end behaviour is covered by ``test_service.py``.
"""

import asyncio
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DeploymentSpec
from repro.codes import LRCCode, RSCode, RotatedRSCode, code_from_spec, code_to_spec
from repro.core import RepairRequest, StripeInfo
from repro.ecpipe import (
    BlockAssembler,
    ChainHop,
    Helper,
    SliceChainPlan,
    combine_partials,
    split_packed,
)
from repro.gf.gf256 import (
    as_uint8,
    gf_accumulate_into,
    gf_mul_bytes,
    gf_mul_into,
    gf_mulsum_bytes,
    gf_mulsum_into,
)
from repro.service.coordinator import MIN_SLICE_SIZE
from repro.service.deployment import LocalDeployment
from repro.obs.trace import TraceContext
from repro.service.client import ServiceClient
from repro.service.gateway import Gateway
from repro.service.protocol import (
    BLOCK_UPLOAD,
    JOIN_BELOW,
    MAX_FRAME,
    OBJECT_DOWNLOAD,
    OBJECT_UPLOAD,
    QUEUE_HIGH_BYTES,
    QUEUE_HIGH_FRAMES,
    STAGE_SIZE,
    Frame,
    FrameChannel,
    Op,
    ProtocolError,
    RemoteError,
    decode_frame,
    encode_frame,
    read_frame,
    receive_chunks,
    request,
    send_chunks,
    write_frame,
)
from conftest import random_payload


# --------------------------------------------------------------------- framing
class TestFraming:
    def test_round_trip(self):
        wire = encode_frame(Op.PUT_BLOCK, {"key": "stripe1.block2"}, b"payload")
        frame = decode_frame(wire[4:])
        assert frame.op == Op.PUT_BLOCK
        assert frame.header == {"key": "stripe1.block2"}
        assert frame.payload == b"payload"

    def test_empty_header_and_payload(self):
        frame = decode_frame(encode_frame(Op.PING)[4:])
        assert frame == Frame(Op.PING, {}, b"")

    def test_unknown_opcode_rejected(self):
        wire = bytearray(encode_frame(Op.PING))
        wire[4] = 250
        with pytest.raises(ProtocolError):
            decode_frame(bytes(wire[4:]))

    def test_truncated_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"\x01")

    def test_header_length_beyond_body_rejected(self):
        wire = bytearray(encode_frame(Op.PING, {"a": 1}))
        wire[5:7] = (0xFF, 0xFF)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(wire[4:]))

    def test_non_object_header_rejected(self):
        import json
        import struct

        header = json.dumps([1, 2]).encode()
        body = struct.pack("!BH", int(Op.PING), len(header)) + header
        with pytest.raises(ProtocolError):
            decode_frame(body)

    def test_oversized_header_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame(Op.PING, {"pad": "x" * 70000})

    def test_stream_round_trip(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(Op.SLICE, {"s": 3}, b"\x01\x02"))
            reader.feed_eof()
            from repro.service.protocol import read_frame

            frame = await read_frame(reader)
            assert frame == Frame(Op.SLICE, {"s": 3}, b"\x01\x02")
            assert await read_frame(reader) is None

        asyncio.run(run())

    def test_mid_frame_eof_raises(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(Op.PING)[:5])
            reader.feed_eof()
            from repro.service.protocol import read_frame

            with pytest.raises(ProtocolError):
                await read_frame(reader)

        asyncio.run(run())


# ----------------------------------------------------------- zero-copy kernels
class TestZeroCopyKernels:
    def test_as_uint8_is_zero_copy_for_bytearray(self):
        buf = bytearray(b"\x01\x02\x03")
        view = as_uint8(buf)
        view[0] = 9
        assert buf[0] == 9

    def test_as_uint8_memoryview(self):
        data = bytes(range(16))
        assert bytes(as_uint8(memoryview(data)[4:8])) == data[4:8]

    def test_gf_mul_into_matches_mul_bytes(self, rng):
        data = random_payload(rng, 257)
        out = bytearray(len(data))
        for coeff in (0, 1, 2, 37, 255):
            gf_mul_into(coeff, data, out)
            assert bytes(out) == gf_mul_bytes(coeff, data).tobytes()

    def test_gf_mul_into_length_mismatch(self):
        with pytest.raises(ValueError):
            gf_mul_into(3, b"ab", bytearray(3))

    def test_gf_accumulate_into_matches_mulsum(self, rng):
        a = random_payload(rng, 100)
        b = random_payload(rng, 100)
        out = bytearray(a)
        gf_accumulate_into(out, 7, b)
        assert bytes(out) == gf_mulsum_bytes([1, 7], [a, b]).tobytes()

    def test_gf_accumulate_zero_coeff_is_noop(self, rng):
        a = random_payload(rng, 64)
        out = bytearray(a)
        gf_accumulate_into(out, 0, random_payload(rng, 64))
        assert bytes(out) == a

    def test_gf_mulsum_into_matches_mulsum_bytes(self, rng):
        coeffs = [3, 0, 1, 99]
        buffers = [random_payload(rng, 128) for _ in coeffs]
        out = bytearray(128)
        gf_mulsum_into(coeffs, buffers, out)
        assert bytes(out) == gf_mulsum_bytes(coeffs, buffers).tobytes()

    def test_gf_mulsum_into_reads_memoryviews(self, rng):
        payload = random_payload(rng, 256)
        view = memoryview(payload)
        halves = [view[:128], view[128:]]
        out = bytearray(128)
        gf_mulsum_into([1, 1], halves, out)
        assert bytes(out) == gf_mulsum_bytes([1, 1], [payload[:128], payload[128:]]).tobytes()

    def test_encode_accepts_memoryviews(self, rng, rs_9_6):
        payload = random_payload(rng, 6 * 512)
        view = memoryview(payload)
        blocks_views = [view[i * 512:(i + 1) * 512] for i in range(6)]
        blocks_bytes = [payload[i * 512:(i + 1) * 512] for i in range(6)]
        from_views = rs_9_6.encode(blocks_views)
        from_bytes = rs_9_6.encode(blocks_bytes)
        for a, b in zip(from_views, from_bytes):
            assert np.array_equal(a, b)


# ------------------------------------------------------------------ chain plan
def build_chain(code, failed, slice_size, block_size=4096, cyclic=False):
    stripe = StripeInfo(code, {i: f"n{i:02d}" for i in range(code.n)}, stripe_id=7)
    request = RepairRequest(stripe, failed, "client", block_size, slice_size)
    path = sorted(set(range(code.k + 1)) - set(failed))[: code.k]
    plan = code.repair_plan(list(failed), path)
    return SliceChainPlan.build(request, path, plan, cyclic=cyclic)


class TestSliceChainPlan:
    def test_wire_round_trip(self, rs_9_6):
        chain = build_chain(rs_9_6, [2], 1000)
        assert SliceChainPlan.from_dict(chain.to_dict()) == chain

    def test_slice_layout_covers_block(self, rs_14_10):
        chain = build_chain(rs_14_10, [0], 1000, block_size=4096)
        layout = chain.slice_layout()
        assert layout[0] == (0, 1000)
        assert sum(size for _, size in layout) == 4096
        assert chain.block_size == 4096
        assert chain.num_slices == math.ceil(4096 / 1000)

    def test_hop_order_linear(self, rs_9_6):
        chain = build_chain(rs_9_6, [1], 512)
        assert chain.hop_order(0) == chain.hop_order(5) == list(range(6))

    def test_hop_order_cyclic_rotates(self, rs_9_6):
        chain = build_chain(rs_9_6, [1], 512, cyclic=True)
        k = len(chain.hops)
        orders = {tuple(chain.hop_order(s)) for s in range(k - 1)}
        assert len(orders) == k - 1  # k-1 distinct rotations
        for s in range(k - 1):
            assert sorted(chain.hop_order(s)) == list(range(k))

    def test_coefficient_lookup(self, rs_9_6):
        chain = build_chain(rs_9_6, [2], 512)
        plan = rs_9_6.repair_plan([2], [hop.block_index for hop in chain.hops])
        for hop in chain.hops:
            assert chain.coefficient(2, hop.block_index) == plan.coefficient_for(
                2, hop.block_index
            )
        with pytest.raises(KeyError):
            chain.coefficient(2, 99)

    def test_validation(self):
        hop = ChainHop(0, "n00", "k")
        with pytest.raises(ValueError):
            SliceChainPlan(1, (), (hop,), (), (10,))
        with pytest.raises(ValueError):
            SliceChainPlan(1, (3,), (hop,), ((1,), (2,)), (10,))
        with pytest.raises(ValueError):
            SliceChainPlan(1, (3,), (hop,), ((1, 2),), (10,))
        with pytest.raises(ValueError):
            SliceChainPlan(1, (3,), (hop,), ((1,),), ())
        with pytest.raises(ValueError):
            SliceChainPlan(1, (3,), (hop,), ((1,),), (0,))
        with pytest.raises(ValueError):
            SliceChainPlan(1, (3,), (hop,), ((1,),), (10,), cyclic=True)


class TestCombinePartials:
    def test_matches_helper_combine_single_failure(self, rng):
        local1 = random_payload(rng, 100)
        local2 = random_payload(rng, 100)
        packed = combine_partials(None, [7], local1)
        packed = combine_partials(packed, [9], local2)
        expected = Helper.combine(Helper.combine(None, 7, local1), 9, local2)
        assert bytes(packed) == expected

    def test_matches_helper_combine_multi_failure(self, rng):
        local = random_payload(rng, 64)
        packed = combine_partials(None, [3, 5], local)
        sections = split_packed(bytes(packed), 2)
        assert sections[0] == Helper.combine(None, 3, local)
        assert sections[1] == Helper.combine(None, 5, local)

    def test_incoming_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            combine_partials(bytearray(10), [1, 2], random_payload(rng, 10))

    def test_split_packed_validation(self):
        with pytest.raises(ValueError):
            split_packed(b"abc", 2)
        with pytest.raises(ValueError):
            split_packed(b"abcd", 0)


class TestBlockAssembler:
    def test_out_of_order_assembly(self, rng):
        parts = [random_payload(rng, 10), random_payload(rng, 10), random_payload(rng, 4)]
        assembler = BlockAssembler([10, 10, 4])
        assembler.add(2, parts[2])
        assert not assembler.complete
        assembler.add(0, parts[0])
        assembler.add(1, parts[1])
        assert assembler.complete
        assert assembler.assemble() == b"".join(parts)

    def test_rejects_duplicates_and_bad_sizes(self):
        assembler = BlockAssembler([4, 4])
        assembler.add(0, b"abcd")
        with pytest.raises(ValueError):
            assembler.add(0, b"abcd")
        with pytest.raises(ValueError):
            assembler.add(1, b"toolong!")
        with pytest.raises(ValueError):
            assembler.add(5, b"abcd")
        with pytest.raises(KeyError):
            assembler.assemble()


# ----------------------------------------------------------------- code specs
class TestCodeRegistry:
    @pytest.mark.parametrize(
        "code",
        [
            RSCode(9, 6),
            RSCode(14, 10, construction="cauchy"),
            LRCCode(12, 2, 2),
            RotatedRSCode(9, 6),
        ],
        ids=["rs", "rs-cauchy", "lrc", "rotated"],
    )
    def test_round_trip(self, code, rng):
        rebuilt = code_from_spec(code_to_spec(code))
        assert type(rebuilt) is type(code)
        assert (rebuilt.n, rebuilt.k) == (code.n, code.k)
        data = [random_payload(rng, 256) for _ in range(code.k)]
        for a, b in zip(code.encode(data), rebuilt.encode(data)):
            assert np.array_equal(a, b)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            code_from_spec({"family": "fountain", "n": 9, "k": 6})
        with pytest.raises(ValueError):
            code_from_spec({"n": 9, "k": 6})


# ------------------------------------------------------------ deployment spec
class TestDeploymentSpec:
    def test_port_plan_with_base_port(self):
        spec = DeploymentSpec.local(3, base_port=9000)
        assert spec.coordinator_port() == 9000
        assert spec.gateway_port() == 9001
        assert [spec.helper_port(i) for i in range(3)] == [9002, 9003, 9004]

    def test_ephemeral_plan(self):
        spec = DeploymentSpec.local(2)
        planned = [spec.coordinator_port(), spec.gateway_port()]
        planned += [spec.helper_port(i) for i in range(2)]
        assert set(planned) == {0}

    def test_round_trip(self):
        spec = DeploymentSpec.local(4, cluster_spec=ClusterSpec(network_bandwidth=1e9))
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_simulation_cluster_matches_helpers(self):
        spec = DeploymentSpec.local(5)
        cluster = spec.degraded_cluster()
        assert cluster.node_names() == list(spec.helpers)
        assert cluster.spec == spec.cluster_spec

    def test_validation(self):
        with pytest.raises(ValueError):
            DeploymentSpec(helpers=[])
        with pytest.raises(ValueError):
            DeploymentSpec(helpers=["a", "a"])
        with pytest.raises(ValueError):
            DeploymentSpec(helpers=["a"], host="")
        with pytest.raises(ValueError):
            DeploymentSpec(helpers=["a"], base_port=-4)
        with pytest.raises(ValueError):
            DeploymentSpec(helpers=["a"], base_port=65535)
        with pytest.raises(ValueError):
            DeploymentSpec.local(0)


# ------------------------------------------------------------ chunk streams
class TestChunkStreams:
    """The one OPEN / CHUNK{off} / END codec every streamed transfer uses."""

    SIZE = 10
    STREAMS = {
        "object-upload": OBJECT_UPLOAD,
        "block-upload": BLOCK_UPLOAD,
        "object-download": OBJECT_DOWNLOAD,
    }

    @staticmethod
    def violations(ops):
        """name -> (frames after the opener, bytes accepted before the error)."""
        chunk = lambda off, n: encode_frame(ops.chunk, {"off": off}, b"x" * n)
        return {
            "out-of-order-off": ([chunk(0, 4), chunk(6, 4)], 4),
            "overflow-past-size": ([chunk(0, 8), chunk(8, 8)], 8),
            "end-short-of-size": ([chunk(0, 4), encode_frame(ops.end)], 4),
            "eof-mid-stream": ([chunk(0, 4)], 4),
            "unexpected-op": ([chunk(0, 4), encode_frame(Op.PING)], 4),
        }

    @staticmethod
    async def receive(ops, size, frames):
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(frames))
        reader.feed_eof()
        landed = []
        end = await receive_chunks(
            reader, ops, size, lambda offset, chunk: landed.append((offset, chunk))
        )
        return end, landed

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize(
        "violation", sorted(violations.__func__(OBJECT_UPLOAD))
    )
    def test_receiver_rejects_naming_ops_and_offset(self, stream, violation):
        ops = self.STREAMS[stream]
        frames, accepted = self.violations(ops)[violation]
        with pytest.raises(ProtocolError) as raised:
            asyncio.run(self.receive(ops, self.SIZE, frames))
        message = str(raised.value)
        assert "/".join(op.name for op in ops) in message
        assert f"at offset {accepted} of {self.SIZE}" in message

    def test_sender_and_receiver_round_trip(self, rng):
        payload = random_payload(rng, 1000)

        class Collect:
            def __init__(self):
                self.wire = []

            def write(self, data):
                self.wire.append(bytes(data))

            async def drain(self):
                pass

        async def scenario():
            writer = Collect()
            sent = await send_chunks(writer, BLOCK_UPLOAD, payload[:300], 128)
            sent = await send_chunks(writer, BLOCK_UPLOAD, payload[300:], 128, sent)
            assert sent == len(payload)
            # 300 bytes = 3 frames, 700 bytes = 6 frames, none above 128.
            assert len(writer.wire) == 9
            frames = writer.wire + [encode_frame(BLOCK_UPLOAD.end, {"done": 1})]
            return await self.receive(BLOCK_UPLOAD, len(payload), frames)

        end, landed = asyncio.run(scenario())
        assert end.header == {"done": 1}
        assert max(len(chunk) for _, chunk in landed) == 128
        offset = 0
        for at, chunk in landed:
            assert at == offset
            offset += len(chunk)
        assert b"".join(chunk for _, chunk in landed) == payload

    # One failed stream per kind against live roles: the role must answer
    # ERROR, close the connection (queued chunk frames must never be
    # dispatched as top-level requests), count the failure under the
    # *opening* op and record that op's span with ``error`` set.
    LIVE = {
        "PUT_OPEN": (
            "gateway",
            {"stripe_id": 1, "code": {"family": "rs", "n": 3, "k": 2}, "size": 64},
            OBJECT_UPLOAD.chunk,
        ),
        "PUT_BLOCK_OPEN": ("helper", {"key": "stripe1.block0", "size": 64}, BLOCK_UPLOAD.chunk),
        "GET": ("gateway", {"stripe_id": 404}, Op.PING),
        "DELIVER_OPEN": ("gateway", {"request_id": "nobody-asked"}, Op.DELIVER),
    }

    @pytest.mark.parametrize("opener", sorted(LIVE))
    def test_failed_stream_is_poisoned_and_accounted(self, opener):
        role, header, follow_up = self.LIVE[opener]
        op = Op[opener]

        async def scenario():
            deployment = LocalDeployment(spec=DeploymentSpec.local(3))
            await deployment.start()
            try:
                server = next(s for s in deployment._servers if s.role == role)
                before = server.handler_errors_total.value(op=opener)
                reader, writer = await asyncio.open_connection(*server.address)
                try:
                    trace = {"trace": TraceContext.root().to_header()}
                    writer.write(encode_frame(op, {**header, **trace}))
                    # Out of order for the uploads; for GET / DELIVER_OPEN the
                    # opener itself fails and this frame is left queued.
                    writer.write(encode_frame(follow_up, {"off": 32, "s": 0}, b"x" * 8))
                    writer.write(encode_frame(Op.PING))
                    await writer.drain()
                    reply = await asyncio.wait_for(read_frame(reader), 5.0)
                    assert reply is not None and reply.op == Op.ERROR
                    assert await asyncio.wait_for(read_frame(reader), 5.0) is None
                finally:
                    writer.close()
                assert server.handler_errors_total.value(op=opener) == before + 1
                spans = [s for s in server.spans.spans() if s["op"] == opener]
                assert spans and spans[-1].get("error")
                # The poisoned connection took nobody else down.
                assert (await request(*server.address, Op.PING)).op == Op.OK
            finally:
                await deployment.stop()

        asyncio.run(scenario())

    def test_client_rejects_get_overflow_at_the_chunk(self):
        # A lying gateway streams past the size it announced and never sends
        # GET_END: the client must give up at the overflowing chunk.
        async def lying_gateway(reader, writer):
            await read_frame(reader)
            writer.write(encode_frame(Op.OK, {"stream": True, "size": 10}))
            writer.write(encode_frame(Op.GET_CHUNK, {"off": 0}, b"x" * 8))
            writer.write(encode_frame(Op.GET_CHUNK, {"off": 8}, b"x" * 8))
            await writer.drain()
            await reader.read()  # hold the stream open until the client leaves
            writer.close()

        async def scenario():
            server = await asyncio.start_server(lying_gateway, "127.0.0.1", 0)
            try:
                client = ServiceClient(server.sockets[0].getsockname()[:2])
                with pytest.raises(ProtocolError, match="overflows announced size"):
                    await asyncio.wait_for(client.get(1), 5.0)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


    def test_client_raises_remote_error_when_a_block_stream_ends_in_error(self):
        # A gateway whose chain died mid-stream ends the stream with ERROR
        # and hangs up; read_block surfaces that as RemoteError.
        async def failing_gateway(reader, writer):
            await read_frame(reader)
            writer.write(encode_frame(Op.OK, {"stream": True, "size": 10, "block": 0}))
            writer.write(encode_frame(Op.GET_CHUNK, {"off": 0}, b"x" * 4))
            writer.write(encode_frame(Op.ERROR, {"message": "RemoteError: hop 3 is gone"}))
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(failing_gateway, "127.0.0.1", 0)
            try:
                client = ServiceClient(server.sockets[0].getsockname()[:2])
                with pytest.raises(RemoteError, match="hop 3 is gone"):
                    await asyncio.wait_for(client.read_block(1, 0), 5.0)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


# ------------------------------------------------------------- live fuzzing
class TestLiveServerFuzz:
    """Hostile bytes against live role servers.

    The contract under fuzzing is narrow but absolute: a server answers a
    malformed or lying frame with ``ERROR`` or closes that one connection --
    it never hangs the caller, never crashes, and never stops serving other
    connections.  Each case fires the hostile bytes at the coordinator, one
    helper and the gateway, then proves the victim still answers a clean
    ``PING`` on a fresh connection.
    """

    #: Seconds after which a silent server counts as hung.
    PATIENCE = 5.0

    @staticmethod
    def hostile_frames():
        import struct as _struct

        lying_header = bytearray(encode_frame(Op.PING, {"a": 1}))
        lying_header[5:7] = _struct.pack("!H", 0xFFFF)  # header_len > body
        return {
            "truncated-mid-frame": _struct.pack("!I", 64) + b"short",
            "oversized-length": _struct.pack("!I", MAX_FRAME + 1) + b"\x00" * 16,
            "zero-length-frame": _struct.pack("!I", 0),
            "garbage-opcode": _struct.pack("!I", 3) + _struct.pack("!BH", 250, 0),
            "lying-header-length": bytes(lying_header),
            "header-not-json": _struct.pack("!I", 8) + _struct.pack("!BH", 2, 5) + b"{oops",
            "pure-noise": bytes(range(256))[::-1] * 4,
        }

    async def _booted(self):
        from repro.cluster import DeploymentSpec as _Spec

        deployment = LocalDeployment(spec=_Spec.local(2))
        await deployment.start()
        return deployment

    def _victims(self, deployment):
        helpers = deployment.helper_addresses()
        return {
            "coordinator": deployment.coordinator_address,
            "helper": helpers[sorted(helpers)[0]],
            "gateway": deployment.gateway_address,
        }

    async def _poke(self, address, wire):
        """Send hostile bytes; the reply must be ERROR, EOF or a reset."""
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(wire)
            try:
                await writer.drain()
                writer.write_eof()
            except (ConnectionError, OSError):
                return  # server already slammed the door: acceptable
            try:
                frame = await asyncio.wait_for(read_frame(reader), self.PATIENCE)
            except (ProtocolError, ConnectionError, OSError, asyncio.IncompleteReadError):
                return  # closed mid-reply: acceptable
            assert frame is None or frame.op == Op.ERROR
        finally:
            writer.close()

    @pytest.mark.parametrize("case", sorted(hostile_frames.__func__()))
    def test_malformed_bytes_never_wedge_a_server(self, case):
        wire = self.hostile_frames()[case]

        async def scenario():
            deployment = await self._booted()
            try:
                for role, address in self._victims(deployment).items():
                    await self._poke(address, wire)
                    # The serve loop survived: a fresh connection still works.
                    reply = await asyncio.wait_for(
                        request(*address, Op.PING, {}), self.PATIENCE
                    )
                    assert reply.op == Op.OK, f"{role} died after {case}"
            finally:
                await deployment.stop()

        asyncio.run(scenario())

    def test_handler_errors_answer_error_and_keep_the_connection(self):
        # A well-formed frame whose *header* lies (missing keys) must come
        # back as ERROR on the same connection -- log-and-answer, not
        # teardown -- and the connection must still serve afterwards.
        async def scenario():
            deployment = await self._booted()
            try:
                for op, address in (
                    (Op.GET_BLOCK, list(self._victims(deployment).values())[1]),
                    (Op.LOCATE, deployment.coordinator_address),
                    (Op.READ_BLOCK, deployment.gateway_address),
                ):
                    reader, writer = await asyncio.open_connection(*address)
                    try:
                        writer.write(encode_frame(op, {}))  # required keys absent
                        await writer.drain()
                        frame = await asyncio.wait_for(
                            read_frame(reader), self.PATIENCE
                        )
                        assert frame is not None and frame.op == Op.ERROR
                        # Same connection, clean frame: still served.
                        writer.write(encode_frame(Op.PING, {}))
                        await writer.drain()
                        frame = await asyncio.wait_for(
                            read_frame(reader), self.PATIENCE
                        )
                        assert frame is not None and frame.op == Op.OK
                    finally:
                        writer.close()
            finally:
                await deployment.stop()

        asyncio.run(scenario())

    def test_metrics_op_survives_hostile_headers(self):
        # METRICS is handled inline in the serve loop; whatever the header
        # or payload claims, every role must answer OK with parseable
        # exposition text and keep serving.
        from repro.obs.metrics import parse_exposition

        hostile_headers = [
            {},
            {"role": 123, "junk": ["a", {"b": None}]},
            {"trace": "not-a-mapping"},
            {"trace": {"trace_id": "x" * 4096, "span_id": ""}},
        ]

        async def scenario():
            deployment = await self._booted()
            try:
                for role, address in self._victims(deployment).items():
                    for header in hostile_headers:
                        reply = await asyncio.wait_for(
                            request(*address, Op.METRICS, header, b"\xff" * 64),
                            self.PATIENCE,
                        )
                        assert reply.op == Op.OK, f"{role} rejected {header}"
                        samples = parse_exposition(
                            reply.payload.decode("utf-8")
                        )
                        assert any(
                            name.startswith("frames_total") for name in samples
                        ), f"{role} served no frames_total"
                    reply = await asyncio.wait_for(
                        request(*address, Op.PING, {}), self.PATIENCE
                    )
                    assert reply.op == Op.OK
            finally:
                await deployment.stop()

        asyncio.run(scenario())

    def test_ranged_get_block_rejects_a_negative_length(self):
        # The length of a ranged GET_BLOCK is a peer-supplied integer; a
        # negative one inside the block's bounds is an ERROR reply, and the
        # connection serves on.
        async def scenario():
            deployment = await self._booted()
            try:
                helpers = deployment.helper_addresses()
                address = helpers[sorted(helpers)[0]]
                await request(*address, Op.PUT_BLOCK, {"key": "stripe9.block0"}, bytes(16))
                reader, writer = await asyncio.open_connection(*address)
                try:
                    writer.write(
                        encode_frame(
                            Op.GET_BLOCK, {"key": "stripe9.block0", "offset": 10, "length": -5}
                        )
                    )
                    writer.write(
                        encode_frame(
                            Op.GET_BLOCK, {"key": "stripe9.block0", "offset": 10, "length": 5}
                        )
                    )
                    await writer.drain()
                    frame = await asyncio.wait_for(read_frame(reader), self.PATIENCE)
                    assert frame.op == Op.ERROR
                    assert "slice [10, 5) outside block of 16 bytes" in frame.header["message"]
                    frame = await asyncio.wait_for(read_frame(reader), self.PATIENCE)
                    assert frame.op == Op.OK and frame.payload == bytes(5)
                finally:
                    writer.close()
            finally:
                await deployment.stop()

        asyncio.run(scenario())

    def test_zero_length_payloads_are_served_not_fatal(self):
        # Zero bytes is a legal payload everywhere a payload is legal.
        async def scenario():
            deployment = await self._booted()
            try:
                helpers = deployment.helper_addresses()
                address = helpers[sorted(helpers)[0]]
                reply = await request(
                    *address, Op.PUT_BLOCK, {"key": "stripe9.block0"}, b""
                )
                assert reply.op == Op.OK
                reply = await request(
                    *address, Op.GET_BLOCK, {"key": "stripe9.block0"}
                )
                assert reply.payload == b""
            finally:
                await deployment.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------- the channel
class FakeTransport:
    """A socket-free transport that *keeps references*, as Python 3.12's does.

    ``write()`` stores the very object it was given (3.11 and older copy what
    the socket did not take; 3.12 keeps a view of it), so :meth:`flushed` is
    what the peer would receive if nothing had left the process yet.
    """

    def __init__(self):
        self.writes = []
        self.reading = True
        self.closed = False

    def write(self, data):
        self.writes.append(data)

    def flushed(self):
        return b"".join(bytes(data) for data in self.writes)

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    abort = close

    def get_extra_info(self, name):
        return None


def connected_channel():
    channel, transport = FrameChannel(), FakeTransport()
    channel.connection_made(transport)
    return channel, transport


def feed(channel, data):
    """Deliver ``data`` the way a transport does: into ``get_buffer()``'s memory."""
    view = memoryview(data)
    while len(view):
        buffer = channel.get_buffer(-1)
        assert len(buffer) > 0, "get_buffer() offered no room"
        taken = min(len(buffer), len(view))
        buffer[:taken] = view[:taken]
        channel.buffer_updated(taken)
        view = view[taken:]


async def drain_frames(channel):
    """Every frame the channel holds (it must not have to wait for one)."""
    frames = []
    while channel._frames:
        frames.append(await channel.read_frame())
    return frames


def stream_outcome(wire):
    """What the stream flavour of ``read_frame`` makes of ``wire`` + EOF."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        frames = []
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return frames, None
                frames.append(frame)
        except ProtocolError as exc:
            return frames, str(exc)

    return asyncio.run(run())


def channel_outcome(wire, pieces=None):
    """What a channel makes of ``wire`` + EOF, fed in ``pieces``-sized steps."""

    async def run():
        channel, transport = connected_channel()
        frames, position, step = [], 0, 0
        while position < len(wire):
            size = pieces[step % len(pieces)] if pieces else len(wire)
            feed(channel, wire[position:position + size])
            position, step = position + size, step + 1
            if not transport.reading:  # back-pressure: consume, as a handler would
                frames += await drain_frames(channel)
            if channel._error is not None:
                break
        channel.eof_received()
        try:
            while True:
                frame = await read_frame(channel)
                if frame is None:
                    return frames, None, transport
                frames.append(frame)
        except ProtocolError as exc:
            return frames, str(exc), transport

    return asyncio.run(run())


PAYLOAD_SIZES = (0, 1, STAGE_SIZE - 1, STAGE_SIZE, STAGE_SIZE + 1, 2 * 1024 * 1024)
HEADERS = ({}, {"key": "stripe1.block2", "off": 7}, {"pad": "x" * 60_000})


@st.composite
def chopped_wire(draw):
    """A frame sequence on the wire and the step sizes to deliver it in."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    frames = [
        encode_frame(
            draw(st.sampled_from(list(Op))),
            draw(st.sampled_from(HEADERS)),
            rng.randbytes(draw(st.sampled_from(PAYLOAD_SIZES))),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    wire = b"".join(frames)
    # One byte at a time for sequences of small frames, many frames per
    # update at the other end; the floor bounds the feeding loop.
    floor = max(1, len(wire) // 60_000)
    ceiling = draw(st.sampled_from((1, 9, 4096, STAGE_SIZE, 8 * 1024 * 1024)))
    pieces = draw(st.lists(st.integers(1, max(1, ceiling)), min_size=1, max_size=8))
    return frames, wire, [max(floor, piece) for piece in pieces]


class TestFrameChannel:
    """The receive-into frame parser and join-free writer, without a socket."""

    @settings(max_examples=60, deadline=None)
    @given(chopped_wire())
    def test_any_chopping_yields_the_frames_decode_frame_yields(self, case):
        frames, wire, pieces = case
        got, error, _ = channel_outcome(wire, pieces)
        assert error is None
        assert got == [decode_frame(frame[4:]) for frame in frames]
        assert all(isinstance(frame.payload, bytearray) for frame in got)

    def test_one_byte_at_a_time_and_all_at_once(self, rng):
        frames = [
            encode_frame(Op.CHAIN, {"pad": "x" * 60_000}, b""),
            encode_frame(Op.SLICE, {"s": 1}, random_payload(rng, 1000)),
            encode_frame(Op.PING),
        ]
        expected = [decode_frame(frame[4:]) for frame in frames]
        wire = b"".join(frames)
        assert channel_outcome(wire, [1])[:2] == (expected, None)
        assert channel_outcome(wire * 3)[:2] == (expected * 3, None)

    def test_large_payload_is_received_in_place(self, rng):
        # Past the stage, the transport is handed the payload's own memory:
        # the frame's bytearray is the buffer the bytes were received into.
        payload = random_payload(rng, 2 * STAGE_SIZE)
        wire = encode_frame(Op.PUT_BLOCK, {"key": "k"}, payload)
        start = len(wire) - len(payload)
        channel, _ = connected_channel()
        feed(channel, wire[:start + STAGE_SIZE])
        target = channel.get_buffer(-1)
        assert len(target) == len(payload) - STAGE_SIZE
        feed(channel, wire[start + STAGE_SIZE:])
        (frame,) = asyncio.run(drain_frames(channel))
        assert frame.payload == payload and target.obj is frame.payload

    def test_an_announced_size_alone_commits_no_memory(self):
        # The payload's buffer is allocated once a stage-full of it has
        # arrived, not when ten bytes claim that megabytes will follow.
        channel, _ = connected_channel()
        announced = 8 * 1024 * 1024
        head = struct.pack("!IBH", 5 + announced, int(Op.PUT_BLOCK), 2) + b"{}"
        feed(channel, head + bytes(STAGE_SIZE - 1))
        assert channel._body is None and len(channel.get_buffer(-1)) == 1
        feed(channel, b"\x00")
        assert len(channel._body) == announced

    @staticmethod
    def malformed():
        hostile = TestLiveServerFuzz.hostile_frames()
        good = encode_frame(Op.PUT_BLOCK, {"key": "stripe1.block2"}, b"payload")
        not_object = b"[1]"
        return {
            "oversized-length": hostile["oversized-length"],
            "zero-length-frame": hostile["zero-length-frame"] + b"\x00" * 8,
            "lying-header-length": hostile["lying-header-length"],
            "unknown-opcode": hostile["garbage-opcode"],
            "header-not-json": hostile["header-not-json"],
            "header-not-object": struct.pack("!IBH", 3 + len(not_object), 2, len(not_object))
            + not_object,
            "pure-noise": hostile["pure-noise"],
            "eof-mid-prefix": good + good[:3],
            "eof-mid-header": good + good[:12],
            "eof-mid-payload": good + good[:-2],
        }

    @pytest.mark.parametrize("case", sorted(malformed.__func__()))
    @pytest.mark.parametrize("pieces", ([1], None), ids=["bytewise", "at-once"])
    def test_malformed_input_fails_as_the_stream_flavour_does(self, case, pieces):
        wire = self.malformed()[case]
        frames, error = stream_outcome(wire)
        assert error is not None
        got, got_error, transport = channel_outcome(wire, pieces)
        assert (got, got_error) == (frames, error)
        assert transport.closed

    def test_a_doomed_frame_is_rejected_before_its_body_arrives(self):
        # The stream flavour reads all 64 announced bytes first; the channel
        # gives up as soon as the prefix cannot be a frame.
        wire = TestLiveServerFuzz.hostile_frames()["truncated-mid-frame"]
        assert stream_outcome(wire) == ([], "connection closed mid-frame")
        frames, error, transport = channel_outcome(wire)
        assert (frames, error) == ([], "unknown opcode 115") and transport.closed

    def test_reading_pauses_at_the_marks_and_resumes_at_half(self):
        async def scenario():
            channel, transport = connected_channel()
            slice_frame = encode_frame(Op.SLICE, {"s": 0}, b"x" * 100)
            feed(channel, slice_frame * (QUEUE_HIGH_FRAMES - 1))
            assert transport.reading
            feed(channel, slice_frame)
            assert not transport.reading
            for _ in range(QUEUE_HIGH_FRAMES // 2 - 1):
                await channel.read_frame()
            assert not transport.reading
            await channel.read_frame()
            assert transport.reading
            await drain_frames(channel)

            chunk = encode_frame(Op.PUT_CHUNK, {"off": 0}, bytes(QUEUE_HIGH_BYTES // 2))
            feed(channel, chunk)
            assert transport.reading
            feed(channel, chunk)
            assert not transport.reading
            await channel.read_frame()
            assert transport.reading

        asyncio.run(scenario())

    def test_small_frames_are_joined_and_large_payloads_handed_over(self, rng):
        async def scenario():
            channel, transport = connected_channel()
            small = random_payload(rng, JOIN_BELOW)
            large = bytearray(random_payload(rng, JOIN_BELOW + 1))
            await write_frame(channel, Op.SLICE, {"s": 0}, small)
            await write_frame(channel, Op.SLICE, {"s": 1}, large)
            await write_frame(channel, Op.PING)
            assert [type(data) for data in transport.writes] == [
                bytes, bytes, memoryview, bytes
            ]
            assert transport.writes[2].obj is large  # no copy, no join
            assert transport.flushed() == (
                encode_frame(Op.SLICE, {"s": 0}, small)
                + encode_frame(Op.SLICE, {"s": 1}, bytes(large))
                + encode_frame(Op.PING)
            )

        asyncio.run(scenario())

    def test_a_floor_sized_slice_is_one_write_and_a_chunk_is_never_joined(self, rng):
        # One write per slice frame at the model's floor (and at every
        # explicit 64 KiB slice); a transfer chunk is still handed over.
        async def scenario():
            channel, transport = connected_channel()
            piece = bytearray(random_payload(rng, MIN_SLICE_SIZE))
            await write_frame(channel, Op.SLICE, {"s": 7}, piece)
            assert len(transport.writes) == 1
            assert transport.flushed() == encode_frame(Op.SLICE, {"s": 7}, bytes(piece))
            chunk = bytearray(2 * 1024 * 1024)
            await write_frame(channel, Op.GET_CHUNK, {"off": 0}, chunk)
            assert len(transport.writes) == 3 and transport.writes[2].obj is chunk

        asyncio.run(scenario())

    def test_put_spread_never_rewrites_a_buffer_it_handed_over(self, rng):
        # The gateway encodes a block's parity segment by segment.  A
        # transport may still hold a *reference* to segment j when segment
        # j + 1 is encoded, so every segment needs memory of its own: were
        # the parity buffers reused, what these transports would flush is
        # the last segment's parity over and over.
        # Segments of JOIN_BELOW + 1 bytes are the smallest the channel
        # hands over instead of joining; a block is three of them.
        segment = JOIN_BELOW + 1
        block = 3 * segment
        payload = random_payload(rng, 3 * block)
        code = RSCode(5, 3)
        expected = [
            coded.tobytes()
            for coded in code.encode([payload[i * block:(i + 1) * block] for i in range(3)])
        ]
        transports = []

        class Leases:
            def lease(self, host, port, peer):
                channel, transport = connected_channel()
                transports.append(transport)
                feed(channel, encode_frame(Op.OK, {"stored": block}))
                return _Lease(channel)

        class _Lease:
            def __init__(self, channel):
                self.channel = channel

            async def __aenter__(self):
                return self.channel

            async def __aexit__(self, *exc):
                return False

        async def scenario():
            gateway = Gateway(("127.0.0.1", 1), chunk_size=3 * segment)
            gateway.pool = Leases()
            helpers = {f"n{i}": ("127.0.0.1", 7000 + i) for i in range(5)}
            await gateway._spread_chunked(
                9, code, bytearray(payload), block, helpers, {i: f"n{i}" for i in range(5)}
            )

        asyncio.run(scenario())
        assert len(transports) == 5
        for index, transport in enumerate(transports):
            frames = channel_outcome(transport.flushed())[0]
            assert [frame.op for frame in frames[:1] + frames[-1:]] == [
                Op.PUT_BLOCK_OPEN, Op.BLOCK_END
            ]
            chunks = frames[1:-1]
            assert [len(chunk.payload) for chunk in chunks] == [segment] * 3
            # Handed over, not joined: the transport holds views of the buffers.
            assert sum(isinstance(data, memoryview) for data in transport.writes) == 3
            assert b"".join(chunk.payload for chunk in chunks) == expected[index], index
