"""End-to-end coverage of the live service plane.

Everything here boots a real in-process deployment -- coordinator, helper
agents and gateway on localhost TCP sockets -- and drives it through the
framed client API.  The headline assertion is *parity*: a block
reconstructed through the live service is byte-identical to the in-process
:class:`repro.ecpipe.ECPipe` repair of the same stripe, for every service
scheme and both paper code shapes.
"""

import asyncio
import hashlib
import random

import pytest

from repro.cluster import DeploymentSpec
from repro.codes import RSCode
from repro.core import StripeInfo
from repro.ecpipe import ECPipe
from repro.service import (
    CoordinatorServer,
    HelperAgent,
    LoadGenerator,
    LocalDeployment,
    ServiceClient,
)
from repro.ecpipe.pipeline import ChainHop, SliceChainPlan
from repro.service.placement import rotated_placement
from repro.service.compare import CompareConfig, run_comparison
from repro.service.protocol import (
    Frame,
    Op,
    RemoteError,
    close_writer,
    expect_frame,
    open_channel,
    request,
    write_frame,
)
from repro.service.server import FrameServer
from conftest import random_payload

BLOCK_SIZE = 20000  # deliberately not a multiple of the slice size
SLICE_SIZE = 4096


def nodes_for(n):
    """Zero-padded helper names, so sorted order == block-index order."""
    return [f"n{i:02d}" for i in range(n)]


def run(coro):
    return asyncio.run(coro)


async def booted(num_helpers):
    spec = DeploymentSpec.local(num_helpers) if isinstance(num_helpers, int) else num_helpers
    deployment = LocalDeployment(spec=spec)
    await deployment.start()
    return deployment


# ----------------------------------------------------------------- parity
class TestLiveParity:
    """Live reconstruction == in-process reconstruction, byte for byte."""

    @pytest.mark.parametrize("nk", [(9, 6), (14, 10)], ids=["9-6", "14-10"])
    @pytest.mark.parametrize("scheme", ["rp", "pipe_s", "pipe_b", "conventional"])
    def test_live_matches_inprocess(self, rng, nk, scheme):
        n, k = nk
        failed = 3
        code = RSCode(n, k)
        data = [random_payload(rng, BLOCK_SIZE) for _ in range(k)]
        payload = b"".join(data)

        # In-process data plane: same code, same payload, same placement.
        ecpipe = ECPipe(nodes_for(n) + ["gateway"])
        coded = [b.tobytes() for b in code.encode(data)]
        stripe = StripeInfo(code, {i: f"n{i:02d}" for i in range(n)}, stripe_id=1)
        ecpipe.add_stripe(stripe, dict(enumerate(coded)))
        ecpipe.erase_block(1, failed)
        if scheme == "conventional":
            inprocess = ecpipe.repair_conventional(1, [failed], "gateway")[failed]
        elif scheme == "pipe_b":
            inprocess = ecpipe.repair_pipelined(
                1, [failed], "gateway", BLOCK_SIZE, greedy=False
            )[failed]
        else:
            inprocess = ecpipe.repair_pipelined(
                1, [failed], "gateway", SLICE_SIZE, greedy=False
            )[failed]

        async def live():
            deployment = await booted(DeploymentSpec(helpers=nodes_for(n)))
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, payload, {"family": "rs", "n": n, "k": k})
                await client.erase(1, failed)
                block, header = await client.read_block(
                    1,
                    failed,
                    scheme=scheme,
                    slice_size=SLICE_SIZE,
                    force_repair=True,
                    greedy=False,
                )
                assert header["repaired"]
                return block
            finally:
                await deployment.stop()

        live_block = run(live())
        assert live_block == coded[failed]  # correct
        assert live_block == inprocess  # and byte-identical to the model

    def test_multi_block_repair_parity(self, rng):
        n, k = 9, 6
        code = RSCode(n, k)
        data = [random_payload(rng, BLOCK_SIZE) for _ in range(k)]
        coded = [b.tobytes() for b in code.encode(data)]

        ecpipe = ECPipe(nodes_for(n) + ["gateway"])
        stripe = StripeInfo(code, {i: f"n{i:02d}" for i in range(n)}, stripe_id=1)
        ecpipe.add_stripe(stripe, dict(enumerate(coded)))
        for i in (0, 5):
            ecpipe.erase_block(1, i)
        inprocess = ecpipe.repair_pipelined(
            1, [0, 5], ["gateway", "gateway"], SLICE_SIZE, greedy=False
        )

        async def live():
            deployment = await booted(DeploymentSpec(helpers=nodes_for(n)))
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, b"".join(data), {"family": "rs", "n": n, "k": k})
                for i in (0, 5):
                    await client.erase(1, i)
                reply = await client.repair(
                    1, [0, 5], scheme="rp", slice_size=SLICE_SIZE, greedy=False
                )
                return reply
            finally:
                await deployment.stop()

        reply = run(live())
        for i in (0, 5):
            assert reply["sha256"][str(i)] == hashlib.sha256(coded[i]).hexdigest()
            assert hashlib.sha256(inprocess[i]).hexdigest() == reply["sha256"][str(i)]


# --------------------------------------------------------------- object API
class TestObjectApi:
    def test_put_get_round_trip_unaligned(self, rng):
        # Object size not divisible by k: the tail block is zero-padded and
        # the pad must be trimmed on the way out.
        payload = random_payload(rng, 100001)

        async def scenario():
            deployment = await booted(6)
            try:
                client = ServiceClient(deployment.gateway_address)
                reply = await client.put(4, payload, {"family": "rs", "n": 6, "k": 4})
                assert reply["block_size"] == 25001
                assert reply["sha256"] == hashlib.sha256(payload).hexdigest()
                return await client.get(4)
            finally:
                await deployment.stop()

        assert run(scenario()) == payload

    def test_get_with_lost_block_is_degraded_but_exact(self, rng):
        payload = random_payload(rng, 60000)

        async def scenario():
            deployment = await booted(9)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(2, payload, {"family": "rs", "n": 9, "k": 6})
                await client.erase(2, 1)
                return await client.get(2)
            finally:
                await deployment.stop()

        assert run(scenario()) == payload

    def test_repair_writes_back_and_relocates(self, rng):
        payload = random_payload(rng, 60000)

        async def scenario():
            deployment = await booted(10)  # one spare node beyond n=9
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(2, payload, {"family": "rs", "n": 9, "k": 6})
                await client.erase(2, 0)
                # Write the reconstructed block to a *different* node.
                reply = await client.repair(2, [0], scheme="rp", to="node9")
                block, header = await client.read_block(2, 0)
                return reply, header

            finally:
                await deployment.stop()

        reply, header = run(scenario())
        assert not header["repaired"]  # served directly from the new replica
        assert header["sha256"] == reply["sha256"]["0"]

    def test_dead_helper_fails_repair_fast_with_remote_error(self, rng):
        payload = random_payload(rng, 60000)

        async def scenario():
            deployment = await booted(9)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(2, payload, {"family": "rs", "n": 9, "k": 6})
                # Kill the helper holding block 1 (a mandatory hop for the
                # default plan repairing block 0).
                holder = rotated_placement(2, 9, [f"node{i}" for i in range(9)])[1]
                victim = next(
                    s for s in deployment._servers
                    if getattr(s, "node", None) == holder
                )
                await victim.stop()
                with pytest.raises(RemoteError):
                    await client.read_block(2, 0, force_repair=True, greedy=False)
            finally:
                await deployment.stop()

        run(scenario())

    def test_block_lost_mid_chain_surfaces_remote_error(self, rng):
        # A helper that is alive but lost its replica behind the
        # coordinator's back: the hop's read fails, the ERROR propagates
        # back up the chain, and the connection is torn down instead of the
        # upstream hop streaming slices into the void.
        payload = random_payload(rng, 60000)

        async def scenario():
            deployment = await booted(9)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(2, payload, {"family": "rs", "n": 9, "k": 6})
                holder = rotated_placement(2, 9, [f"node{i}" for i in range(9)])[3]
                agent = next(
                    s for s in deployment._servers
                    if getattr(s, "node", None) == holder
                )
                agent.helper.delete_block("stripe2.block3")
                with pytest.raises(RemoteError):
                    await client.read_block(
                        2, 0, force_repair=True, greedy=False, slice_size=2048
                    )
            finally:
                await deployment.stop()

        run(scenario())

    def test_unknown_stripe_is_remote_error(self):
        async def scenario():
            deployment = await booted(4)
            try:
                client = ServiceClient(deployment.gateway_address)
                with pytest.raises(RemoteError):
                    await client.get(99)
            finally:
                await deployment.stop()

        run(scenario())

    def test_undecodable_repair_reports_error(self, rng):
        payload = random_payload(rng, 6000)

        async def scenario():
            deployment = await booted(5)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                for block in (0, 1, 2):
                    await client.erase(1, block)
                with pytest.raises(RemoteError):
                    await client.read_block(1, 0, force_repair=True)
                with pytest.raises(RemoteError):
                    await client.read_block(1, 1, force_repair=True)
            finally:
                await deployment.stop()

        run(scenario())


# ------------------------------------------------------------ load generator
class TestLoadGenerator:
    def test_seeded_closed_loop_counts(self, rng):
        payload = random_payload(rng, 30000)
        operations = 20

        async def scenario():
            deployment = await booted(5)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, payload, {"family": "rs", "n": 5, "k": 3})
                await client.erase(1, 0)
                generator = LoadGenerator(
                    deployment.gateway_address,
                    {1: 3},
                    seed=42,
                    concurrency=1,
                    slice_size=2048,
                )
                return await generator.run(max_operations=operations)
            finally:
                await deployment.stop()

        report = run(scenario())
        assert report.operations == operations
        assert report.errors == 0
        # Single seeded worker: the block sequence is deterministic, so the
        # degraded-read count is exactly the number of block-0 draws.
        expected_rng = random.Random(42 + 0)
        degraded = sum(
            1
            for _ in range(operations)
            if (expected_rng.randrange(1), expected_rng.randrange(3))[1] == 0
        )
        assert report.degraded_reads == degraded
        assert report.mean_latency > 0
        assert report.latency_percentile(0.95) >= report.latency_percentile(0.5)
        assert set(report.to_dict()) == {
            "operations",
            "errors",
            "degraded_reads",
            "wall_seconds",
            "throughput",
            "mean_latency",
            "p50_latency",
            "p95_latency",
            "p99_latency",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadGenerator(("h", 1), {})
        with pytest.raises(ValueError):
            LoadGenerator(("h", 1), {1: 3}, concurrency=0)
        report_cls = LoadGenerator(("h", 1), {1: 3})
        assert report_cls is not None


# ----------------------------------------------------------- deployment/infra
class TestDeploymentLifecycle:
    def test_helpers_register_and_stat(self):
        async def scenario():
            deployment = await booted(4)
            try:
                reply = await request(*deployment.coordinator_address, Op.STAT, {})
                assert reply.header["helpers"] == 4
                helpers = await request(*deployment.coordinator_address, Op.HELPERS, {})
                assert sorted(helpers.header["helpers"]) == [f"node{i}" for i in range(4)]
                ping = await request(*deployment.gateway_address, Op.PING, {})
                assert ping.header["role"] == "gateway"
            finally:
                await deployment.stop()

        run(scenario())

    def test_stop_refuses_new_connections(self):
        async def scenario():
            deployment = await booted(3)
            address = deployment.gateway_address
            await deployment.stop()
            with pytest.raises((ConnectionError, OSError)):
                await request(*address, Op.PING, {})

        run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            deployment = await booted(3)
            try:
                from repro.service import ServiceError

                with pytest.raises(ServiceError):
                    await deployment.start()
            finally:
                await deployment.stop()

        run(scenario())

    def test_helper_stop_survives_a_swallowed_cancellation(self):
        # On Python 3.11 the wait_for() inside request() can hand back a
        # heartbeat reply that landed in the same loop iteration as stop()'s
        # cancel and swallow the cancellation; the loop then has to notice
        # the stop by itself or stop() awaits it forever (a process-mode
        # helper is SIGKILLed 20 s later).  Fast beats make the race common.
        async def scenario():
            coordinator = await CoordinatorServer().start()
            try:
                for cycle in range(40):
                    helpers = [
                        HelperAgent(
                            f"node{i}",
                            coordinator=coordinator.address,
                            heartbeat_interval=0.01,
                        )
                        for i in range(5)
                    ]
                    for helper in helpers:
                        await helper.start()
                    await asyncio.sleep(0.02)
                    for helper in helpers:
                        try:
                            await asyncio.wait_for(helper.stop(), 5.0)
                        except asyncio.TimeoutError:
                            pytest.fail(f"helper.stop() hung in cycle {cycle}")
            finally:
                await coordinator.stop()

        run(scenario())


# ------------------------------------------------------- measured vs simulated
class TestCompareHarness:
    def test_inproc_comparison_report(self):
        config = CompareConfig(
            n=5,
            k=3,
            block_size=32768,
            slice_size=8192,
            repeats=1,
            load_concurrency=1,
            spec=DeploymentSpec.local(5),
        )
        report = run_comparison(config, mode="inproc")
        assert set(report["measured"]) == {"rp", "conventional"}
        for scheme in ("rp", "conventional"):
            assert report["measured"][scheme]["median_seconds"] > 0
            assert report["predicted"][scheme] > 0
            assert report["measured"][scheme]["load"]["errors"] == 0
        assert report["measured_ratio"] > 0
        assert report["predicted_ratio"] > 1  # the simulator's claim
        from repro.service.compare import format_report

        text = format_report(report)
        assert "conventional/rp ratio" in text

    def test_twin_places_blocks_where_the_live_gateway_does(self, monkeypatch):
        # More helpers than blocks, stripe id 1: `helpers[i % len]` (the old
        # compare twin) and the gateway's rotation disagree on every block.
        config = CompareConfig(
            n=5, k=3, block_size=8192, slice_size=4096, spec=DeploymentSpec.local(7)
        )

        async def live_locations():
            deployment = LocalDeployment(spec=config.spec)
            await deployment.start()
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(config.stripe_id, config.payload(), config.code_spec())
                reply = await request(
                    *deployment.coordinator_address,
                    Op.STRIPES,
                    {"stripe_id": config.stripe_id},
                )
                return {int(i): node for i, node in reply.header["locations"].items()}
            finally:
                await deployment.stop()

        from repro.service import compare

        # Record the request each scheme is asked to simulate.
        twin_requests = []
        real_make_scheme = compare.make_scheme

        def recording_scheme(name):
            scheme = real_make_scheme(name)
            real_repair_time = scheme.repair_time

            def repair_time(request, cluster):
                twin_requests.append((request, cluster))
                return real_repair_time(request, cluster)

            scheme.repair_time = repair_time
            return scheme

        monkeypatch.setattr(compare, "make_scheme", recording_scheme)
        compare.predicted_makespans(config)
        assert len(twin_requests) == len(config.schemes)
        live = run(live_locations())
        for request_, cluster in twin_requests:
            assert request_.stripe.block_locations == live
            assert tuple(request_.requestors) == (compare.GATEWAY_NODE,)
            assert set(cluster.node_names()) == {*config.spec.helpers, compare.GATEWAY_NODE}

    def test_default_twin_predictions_are_unchanged(self):
        # Homogeneous twin: moving the blocks to the gateway's placement
        # must not move a makespan (values recorded before the move).
        from repro.service.compare import predicted_makespans

        assert predicted_makespans(CompareConfig()) == {
            "rp": 0.0898104853333333,
            "conventional": 0.4264698053333342,
        }
        assert predicted_makespans(
            CompareConfig(n=5, k=3, spec=DeploymentSpec.local(7))
        ) == {"rp": 0.07691442933333331, "conventional": 0.22022890933333322}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompareConfig(n=3, k=3)
        with pytest.raises(ValueError):
            CompareConfig(repeats=0)
        with pytest.raises(ValueError):
            CompareConfig(n=9, k=6, spec=DeploymentSpec.local(4))


# ------------------------------------------------------ streamed degraded read
async def read_block_frames(address, header, patience=10.0):
    """Every frame a ``READ_BLOCK`` is answered with, up to ``GET_END``/``ERROR``/EOF.

    Returns ``(frames, closed)``; ``closed`` says the gateway hung up after them.
    """
    channel = await open_channel(*address)
    try:
        await write_frame(channel, Op.READ_BLOCK, header)
        frames = []
        while True:
            frame = await asyncio.wait_for(channel.read_frame(), patience)
            if frame is None:
                return frames, True
            frames.append(frame)
            if frame.op in (Op.GET_END, Op.ERROR) or (
                frame.op == Op.OK and not frame.header.get("stream")
            ):
                break
        if frame.op != Op.ERROR:
            return frames, False
        return frames, await asyncio.wait_for(channel.read_frame(), patience) is None
    finally:
        await close_writer(channel)


class ForgingHop(FrameServer):
    """Stands in for a whole chain: answers ``CHAIN`` by delivering a script."""

    role = "helper"
    STREAM_OPS = frozenset({Op.CHAIN})

    def __init__(self, script):
        super().__init__()
        self.script = script

    async def handle(self, frame, channel):
        if frame.op != Op.CHAIN:
            return await super().handle(frame, channel)
        request_id = frame.header["request_id"]
        async with self.pool.lease(*frame.header["deliver"], "gateway") as down:
            await write_frame(down, Op.DELIVER_OPEN, {"request_id": request_id})
            for op, header, payload in self.script:
                await write_frame(down, op, {"request_id": request_id, **header}, payload)
            await expect_frame(down, Op.OK)
        await write_frame(channel, Op.OK, {})


class TestStreamedDegradedRead:
    """A block repaired by a chain reaches its reader slice by slice."""

    @pytest.mark.parametrize(
        "block_size, slice_size, slices",
        [
            (20000, 4096, [4096] * 4 + [3616]),  # short last slice
            (20000, 20000, [20000]),  # slice = block
            (20000, 1 << 20, [20000]),  # clamped: one slice
            (20000, None, [20000]),  # the model: a small block is one slice
            (200_000, None, [65536] * 3 + [3392]),  # the model, at its floor
        ],
    )
    def test_stream_shape_and_parity_with_inprocess(self, rng, block_size, slice_size, slices):
        n, k, failed = 9, 6, 3
        code = RSCode(n, k)
        data = [random_payload(rng, block_size) for _ in range(k)]
        coded = [b.tobytes() for b in code.encode(data)]
        ecpipe = ECPipe(nodes_for(n) + ["gateway"])
        stripe = StripeInfo(code, {i: f"n{i:02d}" for i in range(n)}, stripe_id=1)
        ecpipe.add_stripe(stripe, dict(enumerate(coded)))
        ecpipe.erase_block(1, failed)
        inprocess = ecpipe.repair_pipelined(
            1, [failed], "gateway", slices[0], greedy=False
        )[failed]
        options = {"greedy": False} if slice_size is None else {
            "greedy": False, "slice_size": slice_size
        }

        async def live():
            deployment = await booted(DeploymentSpec(helpers=nodes_for(n)))
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, b"".join(data), {"family": "rs", "n": n, "k": k})
                await client.erase(1, failed)
                frames, _ = await read_block_frames(
                    deployment.gateway_address,
                    {"stripe_id": 1, "block": failed, "scheme": "rp", **options},
                )
                block, header = await client.read_block(
                    1, failed, scheme="rp", slice_size=slice_size, greedy=False
                )
                return frames, block, header
            finally:
                await deployment.stop()

        frames, block, header = run(live())
        opened, chunks, end = frames[0], frames[1:-1], frames[-1]
        assert opened.op == Op.OK and opened.header["stream"]
        assert opened.header["size"] == block_size
        assert [c.op for c in chunks] == [Op.GET_CHUNK] * len(slices)
        assert [len(c.payload) for c in chunks] == slices
        assert [c.header["off"] for c in chunks] == [sum(slices[:i]) for i in range(len(slices))]
        streamed = b"".join(c.payload for c in chunks)
        assert streamed == coded[failed] == inprocess
        assert end.op == Op.GET_END
        assert end.header == {
            "stripe_id": 1,
            "block": failed,
            "repaired": True,
            "sha256": hashlib.sha256(streamed).hexdigest(),
        }
        # The client lands the same stream and hands back GET_END's header.
        assert block == streamed and header == end.header

    def test_one_frame_replies_stay_one_frame(self, rng):
        # Healthy reads, conventional repairs and a chain the coordinator
        # overrode (k = 1: one hop) answer with a single OK frame.
        async def scenario():
            deployment = await booted(5)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, random_payload(rng, 30000), {"family": "rs", "n": 5, "k": 3})
                await client.put(2, random_payload(rng, 5000), {"family": "rs", "n": 2, "k": 1})
                await client.erase(1, 0)
                await client.erase(2, 0)
                shapes = {}
                for name, header in {
                    "healthy": {"stripe_id": 1, "block": 1},
                    "conventional": {"stripe_id": 1, "block": 0, "scheme": "conventional"},
                    "overridden": {"stripe_id": 2, "block": 0, "scheme": "rp"},
                }.items():
                    frames, closed = await read_block_frames(deployment.gateway_address, header)
                    assert not closed
                    shapes[name] = [(f.op, bool(f.header["repaired"])) for f in frames]
                return shapes
            finally:
                await deployment.stop()

        assert run(scenario()) == {
            "healthy": [(Op.OK, False)],
            "conventional": [(Op.OK, True)],
            "overridden": [(Op.OK, True)],
        }

    GOOD = [(Op.DELIVER, {"s": i}, bytes(range(4))) for i in range(3)]
    FORGED = {
        "out-of-order": (GOOD[:1] + [GOOD[2]], 1, "slice 2 delivered where slice 1 of 3 was due"),
        "duplicate": (GOOD[:2] + [GOOD[1]], 2, "slice 1 delivered where slice 2 of 3 was due"),
        "past-the-end": (GOOD + [(Op.DELIVER, {"s": 3}, bytes(4))], 3, "slice 3 delivered where"),
        "wrong-size": ([(Op.DELIVER, {"s": 0}, bytes(5))], 0, "slice 0 has 5 bytes, expected 4"),
        "early-end": (GOOD[:2] + [(Op.DELIVER_END, {}, b"")], 2, "ended after 2 of 3 slices"),
        "unexpected-op": (GOOD[:1] + [(Op.SLICE, {"s": 1}, bytes(4))], 1, "unexpected SLICE"),
    }

    async def _forged_read(self, script):
        """A ``READ_BLOCK`` whose chain is a :class:`ForgingHop` playing ``script``."""
        deployment = await booted(2)
        forger = ForgingHop(script)
        await forger.start()
        try:
            gateway = deployment._servers[-1]
            plan = SliceChainPlan(
                stripe_id=1,
                failed=(0,),
                hops=(ChainHop(1, "forger", "stripe1.block1"),),
                coefficients=((1,),),
                slice_sizes=(4, 4, 4),
            )

            async def planned(op, header):
                assert op == Op.PLAN_REPAIR
                return Frame(
                    Op.OK,
                    {
                        "scheme": "rp",
                        "requested_scheme": "rp",
                        "stripe_id": 1,
                        "block_size": 12,
                        "plan": plan.to_dict(),
                        "addresses": {"forger": list(forger.address)},
                    },
                    b"",
                )

            gateway.requestor._coordinator_request = planned
            frames, closed = await read_block_frames(
                gateway.address, {"stripe_id": 1, "block": 0, "force_repair": True}
            )
            return frames, closed, gateway.requestor.stat(), gateway.handler_errors_total
        finally:
            await forger.stop()
            await deployment.stop()

    def test_an_honest_delivery_passes_the_same_harness(self):
        frames, closed, stat, _ = run(self._forged_read(self.GOOD + [(Op.DELIVER_END, {}, b"")]))
        assert [f.op for f in frames] == [Op.OK] + [Op.GET_CHUNK] * 3 + [Op.GET_END]
        assert not closed and stat["pending_deliveries"] == 0
        assert stat["repairs_completed"] == {"rp": 1}

    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_forged_delivery_is_a_protocol_error(self, case):
        script, accepted, message = self.FORGED[case]
        frames, closed, stat, errors = run(self._forged_read(script))
        # What was valid before the forgery reached the reader; then ERROR,
        # then nothing: the stream and its connection are over.
        assert [f.op for f in frames] == [Op.OK] + [Op.GET_CHUNK] * accepted + [Op.ERROR]
        assert closed
        assert "ProtocolError" in frames[-1].header["message"]
        assert message in frames[-1].header["message"]
        assert stat["pending_deliveries"] == 0 and stat["repairs_completed"] == {}
        assert errors.value(op="DELIVER_OPEN") == 1 and errors.value(op="READ_BLOCK") == 1


# ------------------------------------------------------------ the storing chain
def agent_of(deployment, node):
    return next(s for s in deployment._servers if getattr(s, "node", None) == node)


class TestStoringChain:
    """A ``REPAIR`` chain ends at the helper that stores the block, not at the gateway."""

    @staticmethod
    def _stripe(rng, block_size, n=9, k=6):
        code = RSCode(n, k)
        data = [random_payload(rng, block_size) for _ in range(k)]
        return data, [b.tobytes() for b in code.encode(data)]

    @pytest.mark.parametrize(
        "block_size, slice_size",
        [
            (20000, 4096),  # not a multiple of the slice: short last slice
            (20000, 20000),  # slice = block
            (20000, None),  # the model: a small block is one slice
            (200_000, None),  # the model, at its floor; short last slice
        ],
    )
    def test_the_target_is_the_requestor(self, rng, block_size, slice_size):
        n, k, failed = 9, 6, 3
        data, coded = self._stripe(rng, block_size)
        ecpipe = ECPipe(nodes_for(n) + ["gateway"])
        stripe = StripeInfo(RSCode(n, k), {i: f"n{i:02d}" for i in range(n)}, stripe_id=1)
        ecpipe.add_stripe(stripe, dict(enumerate(coded)))
        ecpipe.erase_block(1, failed)
        inprocess = ecpipe.repair_pipelined(
            1, [failed], "gateway", slice_size or block_size, greedy=False
        )[failed]

        async def live():
            deployment = await booted(DeploymentSpec(helpers=nodes_for(n)))
            try:
                gateway = deployment._servers[-1]
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, b"".join(data), {"family": "rs", "n": n, "k": k})
                await client.erase(1, failed)
                target = agent_of(deployment, rotated_placement(1, n, nodes_for(n))[failed])
                assert not target.helper.has_block(f"stripe1.block{failed}")
                opened = target.frames_served.get("PUT_BLOCK_OPEN", 0)
                chunks = target.frames_served.get("BLOCK_CHUNK", 0)
                reply = await client.repair(
                    1, [failed], scheme="rp", slice_size=slice_size, greedy=False
                )
                # The block never crossed the gateway: no delivery was opened
                # or registered, and nothing was pushed with PUT_BLOCK.
                assert "DELIVER_OPEN" not in gateway.frames_served
                assert gateway.requestor.stat()["pending_deliveries"] == 0
                assert "PUT_BLOCK" not in target.frames_served
                assert target.frames_served["PUT_BLOCK_OPEN"] == opened + 1
                # Stream ops are consumed by their handler, not dispatched.
                assert target.frames_served.get("BLOCK_CHUNK", 0) == chunks
                stored = target.helper.read_block(f"stripe1.block{failed}")
                hops = sum(
                    s.chains_executed for s in deployment._servers if s.role == "helper"
                )
                stat = await client.stat()
                block, header = await client.read_block(1, failed)
                return reply, stored, hops, stat, bytes(block), header
            finally:
                await deployment.stop()

        reply, stored, hops, stat, block, header = run(live())
        assert stored == coded[failed] == inprocess
        digest = hashlib.sha256(coded[failed]).hexdigest()
        assert reply == {
            "stripe_id": 1,
            "scheme": "rp",
            "requested_scheme": "rp",
            "sha256": {str(failed): digest},
        }
        assert hops == k
        assert stat["repairs_requested"] == stat["repairs_completed"] == {"rp": 1}
        assert block == coded[failed] and not header["repaired"]
        assert header["sha256"] == digest

    def test_slice_count_reaches_the_target_as_chunks(self, rng):
        # One BLOCK_CHUNK per repaired slice, at the slice's offset: the last
        # hop forwards slices as they are produced, it does not reassemble.
        n, k, failed, block_size = 5, 3, 0, 20000
        data, coded = self._stripe(rng, block_size, n, k)
        seen = []

        async def live():
            deployment = await booted(DeploymentSpec(helpers=nodes_for(n)))
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, b"".join(data), {"family": "rs", "n": n, "k": k})
                await client.erase(1, failed)
                target = agent_of(deployment, rotated_placement(1, n, nodes_for(n))[failed])
                receive = target._receive_block_stream

                async def spy(frame, channel):
                    read = channel.read_frame

                    async def tap():
                        got = await read()
                        seen.append((got.op, got.header.get("off"), len(got.payload)))
                        return got

                    channel.read_frame = tap
                    seen.append((frame.op, frame.header["size"], frame.header["digest"]))
                    await receive(frame, channel)

                target._receive_block_stream = spy
                await client.repair(1, [failed], slice_size=SLICE_SIZE, greedy=False)
            finally:
                await deployment.stop()

        run(live())
        assert seen == [
            (Op.PUT_BLOCK_OPEN, block_size, True),
            *[(Op.BLOCK_CHUNK, off, min(SLICE_SIZE, block_size - off))
              for off in range(0, block_size, SLICE_SIZE)],
            (Op.BLOCK_END, None, 0),
        ]

    def test_multi_block_repair_stores_each_block_at_its_own_target(self, rng):
        n, k = 9, 6
        data, coded = self._stripe(rng, BLOCK_SIZE)

        async def live():
            deployment = await booted(DeploymentSpec(helpers=nodes_for(n)))
            try:
                gateway = deployment._servers[-1]
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, b"".join(data), {"family": "rs", "n": n, "k": k})
                placement = rotated_placement(1, n, nodes_for(n))
                targets = {i: agent_of(deployment, placement[i]) for i in (0, 5)}
                for i in targets:
                    await client.erase(1, i)
                opened = {i: t.frames_served.get("PUT_BLOCK_OPEN", 0) for i, t in targets.items()}
                # Asked for out of plan order: the digests are keyed, not positional.
                reply = await client.repair(
                    1, [5, 0], scheme="rp", slice_size=SLICE_SIZE, greedy=False
                )
                assert "DELIVER_OPEN" not in gateway.frames_served
                reads = {}
                for i, target in targets.items():
                    assert target.frames_served["PUT_BLOCK_OPEN"] == opened[i] + 1
                    assert target.helper.read_block(f"stripe1.block{i}") == coded[i]
                    reads[i] = await client.read_block(1, i)
                return reply, reads, await client.stat()
            finally:
                await deployment.stop()

        reply, reads, stat = run(live())
        assert stat["repairs_completed"] == {"rp": 1}  # one chain for both
        for i in (0, 5):
            block, header = reads[i]
            assert bytes(block) == coded[i] and not header["repaired"]
            assert header["sha256"] == reply["sha256"][str(i)]
            assert reply["sha256"][str(i)] == hashlib.sha256(coded[i]).hexdigest()

    @pytest.mark.parametrize("where", ["spare", "last-hop"])
    def test_repair_to_another_node_stores_there_and_relocates(self, rng, where):
        n, k, failed = 5, 3, 0
        data, coded = self._stripe(rng, BLOCK_SIZE, n, k)
        names = nodes_for(n + 1)  # one spare beyond the stripe

        async def live():
            deployment = await booted(DeploymentSpec(helpers=names))
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, b"".join(data), {"family": "rs", "n": n, "k": k})
                placement = rotated_placement(1, n, names)
                await client.erase(1, failed)
                # Not greedy: the chain is blocks 1..k, so its last hop is
                # block k's node -- which then streams into itself.
                to = placement[k] if where == "last-hop" else (
                    set(names) - set(placement.values())
                ).pop()
                reply = await client.repair(1, [failed], to=to, greedy=False)
                old, new = agent_of(deployment, placement[failed]), agent_of(deployment, to)
                assert not old.helper.has_block(f"stripe1.block{failed}")
                assert new.helper.read_block(f"stripe1.block{failed}") == coded[failed]
                locate = await request(
                    *deployment._servers[0].address, Op.LOCATE, {"stripe_id": 1, "block": failed}
                )
                assert locate.header["node"] == to
                block, header = await client.read_block(1, failed)
                assert bytes(block) == coded[failed] and not header["repaired"]
                assert header["sha256"] == reply["sha256"][str(failed)]
            finally:
                await deployment.stop()

        run(live())

    def test_repair_to_an_unknown_node_fails_before_a_byte_moves(self, rng):
        n, k = 5, 3
        data, coded = self._stripe(rng, BLOCK_SIZE, n, k)

        async def live():
            deployment = await booted(n)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, b"".join(data), {"family": "rs", "n": n, "k": k})
                await client.erase(1, 0)
                with pytest.raises(RemoteError, match="no helper registered for node 'nosuch'"):
                    await client.repair(1, [0], to="nosuch")
                stat = await client.stat()
                assert stat["repairs_requested"] == {} and stat["repairs_completed"] == {}
                helpers = [s for s in deployment._servers if s.role == "helper"]
                assert sum(h.chains_executed for h in helpers) == 0
                assert not any("CHAIN" in h.frames_served for h in helpers)
                coordinator = deployment._servers[0]
                assert "PLAN_REPAIR" not in coordinator.frames_served
                # Still lost, still repairable.
                reply = await client.repair(1, [0])
                assert reply["sha256"]["0"] == hashlib.sha256(coded[0]).hexdigest()
            finally:
                await deployment.stop()

        run(live())

    def test_reply_names_the_scheme_that_ran(self, rng):
        # k = 1: a one-hop chain, which the coordinator serves conventionally.
        payload = random_payload(rng, 5000)

        async def live():
            deployment = await booted(3)
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, payload, {"family": "rs", "n": 3, "k": 1})
                await client.erase(1, 0)
                reply = await client.repair(1, [0], scheme="rp")
                block, header = await client.read_block(1, 0)
                return reply, bytes(block), header, await client.stat()
            finally:
                await deployment.stop()

        reply, block, header, stat = run(live())
        assert reply["scheme"] == "conventional" and reply["requested_scheme"] == "rp"
        assert stat["repairs_requested"] == {"rp": 1}
        assert stat["repairs_completed"] == {"conventional": 1}
        # The conventional branch decodes at the gateway and writes back.
        assert block == payload and not header["repaired"]
        assert header["sha256"] == reply["sha256"]["0"] == hashlib.sha256(payload).hexdigest()

    def test_the_store_stream_hangs_under_the_last_hops_span(self, rng):
        n, k, failed = 5, 3, 0
        data, _ = self._stripe(rng, BLOCK_SIZE, n, k)

        async def live():
            deployment = await booted(DeploymentSpec(helpers=nodes_for(n)))
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, b"".join(data), {"family": "rs", "n": n, "k": k})
                await client.erase(1, failed)
                await client.repair(1, [failed], greedy=False)
                placement = rotated_placement(1, n, nodes_for(n))
                last = agent_of(deployment, placement[k]).spans.spans()
                target = agent_of(deployment, placement[failed]).spans.spans()
                return last, target
            finally:
                await deployment.stop()

        last, target = run(live())
        chain = [s for s in last if s["op"] == "CHAIN"][-1]
        store = [s for s in target if s["op"] == "PUT_BLOCK_OPEN"][-1]
        assert chain["last"] and store["trace_id"] == chain["trace_id"]
        assert store["parent_id"] == chain["span_id"]
