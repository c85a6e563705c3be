"""Per-layer numbers of the traced run.

Three sources, all outside ``src/``:

* **isolated probes** (:func:`isolated_probes`) -- ``perfbench`` timing calls
  into one layer's public functions at the shapes the workloads use, with no
  deployment;
* **live probes** (:func:`live_probes`) -- single frames to the roles of the
  traced session's deployment;
* **counter deltas** (:func:`in_situ`) -- what the roles' own ``METRICS``
  counted across the traced measurement.

:func:`ledger` then divides the bytes on an operation's blocking path by the
isolated rates and reports which share of the measured median that explains.
Layers are this repository's modules; :data:`PER_LAYER` is the full list in
``BENCHMARK.json``.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster import build_flat_cluster
from repro.codes import RSCode
from repro.core import (
    PortResolver,
    RebindableGraphTemplate,
    RepairPipelining,
    RepairRequest,
    StripeInfo,
)
from repro.ecpipe import ECPipe
from repro.exp import Scenario
from repro.gf import gf_accumulate_into
from repro.gf.gf256 import gf_mulsum_stacked
from repro.obs import diff_samples
from repro.runtime import ClusterRuntime
from repro.service import MetadataStore
from repro.service.protocol import (
    Op,
    decode_frame,
    encode_frame,
    expect_frame,
    read_frame,
    request,
    write_frame,
)
from repro.sim import DynamicSimulator, Port, TaskGraph

from perfbench import WORK
from perfbench.harness import MB, HostClock, family_total, p50_ms

MiB = 1 << 20
KiB = 1 << 10

#: Every per-layer metric: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("gf.mulsum_stacked_k3_mb_s", "MB/s", "higher"),
    ("gf.mulsum_stacked_k6_mb_s", "MB/s", "higher"),
    ("gf.accumulate_into_64k_mb_s", "MB/s", "higher"),
    ("gf.mul_table_build_s", "s", "lower"),
    ("codes.rs53_encode_into_mb_s", "MB/s", "higher"),
    ("codes.rs96_decode_mb_s", "MB/s", "higher"),
    ("codes.repair_plan_cold_per_s", "1/s", "higher"),
    ("codes.repair_plan_warm_per_s", "1/s", "higher"),
    ("codes.plan_cache_hit_rate", "ratio", "higher"),
    ("core.rp_compile_per_s", "1/s", "higher"),
    ("core.template_instantiate_per_s", "1/s", "higher"),
    ("sim.engine_tasks_per_s", "1/s", "higher"),
    ("runtime.tasks", "count", "lower"),
    ("runtime.tasks_per_s", "1/s", "higher"),
    ("runtime.template_hit_rate", "ratio", "higher"),
    ("runtime.plan_hit_rate", "ratio", "higher"),
    ("ecpipe.inproc_rp_mb_s", "MB/s", "higher"),
    ("ecpipe.inproc_conventional_mb_s", "MB/s", "higher"),
    ("protocol.encode_frame_mb_s", "MB/s", "higher"),
    ("protocol.decode_frame_mb_s", "MB/s", "higher"),
    ("protocol.loopback_frame_mb_s", "MB/s", "higher"),
    ("protocol.slice_frame_per_s", "1/s", "higher"),
    ("protocol.ping_rtt_ms", "ms", "lower"),
    ("store.register_stripe_per_s", "1/s", "higher"),
    ("coordinator.locate_rtt_ms", "ms", "lower"),
    ("coordinator.plan_repair_rtt_ms", "ms", "lower"),
    ("coordinator.plans", "count", "lower"),
    ("helper.put_block_stream_mb_s", "MB/s", "higher"),
    ("helper.get_block_mb_s", "MB/s", "higher"),
    ("helper.accumulate_busy_s", "s", "lower"),
    ("helper.chain_hops", "count", "lower"),
    ("helper.slice_bytes_forwarded", "count", "lower"),
    ("helper.store_bytes_per_user_byte", "ratio", "lower"),
    ("gateway.encode_busy_s", "s", "lower"),
    ("gateway.frames_put", "count", "lower"),
    ("gateway.frames_get", "count", "lower"),
    ("gateway.frames_read_block", "count", "lower"),
    ("gateway.frames_repair", "count", "lower"),
    ("gateway.frames_deliver_open", "count", "lower"),
    ("gateway.bytes_in", "count", "lower"),
    ("gateway.bytes_out", "count", "lower"),
    ("gateway.repairs_executed_rp", "count", "lower"),
    ("gateway.repairs_executed_conventional", "count", "lower"),
    ("digest.sha256_mb_s", "MB/s", "higher"),
    ("client.put_self_s", "s", "lower"),
    ("client.get_self_s", "s", "lower"),
    ("client.read_block_self_s", "s", "lower"),
    ("client.repair_self_s", "s", "lower"),
    ("client.sim_trial_self_s", "s", "lower"),
    ("client.payload_self_s", "s", "lower"),
    ("client.digest_self_s", "s", "lower"),
    ("client.round_self_s", "s", "lower"),
    ("ledger.put.accounted_fraction", "ratio", "higher"),
    ("ledger.put.upload_share", "ratio", "lower"),
    ("ledger.put.encode_share", "ratio", "lower"),
    ("ledger.put.spread_share", "ratio", "lower"),
    ("ledger.put.digest_share", "ratio", "lower"),
    ("ledger.put.control_share", "ratio", "lower"),
    ("ledger.get.accounted_fraction", "ratio", "higher"),
    ("ledger.get.fetch_share", "ratio", "lower"),
    ("ledger.get.download_share", "ratio", "lower"),
    ("ledger.get.digest_share", "ratio", "lower"),
    ("ledger.get.control_share", "ratio", "lower"),
    ("ledger.degraded_read.accounted_fraction", "ratio", "higher"),
    ("ledger.degraded_read.plan_share", "ratio", "lower"),
    ("ledger.degraded_read.accumulate_share", "ratio", "lower"),
    ("ledger.degraded_read.slice_frames_share", "ratio", "lower"),
    ("ledger.degraded_read.reply_share", "ratio", "lower"),
    ("obs.tracing_overhead_fraction", "ratio", "lower"),
    ("host.reference_kernel_ms", "ms", "lower"),
]

#: Span names whose self time is reported as ``client.<name>_self_s``.
CLIENT_SPANS = ("put", "get", "read_block", "repair", "sim_trial", "payload", "digest", "round")


def seconds_per_call(fn: Callable[[], object], budget: float = 0.1, least: int = 3) -> float:
    """Median wall of ``fn()`` over at least ``least`` calls and ``budget`` seconds."""
    fn()  # first call pays lazy set-up
    walls: List[float] = []
    deadline = time.perf_counter() + budget
    while len(walls) < least or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


# -------------------------------------------------------------- isolated probes
def _gf(out: Dict[str, float], rng) -> None:
    for k in (3, 6):
        stacked = rng.integers(0, 256, (k, MiB), dtype=np.uint8)
        target = np.empty(MiB, dtype=np.uint8)
        coeffs = list(range(2, 2 + k))
        wall = seconds_per_call(lambda: gf_mulsum_stacked(coeffs, stacked, target))
        out[f"gf.mulsum_stacked_k{k}_mb_s"] = k * MiB / MB / wall
    partial = bytearray(64 * KiB)
    local = rng.bytes(64 * KiB)
    wall = seconds_per_call(lambda: gf_accumulate_into(partial, 37, local), budget=0.05)
    out["gf.accumulate_into_64k_mb_s"] = 64 * KiB / MB / wall
    # What a fresh interpreter pays to import the field tables, as the
    # interpreter itself accounts it (microseconds of self time).
    report = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.gf.gf256"],
        capture_output=True,
        text=True,
        check=True,
    ).stderr
    match = re.search(r"import time:\s+(\d+) \|\s+\d+ \|\s+repro\.gf\.gf256\s*$", report, re.M)
    out["gf.mul_table_build_s"] = int(match.group(1)) / 1e6 if match else 0.0


def _codes(out: Dict[str, float], rng, chunk: int, block: int) -> None:
    # The gateway's incremental-encode shape: one (k, chunk/k) column slice
    # of the padded object into n reused segment buffers.
    code = RSCode(5, 3)
    segment = -(-chunk // 3)
    data = rng.integers(0, 256, (3, segment), dtype=np.uint8)
    outs = [np.empty(segment, dtype=np.uint8) for _ in range(5)]
    wall = seconds_per_call(lambda: code.encode_into(data, outs))
    out["codes.rs53_encode_into_mb_s"] = 3 * segment / MB / wall

    # The conventional repair's decode: one lost block out of k whole blocks.
    code = RSCode(9, 6)
    plan = code.repair_plan([0])
    blocks = {i: rng.bytes(block) for i in plan.helpers}
    wall = seconds_per_call(lambda: plan.reconstruct(blocks), budget=0.0, least=2)
    out["codes.rs96_decode_mb_s"] = block / MB / wall

    patterns = []
    for failed in range(9):
        alive = [i for i in range(9) if i != failed]
        for dropped in (alive[failed % 8], alive[(failed + 3) % 8]):
            patterns.append(([failed], [i for i in alive if i != dropped][:6]))
    code = RSCode(9, 6)
    start = time.perf_counter()
    for failed, available in patterns:
        code.repair_plan(failed, available)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(20):
        for failed, available in patterns:
            code.repair_plan(failed, available)
    warm = time.perf_counter() - start
    out["codes.repair_plan_cold_per_s"] = len(patterns) / cold
    out["codes.repair_plan_warm_per_s"] = 20 * len(patterns) / warm
    out["codes.plan_cache_hit_rate"] = code.plan_cache_hits / (
        code.plan_cache_hits + code.plan_cache_misses
    )


def _core_and_sim(out: Dict[str, float]) -> None:
    cluster = build_flat_cluster(16)
    names = cluster.node_names()
    scheme = RepairPipelining("rp")
    stripe = StripeInfo(RSCode(9, 6), dict(enumerate(names[:9])))
    path = [1, 2, 3, 4, 5, 6]
    repair = RepairRequest(stripe, [0], names[10], 8 * MiB, 2 * MiB)
    roles = tuple(stripe.location(i) for i in path) + (names[10],)
    wall = seconds_per_call(lambda: scheme.build_graph(repair, cluster, candidates=path))
    out["core.rp_compile_per_s"] = 1 / wall
    template = RebindableGraphTemplate.capture(
        scheme.build_graph(repair, cluster, candidates=path), roles, PortResolver(cluster)
    )
    wall = seconds_per_call(lambda: template.release(template.instantiate(roles)), budget=0.05)
    out["core.template_instantiate_per_s"] = 1 / wall

    ports = [Port(f"p{i}", 100e6) for i in range(8)]
    sim = DynamicSimulator()
    start = time.perf_counter()
    for chain in range(500):
        graph = TaskGraph()
        prev = None
        for hop in range(4):
            prev = graph.add_task(
                f"c{chain}.{hop}",
                [ports[(chain + hop) % 8], ports[(chain + hop + 1) % 8]],
                size_bytes=1e6,
                overhead=1e-4,
                deps=[prev] if prev is not None else (),
            )
        sim.submit(graph, chain * 0.005)
    sim.drain()
    out["sim.engine_tasks_per_s"] = sim.tasks_completed / (time.perf_counter() - start)

    # A two-day, 60-stripe trace with a fixed seed: ``runtime.tasks`` must
    # repeat exactly on one version of the program.
    scenario = Scenario(
        name="perfbench-runtime-probe",
        num_nodes=20,
        num_stripes=60,
        days=2,
        block_size=8 * MiB,
        slice_size=2 * MiB,
        max_concurrent_repairs=8,
        detection_delay=600.0,
        mean_failure_interarrival=4 * 3600.0,
        transient_duration_mean=1800.0,
        foreground_rate=0.03,
    )
    runtime = ClusterRuntime(
        scenario.build_cluster(), scenario.build_stripes(2017), scenario.runtime_config(2017)
    )
    start = time.perf_counter()
    report = runtime.run()
    wall = time.perf_counter() - start
    perf = report.perf
    templates = perf["graph_template_hits"] + perf["graph_template_misses"]
    plans = perf["plan_cache_hits"] + perf["plan_cache_misses"]
    out["runtime.tasks"] = float(report.tasks_completed)
    out["runtime.tasks_per_s"] = report.tasks_completed / wall
    out["runtime.template_hit_rate"] = perf["graph_template_hits"] / templates if templates else 0.0
    out["runtime.plan_hit_rate"] = perf["plan_cache_hits"] / plans if plans else 0.0


def _ecpipe(out: Dict[str, float], rng, block: int) -> None:
    """One (9,6) block repaired by the chain state machines, no transport."""
    code = RSCode(9, 6)
    nodes = [f"node{i}" for i in range(9)]
    coded = code.encode([rng.bytes(block) for _ in range(6)])
    pipe = ECPipe(nodes + ["requestor"])
    pipe.add_stripe(
        StripeInfo(code, dict(enumerate(nodes)), stripe_id=1),
        {i: coded[i].tobytes() for i in range(9)},
    )
    pipe.erase_block(1, 0)
    original = coded[0].tobytes()

    def rp():
        assert pipe.repair_pipelined(1, [0], "requestor", 64 * KiB)[0] == original

    def conventional():
        assert pipe.repair_conventional(1, [0], "requestor")[0] == original

    out["ecpipe.inproc_rp_mb_s"] = block / MB / seconds_per_call(rp, budget=0.0, least=2)
    out["ecpipe.inproc_conventional_mb_s"] = block / MB / seconds_per_call(
        conventional, budget=0.0, least=2
    )


async def _loopback(payload: bytes, frames: int) -> float:
    """Seconds to ``write_frame``/``read_frame`` ``frames`` frames to a sink."""

    async def sink(reader, writer):
        for _ in range(frames):
            await read_frame(reader)
        await write_frame(writer, Op.OK, {})
        writer.close()

    server = await asyncio.start_server(sink, "127.0.0.1", 0)
    try:
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        start = time.perf_counter()
        for index in range(frames):
            await write_frame(writer, Op.SLICE, {"s": index}, payload)
        await expect_frame(reader, Op.OK)
        wall = time.perf_counter() - start
        writer.close()
        await writer.wait_closed()
        return wall
    finally:
        server.close()
        await server.wait_closed()


def _protocol_store_digest(out: Dict[str, float], rng, chunk: int) -> None:
    payload = rng.bytes(chunk)
    wire = encode_frame(Op.PUT_CHUNK, {"off": 0}, payload)
    out["protocol.encode_frame_mb_s"] = chunk / MB / seconds_per_call(
        lambda: encode_frame(Op.PUT_CHUNK, {"off": 0}, payload)
    )
    out["protocol.decode_frame_mb_s"] = chunk / MB / seconds_per_call(
        lambda: decode_frame(wire[4:])
    )
    frames = 8
    wall = statistics.median(asyncio.run(_loopback(payload, frames)) for _ in range(3))
    out["protocol.loopback_frame_mb_s"] = frames * chunk / MB / wall
    slices = 512
    piece = payload[: 64 * KiB]
    wall = statistics.median(asyncio.run(_loopback(piece, slices)) for _ in range(3))
    out["protocol.slice_frame_per_s"] = slices / wall

    out["digest.sha256_mb_s"] = chunk / MB / seconds_per_call(
        lambda: hashlib.sha256(payload).digest()
    )

    # File-backed, so every registration pays the WAL commit a durable
    # deployment pays on the PUT path.
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="store-", dir=WORK) as tmp:
        with MetadataStore(os.path.join(tmp, "meta.db")) as store:
            locations = {i: f"node{i}" for i in range(5)}
            spec = {"family": "rs", "n": 5, "k": 3}
            count = 200
            start = time.perf_counter()
            for stripe in range(count):
                store.register_stripe(stripe, spec, 21846, 65536, locations)
            out["store.register_stripe_per_s"] = count / (time.perf_counter() - start)


def _host_reference() -> float:
    """Milliseconds of the host clock's kernel, which calls no layer.

    A per-layer number that moved together with this one moved with the
    host, not with the program (the end-to-end times are calibrated by it,
    the isolated rates are not).
    """
    return seconds_per_call(HostClock().kernel, budget=0.2) * 1e3


def isolated_probes(chunk: int, block: int) -> Dict[str, float]:
    """Time each layer alone, at the transfer chunk and block size in use."""
    rng = np.random.default_rng(20170712)
    out: Dict[str, float] = {"host.reference_kernel_ms": _host_reference()}
    for probe in (
        lambda: _gf(out, rng),
        lambda: _codes(out, rng, chunk, block),
        lambda: _core_and_sim(out),
        lambda: _ecpipe(out, rng, block),
        lambda: _protocol_store_digest(out, rng, chunk),
    ):
        # Each probe starts from a collected heap, so a major collection of
        # the previous probe's garbage does not land in its timing window.
        gc.collect()
        probe()
    return out


# ------------------------------------------------------------------ live probes
async def live_probes(deployment, client, chunk: int) -> Dict[str, float]:
    """Single frames to the live roles: round trips and one helper's block I/O.

    The coordinator probes locate and plan block 0 of stripe 0, which every
    live workload registers.  The helper stores and serves one
    ``chunk``-sized block, streamed in the ``chunk / 3`` pieces a (5,3)
    gateway cuts its segments to.
    """
    block = chunk
    stripe, index = 0, 0
    coordinator = deployment.coordinator_address
    out: Dict[str, float] = {}

    async def rtt_ms(call: Callable[[], object], count: int) -> float:
        walls = []
        for _ in range(count):
            start = time.perf_counter()
            await call()
            walls.append(time.perf_counter() - start)
        return p50_ms(walls)

    out["protocol.ping_rtt_ms"] = await rtt_ms(client.ping, 40)
    out["coordinator.locate_rtt_ms"] = await rtt_ms(
        lambda: request(*coordinator, Op.LOCATE, {"stripe_id": stripe, "block": index}), 40
    )
    plan_header = {
        "stripe_id": stripe,
        "failed": [index],
        "scheme": "rp",
        "requestors": ["gateway"],
        "slice_size": 64 * KiB,
    }
    out["coordinator.plan_repair_rtt_ms"] = await rtt_ms(
        lambda: request(*coordinator, Op.PLAN_REPAIR, plan_header), 20
    )

    host, port = sorted(deployment.helper_addresses().items())[0][1]
    payload = np.random.default_rng(7).bytes(block)
    key = "perfbench-probe"
    piece = max(1, block // 3)

    async def put_stream():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await write_frame(writer, Op.PUT_BLOCK_OPEN, {"key": key, "size": block})
            view = memoryview(payload)
            for offset in range(0, block, piece):
                await write_frame(
                    writer, Op.BLOCK_CHUNK, {"off": offset}, view[offset:offset + piece]
                )
            await write_frame(writer, Op.BLOCK_END, {})
            await expect_frame(reader, Op.OK)
        finally:
            writer.close()
            await writer.wait_closed()

    out["helper.put_block_stream_mb_s"] = block / MB / (await rtt_ms(put_stream, 5) / 1e3)
    out["helper.get_block_mb_s"] = block / MB / (
        await rtt_ms(lambda: request(host, port, Op.GET_BLOCK, {"key": key}), 5) / 1e3
    )
    await request(host, port, Op.DELETE_BLOCK, {"key": key})
    return out


def in_situ(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """What the roles counted across the traced measurement."""
    delta = diff_samples(before, after)
    out = {
        "coordinator.plans": family_total(delta, "coordinator_plans_total"),
        "helper.accumulate_busy_s": family_total(delta, "helper_accumulate_seconds_sum"),
        "helper.chain_hops": family_total(delta, "helper_chain_hops_total"),
        "helper.slice_bytes_forwarded": family_total(delta, "helper_slice_bytes_forwarded_total"),
        "gateway.encode_busy_s": family_total(delta, "gateway_encode_seconds_sum"),
        "gateway.bytes_in": family_total(delta, "gateway_bytes_in_total"),
        "gateway.bytes_out": family_total(delta, "gateway_bytes_out_total"),
    }
    for op in ("PUT", "GET", "READ_BLOCK", "REPAIR", "DELIVER_OPEN"):
        # Chunked uploads arrive as PUT_OPEN; both are one client PUT.
        names = ("PUT", "PUT_OPEN") if op == "PUT" else (op,)
        out[f"gateway.frames_{op.lower()}"] = sum(
            family_total(delta, "frames_total", role="gateway", op=name) for name in names
        )
    for scheme in ("rp", "conventional"):
        out[f"gateway.repairs_executed_{scheme}"] = family_total(
            delta, "gateway_repairs_executed_total", scheme=scheme
        )
    # Taken before the measurement, when every object written is still held
    # once (object-stream later overwrites a ring of stripe ids).
    user_bytes = family_total(before, "gateway_bytes_in_total")
    if user_bytes:
        out["helper.store_bytes_per_user_byte"] = before["helper_store_bytes"] / user_bytes
    return out


# ----------------------------------------------------------------------- ledger
def _shares(prefix: str, median_s: float, terms: Dict[str, float]) -> Dict[str, float]:
    out = {f"{prefix}.{name}_share": seconds / median_s for name, seconds in terms.items()}
    out[f"{prefix}.accounted_fraction"] = sum(terms.values()) / median_s
    return out


def ledger(workload, samples: Dict[str, Sequence[float]], found: Dict[str, float]) -> Dict[str, float]:
    """Bytes on each operation's blocking path over the isolated layer rates.

    The terms are a model, stated here and in the README, not a
    measurement inside the program: each is the time one layer would take
    alone for the bytes the operation moves through it.  ``accounted_fraction``
    is their sum over the measured median; the remainder is event-loop
    scheduling, copies and waits no isolated probe covers.
    """
    def rate(name: str) -> float:
        return found[name] * MB  # bytes per second

    out: Dict[str, float] = {}
    if workload.name == "object-stream":
        control_s = found["coordinator.locate_rtt_ms"] / 1e3
        size, n, k = workload.scale.object, workload.n, workload.k
        out.update(_shares("ledger.put", statistics.median(samples["put"]), {
            "upload": size / rate("protocol.loopback_frame_mb_s"),
            "encode": size / rate("codes.rs53_encode_into_mb_s"),
            "spread": size * n / k / rate("helper.put_block_stream_mb_s"),
            "digest": size / rate("digest.sha256_mb_s"),
            # HELPERS and REGISTER_STRIPE round trips plus the sqlite commit.
            "control": 2 * control_s + 1 / found["store.register_stripe_per_s"],
        }))
        out.update(_shares("ledger.get", statistics.median(samples["get"]), {
            "fetch": size / rate("helper.get_block_mb_s"),
            "download": size / rate("protocol.loopback_frame_mb_s"),
            # The gateway digests the stream; the client verifies it.
            "digest": 2 * size / rate("digest.sha256_mb_s"),
            "control": control_s,
        }))
    if workload.name == "degraded-read":
        block, k = workload.scale.block, workload.k
        slices = -(-block // (64 * KiB))
        # k hops and the gateway work at once, on at most this many cores.
        parallel = min(os.cpu_count() or 1, k + 1)
        out.update(_shares("ledger.degraded_read", statistics.median(samples["rp"]), {
            "plan": found["coordinator.plan_repair_rtt_ms"] / 1e3,
            "accumulate": k * block / rate("gf.accumulate_into_64k_mb_s") / parallel,
            "slice_frames": k * slices / found["protocol.slice_frame_per_s"] / parallel,
            "reply": block / rate("protocol.loopback_frame_mb_s")
            + block / rate("digest.sha256_mb_s"),
        }))
    return out
