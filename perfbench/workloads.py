"""The five workloads.

Each is a closed loop driven from this one process: a client sends its next
request only after the previous one completed.  Every workload generates its
inputs from the seed alone (:meth:`Workload.generate`), verifies every byte
it reads back, and counts any miss as a failed operation.

Every workload fills the same three measured slots (``BENCHMARK.json``'s
end-to-end metrics); ``op`` and ``alt`` name the sample keys of the first two:

==============  =====================  ====================  ====================
workload        ``op_p50_ms``          ``alt_p50_ms``        ``work_per_s`` counts
==============  =====================  ====================  ====================
degraded-read   ``rp`` degraded read   ``conventional`` one   block MB delivered
node-recovery   one ``REPAIR``         one victim's drain    block MB repaired
object-stream   PUT                    GET                   object MB moved
small-ops       GET                    PUT                   operations, per client
sim-month       ``rp``, 100k tasks     ``conventional``      simulated tasks
==============  =====================  ====================  ====================

Every sample is a time calibrated to nominal host speed
(:class:`perfbench.harness.HostClock`); ``core_share`` says how much of it a
workload takes to follow the core's speed.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import DeploymentSpec
from repro.codes import RSCode
from repro.exp import Scenario, run_trial
from repro.service import ServiceClient
from repro.service.placement import rotated_placement

from perfbench import WORK
from perfbench import layers as layer_probes
from perfbench.harness import (
    MB,
    BenchmarkError,
    Budget,
    HostClock,
    SessionResult,
    Spans,
    Tally,
    live_session,
    p50_ms,
    peak_rss_mb,
    scrape,
    tail,
)

MiB = 1 << 20
KiB = 1 << 10


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is what is measured; ``smoke`` is the test's."""

    block: int  # degraded-read block bytes
    recovery_block: int  # node-recovery block bytes
    recovery_stripes: int
    chunk: int  # transfer chunk of the block workloads
    object: int  # object-stream object bytes
    object_chunk: int  # its transfer chunk: eight frames per upload
    small_object: int
    small_warmup: int  # small-ops iterations per client before timing
    sim_nodes: int
    sim_stripes: int
    sim_days: int
    sim_setups: int  # how often sim-month sets up; the median is reported
    max_rounds: Optional[int]
    inproc: bool


SCALES = {
    "full": Scale(
        block=8 * MiB,
        recovery_block=2 * MiB,
        recovery_stripes=10,
        chunk=8 * MiB,
        object=16 * MiB,
        object_chunk=2 * MiB,
        small_object=64 * KiB,
        small_warmup=10,
        sim_nodes=30,
        sim_stripes=1000,
        sim_days=5,
        sim_setups=7,
        max_rounds=None,
        inproc=False,
    ),
    "smoke": Scale(
        block=1 * MiB,
        recovery_block=1 * MiB,
        recovery_stripes=4,
        chunk=1 * MiB,
        object=8 * MiB,
        object_chunk=1 * MiB,
        small_object=64 * KiB,
        small_warmup=2,
        sim_nodes=20,
        sim_stripes=60,
        sim_days=2,
        sim_setups=3,
        max_rounds=2,
        inproc=True,
    ),
}


def spec_of(n: int, k: int) -> Dict[str, object]:
    return {"family": "rs", "n": n, "k": k}


def sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One workload: its inputs, its sessions and how its numbers print."""

    name = ""
    why = ""
    #: Sample keys of the two gated latency slots.
    op = ""
    alt = ""
    #: How much of a measured time follows the core's speed (the rest --
    #: memory, socket copies in the kernel, waiting -- does not), by sample
    #: key where one differs.  Fitted on runs across this host's fast and
    #: slow stretches; see README.md.
    core_share = 0.75
    core_share_of: Dict[str, float] = {}
    #: The same for the set-up: interpreter starts and imports, all of it.
    setup_core_share = 1.0

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = int(seed)
        self.scale = scale

    def share(self, key: str) -> float:
        return self.core_share_of.get(key, self.core_share)

    @property
    def chunk(self) -> int:
        """Transfer chunk of the client and, through the environment, the roles."""
        return self.scale.chunk

    def rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *salt])

    def generate(self, session: int):
        """The inputs of one session -- a function of the seed alone."""
        raise NotImplementedError

    def session(
        self, index: int, seconds: float, spans: Spans, clock: HostClock, traced: bool
    ) -> SessionResult:
        raise NotImplementedError

    def table(self, samples: Dict[str, List[float]], work_per_s: float) -> List[Tuple]:
        """Rows ``(name, value, unit, n)`` printed above the result line."""
        raise NotImplementedError


class LiveWorkload(Workload):
    """A workload against a freshly booted deployment."""

    helpers = 0
    n = 0
    k = 0
    #: Roles whose processes count towards ``peak_rss_mb``.
    rss_roles: Tuple[str, ...] = ("coordinator", "gateway", "helper")

    def session(self, index, seconds, spans, clock, traced):
        with spans.span("payload"):
            inputs = self.generate(index)
        tally = Tally(clock)
        # Role span logs of the traced session stay beside the span file.
        trace_dir = str(WORK / f"role-spans-{self.name}") if traced else None

        async def body(deployment, started):
            client = ServiceClient(deployment.gateway_addresses(), chunk_size=self.chunk)
            warm = Tally(clock)
            await self.load(client, inputs, spans, warm)
            # Warm-up operations are verified like measured ones, but may not fail.
            _require(not warm.failed, "; ".join(warm.failures))
            clock.tick(0)
            set_up = (started, time.perf_counter())
            before = await scrape(deployment) if traced else None
            budget = Budget(seconds, self.scale.max_rounds).start()
            await self.measure(client, inputs, spans, tally, budget)
            tally.close(self.share)
            stat = await client.stat()
            for scheme, asked in stat["repairs_requested"].items():
                ran = stat["repairs_completed"].get(scheme, 0)
                if ran != asked:
                    # A silent fallback to another scheme is a failed repair.
                    tally.fail(f"{asked} {scheme} repairs requested, {ran} executed")
            found = {}
            if traced:
                found = layer_probes.in_situ(before, await scrape(deployment))
                found.update(
                    await layer_probes.live_probes(deployment, client, self.chunk)
                )
            return set_up, found

        (set_up, found), rss = live_session(
            self.helpers, self.chunk, trace_dir, self.scale.inproc, clock, self.rss_roles, body
        )
        return SessionResult(
            clock.calibrated(*set_up, self.setup_core_share), set_up[1] - set_up[0],
            tally, rss, found,
        )

    async def load(self, client, inputs, spans, warm) -> None:
        """Data load and warm-up through the ``warm`` tally; part of ``setup_s``.

        Raises on a wrong byte; an operation that failed is left in ``warm``.
        """
        raise NotImplementedError

    async def _put(self, client, spans, warm, stripe: int, payload: bytes) -> Dict:
        """One verified PUT of the data load."""
        reply, _ = await warm.timed(
            spans, "put", client.put(stripe, payload, spec_of(self.n, self.k))
        )
        _require(reply is not None and reply["sha256"] == sha(payload),
                 f"PUT of stripe {stripe} failed or stored other bytes")
        return reply

    async def measure(self, client, inputs, spans, tally, budget) -> None:
        raise NotImplementedError


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise BenchmarkError(f"set-up check failed: {what}")


# ---------------------------------------------------------------- degraded-read
@dataclass
class DegradedInputs:
    payload: bytes
    digests: List[str]  # of the k data blocks
    erased: int
    healthy: List[int]  # data blocks read healthy, in order


class DegradedRead(LiveWorkload):
    name = "degraded-read"
    why = (
        "the paper's headline: rp degraded reads of one (9,6) 8 MiB block beside healthy "
        "reads; chain hops, slice frames and delivery do the work, no encode or sqlite"
    )
    # The healthy read is printed and counted in work_per_s but not gated
    # alone: most of it is page-faulting fresh 8 MiB buffers, which glibc
    # stops doing once a process has freed one, so whole runs land on either
    # side of that switch (41 ms and 60 ms on one seed here).
    op, alt = "rp", "conventional"
    helpers, n, k = 10, 9, 6
    # The 8 MiB reply crosses two sockets on its way to the client.
    core_share = 0.6
    STRIPE = 0
    #: One round: three {rp degraded read, healthy read} pairs, then one
    #: conventional degraded read -- the same mix every round.
    PAIRS = 3

    def generate(self, session):
        rng = self.rng(session)
        size = self.scale.block
        payload = rng.bytes(self.k * size)
        view = memoryview(payload)
        digests = [sha(view[i * size:(i + 1) * size]) for i in range(self.k)]
        erased = int(rng.integers(self.k))
        healthy = [int(i) for i in rng.permutation(self.k) if i != erased]
        return DegradedInputs(payload, digests, erased, healthy)

    async def _read(self, client, inputs, spans, tally, scheme: Optional[str], block: int):
        """One verified block read; ``scheme`` forces a repair by it."""
        name = scheme or "normal"
        call = client.read_block(
            self.STRIPE, block, scheme=scheme or "rp", force_repair=scheme is not None
        )
        reply, span = await tally.timed(spans, "read_block", call)
        if reply is None:
            return
        payload, header = reply
        with spans.span("digest"):
            good = sha(payload) == inputs.digests[block]
        if not good:
            tally.fail(f"{name} read of block {block}: digest mismatch")
        elif bool(header["repaired"]) != (scheme is not None):
            tally.fail(f"{name} read of block {block}: repaired={header['repaired']}")
        else:
            tally.keep(name, span, work=len(payload) / MB)

    async def load(self, client, inputs, spans, warm):
        reply = await self._put(client, spans, warm, self.STRIPE, inputs.payload)
        _require(reply["block_size"] == self.scale.block, "unexpected block size")
        await client.erase(self.STRIPE, inputs.erased)
        # Warm the coordinator's plans and every connection path once.
        for scheme, block in (("rp", inputs.erased), ("conventional", inputs.erased),
                              (None, inputs.healthy[0])):
            await self._read(client, inputs, spans, warm, scheme, block)

    async def measure(self, client, inputs, spans, tally, budget):
        rounds = 0
        while budget.more(rounds):
            with spans.span("round", op=f"round-{rounds}"):
                for pair in range(self.PAIRS):
                    healthy = inputs.healthy[(rounds * self.PAIRS + pair) % len(inputs.healthy)]
                    await self._read(client, inputs, spans, tally, "rp", inputs.erased)
                    await self._read(client, inputs, spans, tally, None, healthy)
                await self._read(client, inputs, spans, tally, "conventional", inputs.erased)
            rounds += 1

    def table(self, samples, work_per_s):
        rows = [
            ("degraded_read_p50_ms", p50_ms(samples["rp"]), "ms", len(samples["rp"])),
            ("conventional_read_p50_ms", p50_ms(samples["conventional"]), "ms",
             len(samples["conventional"])),
            ("normal_read_p50_ms", p50_ms(samples["normal"]), "ms", len(samples["normal"])),
            ("read_mb_s", work_per_s, "MB/s", sum(map(len, samples.values()))),
            ("degraded_over_normal", p50_ms(samples["rp"]) / p50_ms(samples["normal"]),
             "ratio", 0),
            ("conventional_over_degraded",
             p50_ms(samples["conventional"]) / p50_ms(samples["rp"]), "ratio", 0),
        ]
        return rows + _tail_row("degraded_read", samples["rp"])


def _tail_row(prefix: str, values: List[float]) -> List[Tuple]:
    found = tail(values)
    if found is None:
        return []
    percentile, seconds = found
    return [(f"{prefix}_p{percentile}_ms", seconds * 1e3, "ms", len(values))]


# ---------------------------------------------------------------- node-recovery
@dataclass
class RecoveryInputs:
    payloads: List[bytes]  # one object per stripe
    digests: List[List[str]]  # [stripe][block], all n blocks
    victims: List[str]  # helper names, in the order they fail


class NodeRecovery(LiveWorkload):
    name = "node-recovery"
    why = (
        "the paper's full-node recovery: every block of a victim helper repaired by rp with "
        "write-back, two clients draining; many concurrent chains and LRS helper selection"
    )
    op, alt = "repair", "drain"
    helpers, n, k = 10, 9, 6
    CLIENTS = 2

    def node_names(self) -> List[str]:
        return DeploymentSpec.local(self.helpers).helpers

    def generate(self, session):
        rng = self.rng(session)
        size = self.scale.recovery_block
        code = RSCode(self.n, self.k)
        payloads, digests = [], []
        for _ in range(self.scale.recovery_stripes):
            payload = rng.bytes(self.k * size)
            view = memoryview(payload)
            coded = code.encode([view[i * size:(i + 1) * size] for i in range(self.k)])
            payloads.append(payload)
            digests.append([sha(block) for block in coded])
        victims = [str(name) for name in rng.permutation(self.node_names())]
        return RecoveryInputs(payloads, digests, victims)

    def lost_blocks(self, victim: str) -> List[Tuple[int, int]]:
        nodes = self.node_names()
        return [
            (stripe, block)
            for stripe in range(self.scale.recovery_stripes)
            for block, node in rotated_placement(stripe, self.n, nodes).items()
            if node == victim
        ]

    async def load(self, client, inputs, spans, warm):
        for stripe, payload in enumerate(inputs.payloads):
            await self._put(client, spans, warm, stripe, payload)
        await self._recover(client, inputs, spans, warm, inputs.victims[-1])

    async def _recover(self, client, inputs, spans, tally, victim) -> None:
        """Erase every block of ``victim``, then drain the list with rp repairs."""
        lost = self.lost_blocks(victim)
        for stripe, block in lost:
            await client.erase(stripe, block)
        queue = list(reversed(lost))
        repaired: List[Tuple[int, int]] = []

        async def drain_client():
            while queue:
                stripe, block = queue.pop()
                reply, span = await tally.timed(
                    spans, "repair", client.repair(stripe, [block], scheme="rp")
                )
                if reply is None:
                    continue
                if reply["sha256"].get(str(block)) != inputs.digests[stripe][block]:
                    tally.fail(f"repair of {stripe}.{block}: digest mismatch")
                    continue
                tally.keep("repair", span, wall=False)  # inside the drain
                repaired.append((stripe, block))

        with spans.span("drain") as drain:
            await asyncio.gather(*(drain_client() for _ in range(self.CLIENTS)))
        if len(repaired) == len(lost):
            tally.keep("drain", drain, work=len(lost) * self.scale.recovery_block / MB)
        if repaired:
            # The write-back landed: one repaired block reads back healthy.
            stripe, block = repaired[0]
            reply, _ = await tally.timed(spans, "read_block", client.read_block(stripe, block))
            if reply is not None and (
                reply[1]["repaired"] or sha(reply[0]) != inputs.digests[stripe][block]
            ):
                tally.fail(f"block {stripe}.{block} is not readable after its repair")

    async def measure(self, client, inputs, spans, tally, budget):
        rounds = 0
        while budget.more(rounds):
            victim = inputs.victims[rounds % len(inputs.victims)]
            with spans.span("round", op=f"victim-{victim}"):
                await self._recover(client, inputs, spans, tally, victim)
            rounds += 1

    def table(self, samples, work_per_s):
        rows = [
            ("recovery_mb_s", work_per_s, "MB/s", len(samples["drain"])),
            ("repair_p50_ms", p50_ms(samples["repair"]), "ms", len(samples["repair"])),
            ("victim_drain_p50_ms", p50_ms(samples["drain"]), "ms", len(samples["drain"])),
        ]
        return rows + _tail_row("repair", samples["repair"])


# ---------------------------------------------------------------- object-stream
@dataclass
class ObjectInputs:
    payload: bytes
    digest: str


class ObjectStream(LiveWorkload):
    name = "object-stream"
    why = (
        "the ROADMAP's PUT-vs-GET gap: 16 MiB (5,3) objects in 2 MiB chunks; encode, "
        "SHA-256, frame copies and fan-out dominate, no repair runs, PUT sits beside GET"
    )
    op, alt = "put", "get"
    helpers, n, k = 5, 5, 3
    # Two thirds of a PUT is the gateway's encode on one core; a 16 MiB GET
    # is socket copies and hardware SHA-256, and stayed within 4 % in half
    # hours in which the PUT beside it moved by 25 %.
    core_share_of = {"put": 0.9, "get": 0.25}
    #: Rounds cycle over this many stripe ids, so what the helpers hold --
    #: and with it peak RSS -- does not grow with the number of rounds a
    #: faster program completes.  Re-registering a known stripe skips the
    #: sqlite commit; small-ops, with a fresh id per PUT, is where that shows.
    RING = 4

    @property
    def chunk(self) -> int:
        return self.scale.object_chunk

    def generate(self, session):
        payload = self.rng(session).bytes(self.scale.object)
        return ObjectInputs(payload, sha(payload))

    async def _round(self, client, inputs, spans, tally, stripe: int) -> None:
        reply, span = await tally.timed(
            spans, "put", client.put(stripe, inputs.payload, spec_of(self.n, self.k))
        )
        if reply is None:
            return
        if reply["sha256"] != inputs.digest:
            tally.fail(f"PUT of stripe {stripe} stored other bytes")
            return
        tally.keep("put", span, work=len(inputs.payload) / MB)
        back, span = await tally.timed(spans, "get", client.get(stripe))
        if back is None:
            return
        with spans.span("digest"):
            good = sha(back) == inputs.digest
        if not good:
            tally.fail(f"GET of stripe {stripe} returned other bytes")
            return
        tally.keep("get", span, work=len(back) / MB)

    async def load(self, client, inputs, spans, warm):
        await self._round(client, inputs, spans, warm, 0)

    async def measure(self, client, inputs, spans, tally, budget):
        rounds = 0
        while budget.more(rounds):
            stripe = rounds % self.RING
            with spans.span("round", op=f"round-{rounds}"):
                await self._round(client, inputs, spans, tally, stripe)
            rounds += 1

    def table(self, samples, work_per_s):
        size = self.scale.object / MB
        put, get = p50_ms(samples["put"]), p50_ms(samples["get"])
        return [
            ("put_mb_s", size / (put / 1e3), "MB/s", len(samples["put"])),
            ("get_mb_s", size / (get / 1e3), "MB/s", len(samples["get"])),
            ("put_p50_ms", put, "ms", len(samples["put"])),
            ("get_p50_ms", get, "ms", len(samples["get"])),
            ("object_mb_s", work_per_s, "MB/s", len(samples["put"]) + len(samples["get"])),
            ("put_over_get", put / get, "ratio", 0),
        ]


# -------------------------------------------------------------------- small-ops
@dataclass
class SmallInputs:
    pool: List[bytes]
    digests: List[str]
    client_seeds: List[int]


class SmallOps(LiveWorkload):
    name = "small-ops"
    why = (
        "same PUT/GET entry points with 64 KiB objects: per-request cost dominates (fresh "
        "connection, JSON headers, the sqlite commit), so a per-request hop added for big "
        "objects is paid here"
    )
    op, alt = "get", "put"
    helpers, n, k = 5, 5, 3
    # Per-request interpreter work, hardly a byte moved.
    core_share = 0.9
    CLIENTS = 2
    GETS_PER_PUT = 4
    POOL = 32
    # A helper's memory here is the objects stored so far (48 MB after 5 s,
    # 62 MB after 15 s), so its peak follows how many PUTs a run completed.
    rss_roles = ("coordinator", "gateway")

    def generate(self, session):
        rng = self.rng(session)
        pool = [rng.bytes(self.scale.small_object) for _ in range(self.POOL)]
        seeds = [int(s) for s in rng.integers(1 << 31, size=self.CLIENTS)]
        return SmallInputs(pool, [sha(p) for p in pool], seeds)

    async def _iteration(self, client, inputs, spans, tally, rng, lane: int, i: int) -> None:
        """One PUT of a fresh object, then GETs of objects this client wrote."""
        stripe = lane + self.CLIENTS * i  # lanes never share a stripe id
        body = inputs.pool[stripe % self.POOL]
        reply, span = await tally.timed(
            spans, "put", client.put(stripe, body, spec_of(self.n, self.k))
        )
        if reply is not None:
            if reply["sha256"] == inputs.digests[stripe % self.POOL]:
                tally.keep("put", span, work=1)
            else:
                tally.fail(f"PUT of stripe {stripe} stored other bytes")
        for _ in range(self.GETS_PER_PUT):
            target = lane + self.CLIENTS * rng.randrange(i + 1)
            back, span = await tally.timed(spans, "get", client.get(target))
            if back is None:
                continue
            if sha(back) == inputs.digests[target % self.POOL]:
                tally.keep("get", span, work=1)
            else:
                tally.fail(f"GET of stripe {target} returned other bytes")

    async def _clients(self, client, inputs, spans, tally, budget, first: int) -> None:
        async def lane_loop(lane: int):
            rng = random.Random(inputs.client_seeds[lane] + first)
            done = 0
            while budget.more(done):
                await self._iteration(client, inputs, spans, tally, rng, lane, first + done)
                done += 1

        with spans.span("round"):
            await asyncio.gather(*(lane_loop(lane) for lane in range(self.CLIENTS)))

    async def load(self, client, inputs, spans, warm):
        budget = Budget(3600.0, self.scale.small_warmup).start()
        await self._clients(client, inputs, spans, warm, budget, 0)

    async def measure(self, client, inputs, spans, tally, budget):
        await self._clients(client, inputs, spans, tally, budget, self.scale.small_warmup)

    def table(self, samples, work_per_s):
        rows = [
            ("small_put_p50_ms", p50_ms(samples["put"]), "ms", len(samples["put"])),
            ("small_get_p50_ms", p50_ms(samples["get"]), "ms", len(samples["get"])),
            # Each client completes work_per_s operations per second of
            # operation time; what the benchmark does between two operations
            # (digests, clock ticks) is not the system's time.
            ("small_ops_per_s", self.CLIENTS * work_per_s, "1/s",
             len(samples["put"]) + len(samples["get"])),
        ]
        return rows + _tail_row("small_get", samples["get"]) + _tail_row(
            "small_put", samples["put"]
        )


# -------------------------------------------------------------------- sim-month
class SimMonth(Workload):
    name = "sim-month"
    why = (
        "the simulator every paper figure comes from: 30 nodes, 1000 (9,6) stripes under rp, "
        "conventional and ppr; planning, engine, runtime and caches, no socket -- the "
        "control for every service-plane change"
    )
    op, alt = "rp", "conventional"
    SCHEMES = ("rp", "conventional", "ppr")
    SETUP_SEED = 2017
    # One process, interpreter and numpy only: nothing in a trial waits for
    # memory, a socket or another process.
    core_share = 1.0

    def generate(self, session):
        """The month scenario of ``benchmarks/bench_runtime_month_trace.py``."""
        return Scenario(
            name="month",
            code=("rs", 9, 6),
            num_nodes=self.scale.sim_nodes,
            num_stripes=self.scale.sim_stripes,
            days=self.scale.sim_days,
            block_size=8 * MiB,
            slice_size=2 * MiB,
            max_concurrent_repairs=8,
            detection_delay=600.0,
            mean_failure_interarrival=4 * 3600.0,
            transient_duration_mean=1800.0,
            foreground_rate=0.03,
            trace_key="month",
        )

    def _trial(self, scenario: Scenario, scheme: str, trial: int, seed: Optional[int] = None):
        root = self.seed if seed is None else seed
        return run_trial(replace(scenario, name=scheme, scheme=scheme), trial, root)

    def _set_up(self, index: int, clock: HostClock) -> Tuple[Scenario, float, float]:
        """Build the scenario and replay a two-day trace under each scheme.

        Done ``sim_setups`` times, as the contract asks of a short set-up;
        returns the scenario and the median calibrated and raw seconds.  The
        first time also pays this process's lazy imports and first-use
        caches; every time must replay the trace identically.  The trace
        is the same for every ``--seed``: how many nodes fail in two days
        would otherwise decide how long a set-up takes.
        """
        calibrated, raw, replays = [], [], set()
        for _ in range(self.scale.sim_setups):
            clock.tick(0)
            start = time.perf_counter()
            base = self.generate(index)
            small = replace(base, num_nodes=20, num_stripes=60, days=2)
            replays.add(tuple(
                self._trial(small, scheme, 0, self.SETUP_SEED).to_json() for scheme in self.SCHEMES
            ))
            end = time.perf_counter()
            clock.tick(0)
            calibrated.append(clock.calibrated(start, end, self.setup_core_share))
            raw.append(end - start)
        _require(len(replays) == 1, "the same trace replayed differently")
        return base, statistics.median(calibrated), statistics.median(raw)

    def session(self, index, seconds, spans, clock, traced):
        tally = Tally(clock)
        base, setup_s, setup_raw_s = self._set_up(index, clock)
        budget = Budget(seconds, self.scale.max_rounds).start()
        rounds = 0
        while budget.more(rounds):
            # Round r replays month r of the seed under each scheme.  Months
            # differ in how many nodes fail, so a run takes its medians over
            # many short ones and compares time per simulated task.
            with spans.span("round", op=f"month-{rounds}"):
                volumes = set()
                for scheme in self.SCHEMES:
                    tally.attempted += 1
                    clock.tick(0)
                    with spans.span("sim_trial") as span:
                        result = self._trial(base, scheme, rounds)
                    volumes.add(result.summary["blocks_repaired"])
                    tally.keep("trial", span, work=result.tasks_completed)
                    tally.keep(scheme, span, wall=False, per=result.tasks_completed / 1e5)
                if len(volumes) != 1:
                    # One trace, three schemes: the lost blocks are the same.
                    tally.fail(f"month {rounds}: schemes repaired different volumes {volumes}")
            rounds += 1
        tally.close(self.share)
        return SessionResult(setup_s, setup_raw_s, tally, peak_rss_mb([]))

    def table(self, samples, work_per_s):
        trials = sum(len(samples[scheme]) for scheme in self.SCHEMES)
        rows = [
            ("sim_tasks_per_s", work_per_s, "1/s", trials),
            ("sim_days_per_s", self.scale.sim_days / statistics.median(samples["trial"]), "1/s",
             trials),
        ]
        for scheme in self.SCHEMES:
            rows.append((f"sim_{scheme}_ms_per_100k_tasks", p50_ms(samples[scheme]), "ms",
                         len(samples[scheme])))
        return rows


WORKLOADS = {
    cls.name: cls for cls in (DegradedRead, NodeRecovery, ObjectStream, SmallOps, SimMonth)
}
