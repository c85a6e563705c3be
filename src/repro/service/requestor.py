"""The requestor ``R`` of the repair chain.

A gateway reconstructs lost blocks through its :class:`ChainRequestor`,
which asks the coordinator for a plan and dispatches on the scheme that
plan says to run, mirroring the model exactly:

* ``rp`` / ``pipe_s`` -- slice-granular chain (``CHAIN`` + ``SLICE``
  streaming), helpers combine zero-copy; the last hop hands the repaired
  slices to whoever wants the block (below);
* ``pipe_b`` -- the same chain with one block-sized slice;
* ``conventional`` -- the requestor fans whole helper blocks into itself
  and decodes locally with the plan's coefficient rows.

**Where a chain ends.**  In the paper the requestor of a repair is wherever
the reconstructed block is wanted, and the last helper delivers to it
directly.  A chain therefore ends in one of two places, named by its
``CHAIN`` header:

* ``deliver`` -- this gateway: a reader is waiting here (``READ_BLOCK``,
  the ``GET`` fallback).  The last hop opens a ``DELIVER`` stream back and
  each slice is handed to the repair's *sink* as it arrives;
* ``store`` -- the helpers that will hold the blocks: a ``REPAIR``
  (:meth:`ChainRequestor.execute_storing`).  The last hop streams each
  failed block into its target's ``PUT_BLOCK_OPEN`` stream, the target
  hashes and commits it, and the digests come back on the ``OK`` the chain
  cascades.  The gateway never holds a block it repairs for storage, and
  such a chain registers no delivery here.

**Sinks.**  A :data:`SliceSink` is where the repaired slices of one chain
go: ``await sink(slice_index, packed)``, once per slice, in slice order.
:meth:`ChainRequestor.receive_delivery` is the one place a delivery stream
is validated -- a slice out of order, twice, of the wrong size, or a
``DELIVER_END`` before the last slice is a :class:`ProtocolError` whatever
the sink -- and it *awaits* the sink, so a sink that waits (a reader's
``drain()``) slows the delivery loop, the last hop and the chain through
TCP instead of buffering the block.  ``packed`` is the frame's own payload,
not copied: it belongs to the sink, which may hand it on to a channel.  A
degraded ``READ_BLOCK`` sinks into the reader's connection (the gateway's
``_serve_read_block``); the ``GET`` fallback, which needs the whole block in
hand, sinks into the same :class:`~repro.ecpipe.pipeline.BlockAssembler` the
in-process data plane trusts.
"""

from __future__ import annotations

import asyncio
import uuid
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ecpipe.pipeline import BlockAssembler, SliceChainPlan, split_packed
from repro.gf.gf256 import gf_mulsum_bytes
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import child_header
from repro.service.protocol import (
    ConnectionPool,
    Frame,
    FrameChannel,
    Op,
    ProtocolError,
    expect_frame,
    transfer_timeout,
    write_frame,
)

#: Where the repaired slices of one chain go (see the module docstring).
SliceSink = Callable[[int, bytearray], Awaitable[None]]


def repair_options(header: Dict[str, object]) -> Dict[str, object]:
    """The fields of a ``GET`` / ``READ_BLOCK`` / ``REPAIR`` header that shape the plan.

    They are forwarded to ``PLAN_REPAIR`` as the client sent them: the
    coordinator, which acts on them, is the one place that parses and
    defaults them.
    """
    keys = ("scheme", "slice_size", "greedy", "exclude_nodes")
    return {key: header[key] for key in keys if key in header}


@dataclass
class _Delivery:
    """In-flight delivery state of one pipelined repair."""

    plan: SliceChainPlan
    sink: SliceSink
    #: Slices handed to the sink so far -- the index the next one must carry.
    delivered: int = 0
    done: asyncio.Event = field(default_factory=asyncio.Event)


def _assembling(plan: SliceChainPlan) -> Tuple[SliceSink, Dict[int, BlockAssembler]]:
    """A sink that reassembles every failed block of ``plan``, and its assemblers."""
    assemblers = {index: BlockAssembler(plan.slice_sizes) for index in plan.failed}

    async def sink(slice_index: int, packed: bytearray) -> None:
        # The payload is still in the chain's packed layout (one section
        # per failed block, in plan order).
        sections = split_packed(memoryview(packed), plan.num_failed)
        for failed_index, section in zip(plan.failed, sections):
            assemblers[failed_index].add(slice_index, section)

    return sink, assemblers


class ChainRequestor:
    """Plans and drives repairs on behalf of one gateway.

    Parameters
    ----------
    registry:
        The gateway's metric registry (per-scheme repair counters).
    pool:
        The gateway's connection pool; a chain's first hop is leased from it.
    coordinator_request:
        ``(op, header) -> reply frame``; the gateway's coordinator call.
    fetch_block:
        ``(host, port, key, size) -> bytes``; whole-block fetch used by
        conventional repair.
    deliver_address:
        Returns the ``(host, port)`` the last hop of a chain delivers to --
        the gateway's own listening address.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        pool: ConnectionPool,
        coordinator_request: Callable[[Op, Dict[str, object]], Awaitable[Frame]],
        fetch_block: Callable[[str, int, str, int], Awaitable[bytes]],
        deliver_address: Callable[[], Tuple[str, int]],
    ) -> None:
        self._pool = pool
        self._coordinator_request = coordinator_request
        self._fetch_block = fetch_block
        self._deliver_address = deliver_address
        self._deliveries: Dict[str, _Delivery] = {}
        self._repairs_requested_total = registry.counter(
            "gateway_repairs_requested_total",
            "Repairs by the scheme the caller asked for.",
            labels=("scheme",),
        )
        self._repairs_executed_total = registry.counter(
            "gateway_repairs_executed_total",
            "Repairs by the scheme that actually ran.",
            labels=("scheme",),
        )

    def stat(self) -> Dict[str, object]:
        """The requestor's share of the gateway's ``STAT`` reply.

        Requested and completed differ exactly when the coordinator overrode
        the scheme (e.g. a 1-hop chain served conventionally).
        """
        return {
            "pending_deliveries": len(self._deliveries),
            "repairs_completed": {
                v[0]: int(c) for v, c in self._repairs_executed_total.items()
            },
            "repairs_requested": {
                v[0]: int(c) for v, c in self._repairs_requested_total.items()
            },
        }

    async def repair_blocks(
        self,
        stripe_id: int,
        failed: Sequence[int],
        options: Dict[str, object],
    ) -> Dict[int, bytes]:
        """Reconstruct ``failed`` blocks; returns index -> payload.

        The reconstructed bytes are byte-identical to the in-process
        :meth:`repro.ecpipe.ECPipe.repair_pipelined` /
        :meth:`~repro.ecpipe.ECPipe.repair_conventional` for the same stripe
        and scheme -- the parity the service test suite pins.
        """
        return await self.execute(await self.plan(stripe_id, failed, options))

    async def plan(
        self, stripe_id: int, failed: Sequence[int], options: Dict[str, object]
    ) -> Dict[str, object]:
        """The coordinator's decision for one repair (``PLAN_REPAIR``)."""
        reply = await self._coordinator_request(
            Op.PLAN_REPAIR,
            {
                "stripe_id": int(stripe_id),
                "failed": [int(i) for i in failed],
                "requestors": ["gateway"],
                **options,
            },
        )
        return reply.header

    @staticmethod
    def pipelined(decision: Dict[str, object]) -> bool:
        """Does ``decision`` run a chain (whose slices a sink can take)?"""
        return str(decision["scheme"]) != "conventional"

    async def execute(
        self, decision: Dict[str, object], sink: Optional[SliceSink] = None
    ) -> Dict[int, bytes]:
        """Run a planned repair; the gateway's data-plane core.

        Returns index -> payload, except for a chain given a ``sink``: its
        slices went there and the result is empty.
        """
        if not self.pipelined(decision):
            repaired = await self._repair_conventional(decision)
        else:
            plan = SliceChainPlan.from_dict(decision["plan"])
            assemblers: Dict[int, BlockAssembler] = {}
            if sink is None:
                sink, assemblers = _assembling(plan)
            await self._repair_chain(decision, plan, sink=sink)
            repaired = {
                failed_index: assembler.assemble()
                for failed_index, assembler in assemblers.items()
            }
        self._count(decision)
        return repaired

    async def execute_storing(
        self, decision: Dict[str, object], targets: Dict[int, Tuple[Sequence[object], str]]
    ) -> Dict[int, str]:
        """Run a planned chain that ends at the helpers that store its blocks.

        ``targets`` maps every failed block to the ``(address, key)`` it is
        to be stored under.  Returns index -> SHA-256 (hex) of the stored
        block, computed by the node that stored it over the bytes it
        committed; the repair is counted only once every store is
        acknowledged.

        One window is new with the store at the end of the chain: a target
        has committed and a hop above it dies before relaying the ``OK``.
        That leaves a correct block in place and a failed repair, whose
        retry rewrites the same bytes (and only then is the block
        ``RELOCATE``d, if it moved).
        """
        plan = SliceChainPlan.from_dict(decision["plan"])
        store = [
            {"address": list(targets[index][0]), "key": targets[index][1]}
            for index in plan.failed
        ]
        ack = await self._repair_chain(decision, plan, store=store)
        digests = ack.get("sha256")
        if not isinstance(digests, list) or len(digests) != plan.num_failed:
            raise ProtocolError(
                f"storing chain acknowledged {digests!r} for "
                f"{plan.num_failed} failed block(s)"
            )
        self._count(decision)
        return {index: str(digest) for index, digest in zip(plan.failed, digests)}

    def _count(self, decision: Dict[str, object]) -> None:
        """Account one finished repair.

        The coordinator may override the requested scheme (e.g. a 1-hop
        chain is served conventionally); the executed counter says what
        actually ran, the requested counter keeps the caller's view.
        """
        self._repairs_requested_total.inc(scheme=str(decision["requested_scheme"]))
        self._repairs_executed_total.inc(scheme=str(decision["scheme"]))

    async def _repair_conventional(self, decision: Dict[str, object]) -> Dict[int, bytes]:
        """Fan whole helper blocks into the gateway and decode locally.

        Fetches are sequential on purpose: conventional repair is bottlenecked
        by the requestor's single downlink, which a single loopback connection
        models faithfully.
        """
        block_size = int(decision["block_size"])
        buffers: List[bytes] = []
        for hop in decision["helpers"]:
            host, port = hop["address"]
            buffers.append(
                await self._fetch_block(host, port, str(hop["key"]), block_size)
            )
        repaired: Dict[int, bytes] = {}
        for failed_index, row in zip(decision["failed"], decision["coefficients"]):
            repaired[int(failed_index)] = gf_mulsum_bytes(row, buffers).tobytes()
        return repaired

    async def _repair_chain(
        self,
        decision: Dict[str, object],
        plan: SliceChainPlan,
        sink: Optional[SliceSink] = None,
        store: Optional[List[Dict[str, object]]] = None,
    ) -> Dict[str, object]:
        """Drive one pipelined chain; returns the header of hop 0's ``OK``.

        The chain ends where its header says (see the module docstring):
        with ``store`` targets at the helpers that commit the blocks, else
        here, its delivered slices going to ``sink``.
        """
        addresses = decision["addresses"]
        request_id = uuid.uuid4().hex
        header = {
            "plan": decision["plan"],
            "position": 0,
            "addresses": addresses,
            "request_id": request_id,
            **child_header(),
        }
        delivery: Optional[_Delivery] = None
        if store is not None:
            header["store"] = store
        else:
            header["deliver"] = list(self._deliver_address())
            delivery = self._deliveries[request_id] = _Delivery(plan, sink)
        # Deadline scaled with the plan's byte volume: every hop moves
        # ``block_size * num_failed`` packed bytes, so a big plan under a
        # rate limit gets time proportional to the work instead of the old
        # flat 120 s.
        deadline = transfer_timeout(
            plan.block_size * plan.num_failed * len(plan.hops)
        )
        try:
            first_hop = plan.hops[0]
            host, port = addresses[first_hop.node]
            async with self._pool.lease(str(host), int(port), "helper") as channel:
                await write_frame(channel, Op.CHAIN, header)
                # The chain acks bottom-up, so hop 0's OK means its end --
                # we, or every store target -- has already acked the last
                # slice.
                ack = await asyncio.wait_for(expect_frame(channel, Op.OK), timeout=deadline)
            if delivery is not None:
                await asyncio.wait_for(delivery.done.wait(), timeout=deadline)
            return ack.header
        finally:
            self._deliveries.pop(request_id, None)

    async def receive_delivery(self, frame: Frame, channel: FrameChannel) -> None:
        """Consume one delivery stream from the last hop of a chain.

        Validates it, then awaits the repair's sink per slice (see the
        module docstring); a sink that raises -- the reader went away --
        fails this handler, so the last hop gets ``ERROR`` and the chain's
        ack cascade fails back up to :meth:`_repair_chain`.
        """
        request_id = str(frame.header["request_id"])
        delivery = self._deliveries.get(request_id)
        if delivery is None:
            raise ProtocolError(f"delivery for unknown repair {request_id!r}")
        plan = delivery.plan
        while True:
            next_frame = await channel.read_frame()
            if next_frame is None:
                raise ProtocolError("delivery stream closed before DELIVER_END")
            if next_frame.op == Op.DELIVER:
                slice_index = int(next_frame.header["s"])
                if slice_index != delivery.delivered or slice_index >= plan.num_slices:
                    raise ProtocolError(
                        f"slice {slice_index} delivered where slice "
                        f"{delivery.delivered} of {plan.num_slices} was due"
                    )
                expected = plan.slice_sizes[slice_index] * plan.num_failed
                if len(next_frame.payload) != expected:
                    raise ProtocolError(
                        f"slice {slice_index} has {len(next_frame.payload)} "
                        f"bytes, expected {expected}"
                    )
                delivery.delivered += 1
                await delivery.sink(slice_index, next_frame.payload)
                continue
            if next_frame.op == Op.DELIVER_END:
                if delivery.delivered != plan.num_slices:
                    raise ProtocolError(
                        f"delivery ended after {delivery.delivered} of "
                        f"{plan.num_slices} slices"
                    )
                delivery.done.set()
                await write_frame(channel, Op.OK, {"request_id": request_id})
                return
            raise ProtocolError(f"unexpected {next_frame.op.name} in delivery stream")
