"""The requestor ``R`` of the repair chain.

A gateway reconstructs lost blocks through its :class:`ChainRequestor`,
which asks the coordinator for a plan and dispatches on the scheme that
plan says to run, mirroring the model exactly:

* ``rp`` / ``pipe_s`` -- slice-granular chain (``CHAIN`` + ``SLICE``
  streaming), helpers combine zero-copy; the last hop delivers the slices
  back, reassembled by the same
  :class:`~repro.ecpipe.pipeline.BlockAssembler` state machine the
  in-process data plane trusts;
* ``pipe_b`` -- the same chain with one block-sized slice;
* ``conventional`` -- the requestor fans whole helper blocks into itself
  and decodes locally with the plan's coefficient rows.
"""

from __future__ import annotations

import asyncio
import uuid
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Sequence, Tuple

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

#: Default pipelining unit of service repairs (capped at the block size by
#: the coordinator).
DEFAULT_SLICE_SIZE = 64 * 1024


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
    assemblers: Dict[int, BlockAssembler] = field(default_factory=dict)
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def __post_init__(self) -> None:
        for failed_index in self.plan.failed:
            self.assemblers[failed_index] = BlockAssembler(self.plan.slice_sizes)


class ChainRequestor:
    """Plans, drives and reassembles repairs on behalf of one gateway.

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

        This is the gateway's data-plane core, used by degraded reads and
        repairs alike.  The reconstructed bytes are byte-identical to the
        in-process :meth:`repro.ecpipe.ECPipe.repair_pipelined` /
        :meth:`~repro.ecpipe.ECPipe.repair_conventional` for the same stripe
        and scheme -- the parity the service test suite pins.
        """
        reply = await self._coordinator_request(
            Op.PLAN_REPAIR,
            {
                "stripe_id": int(stripe_id),
                "failed": [int(i) for i in failed],
                "requestors": ["gateway"],
                "slice_size": DEFAULT_SLICE_SIZE,
                **options,
            },
        )
        decision = reply.header
        # The coordinator may override the requested scheme (e.g. a 1-hop
        # chain is served conventionally); dispatch AND account on what
        # actually ran, while the requested counter keeps the caller's view.
        executed = str(decision["scheme"])
        if executed == "conventional":
            repaired = await self._repair_conventional(decision)
        else:
            repaired = await self._repair_chain(decision)
        self._repairs_requested_total.inc(scheme=str(decision["requested_scheme"]))
        self._repairs_executed_total.inc(scheme=executed)
        return repaired

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

    async def _repair_chain(self, decision: Dict[str, object]) -> Dict[int, bytes]:
        """Drive one pipelined chain and reassemble the delivered slices."""
        plan = SliceChainPlan.from_dict(decision["plan"])
        addresses = decision["addresses"]
        request_id = uuid.uuid4().hex
        delivery = _Delivery(plan)
        self._deliveries[request_id] = delivery
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
                await write_frame(
                    channel,
                    Op.CHAIN,
                    {
                        "plan": decision["plan"],
                        "position": 0,
                        "addresses": addresses,
                        "deliver": list(self._deliver_address()),
                        "request_id": request_id,
                        **child_header(),
                    },
                )
                # The chain acks bottom-up, so hop 0's OK means the requestor
                # (us) has already acked DELIVER_END.
                await asyncio.wait_for(expect_frame(channel, Op.OK), timeout=deadline)
            await asyncio.wait_for(delivery.done.wait(), timeout=deadline)
            return {
                failed_index: assembler.assemble()
                for failed_index, assembler in delivery.assemblers.items()
            }
        finally:
            self._deliveries.pop(request_id, None)

    async def receive_delivery(self, frame: Frame, channel: FrameChannel) -> None:
        """Consume one delivery stream from the last hop of a chain."""
        request_id = str(frame.header["request_id"])
        delivery = self._deliveries.get(request_id)
        if delivery is None:
            raise ProtocolError(f"delivery for unknown repair {request_id!r}")
        while True:
            next_frame = await channel.read_frame()
            if next_frame is None:
                raise ProtocolError("delivery stream closed before DELIVER_END")
            if next_frame.op == Op.DELIVER:
                slice_index = int(next_frame.header["s"])
                # The payload is still in the chain's packed layout (one
                # section per failed block, in plan order).
                sections = split_packed(
                    memoryview(next_frame.payload), delivery.plan.num_failed
                )
                for failed_index, section in zip(delivery.plan.failed, sections):
                    delivery.assemblers[failed_index].add(slice_index, section)
                continue
            if next_frame.op == Op.DELIVER_END:
                incomplete = [
                    f for f, a in delivery.assemblers.items() if not a.complete
                ]
                if incomplete:
                    raise ProtocolError(
                        f"delivery ended with incomplete blocks {incomplete}"
                    )
                delivery.done.set()
                await write_frame(channel, Op.OK, {"request_id": request_id})
                return
            raise ProtocolError(f"unexpected {next_frame.op.name} in delivery stream")
