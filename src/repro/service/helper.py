"""The live helper agent.

One :class:`HelperAgent` runs next to every storage node.  It serves the
node's locally stored blocks (backed by the in-process
:class:`repro.ecpipe.Helper`, so the byte-exact read/combine routines and
their counters are reused verbatim) and executes its hop of the pipelined
repair chain ``N1 -> N2 -> ... -> Nk -> R``:

* a ``CHAIN`` frame (opened by the gateway at hop 0, or by the upstream
  helper for later hops) carries the serialised
  :class:`~repro.ecpipe.pipeline.SliceChainPlan` plus this hop's position;
* the hop leases its downstream from its pool -- the next hop's ``CHAIN``,
  or, at the end of the chain, the *requestor*: the gateway's ``DELIVER``
  stream when the block is wanted there (a degraded read), or one
  ``PUT_BLOCK_OPEN`` stream per failed block into the helper that will
  store it (a ``REPAIR``, whose ``CHAIN`` header names those ``store``
  targets) --
  and then, slice by slice, receives the packed upstream partial,
  XOR-accumulates its scaled local slice into that very buffer
  (:func:`~repro.ecpipe.pipeline.combine_partials`) and forwards it *before*
  touching the next slice, which is what pipelines the repair across hops.
  No copy in, none out: the local slice is a view of the stored block
  (:meth:`repro.ecpipe.Helper.read_slice`; the view keeps the block's bytes
  alive, so a ``DELETE_BLOCK`` mid-chain cannot touch a slice already
  combined or a frame already written), the buffer forwarded is the one
  received (a storing last hop forwards each failed block's section of it,
  as views, to that block's stream), and a frame of up to 64 KiB of payload
  is one ``send``;
* completion acks propagate back up the chain, so the gateway's ``OK`` from
  hop 0 means every slice reached the requestor -- and, for a storing
  chain, that every target committed its block: that ``OK`` carries the
  targets' SHA-256 digests of what they stored.

The other end of a storing chain is :meth:`HelperAgent._receive_block_stream`,
the same handler that takes the gateway's PUT spread: the block is validated
by :func:`~repro.service.protocol.receive_chunks`, becomes visible only at
``BLOCK_END``, and is hashed by this node when the opener asked for a
``digest``.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import time
from typing import Dict, List, Optional, Tuple

from repro.config import env_float
from repro.ecpipe.helper import Helper
from repro.ecpipe.pipeline import SliceChainPlan, combine_partials
from repro.obs.trace import SpanTimer, child_header, current_trace
from repro.service.protocol import (
    BLOCK_UPLOAD,
    Frame,
    FrameChannel,
    Op,
    ProtocolError,
    expect_frame,
    receive_chunks,
    transfer_timeout,
    write_frame,
)
from repro.service.server import FrameServer

#: Seconds between HEARTBEAT frames to the coordinator
#: (``REPRO_HEARTBEAT_INTERVAL``).  Must match the failure detector's
#: priming interval -- :func:`repro.service.detector.detector_from_env`
#: reads the same knob.
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: Per-beat reply timeout.  Short: a beat that cannot land is better
#: dropped (the next one is coming) than stacked behind a wedged
#: coordinator.
HEARTBEAT_TIMEOUT = 5.0


class HelperAgent(FrameServer):
    """A per-node helper daemon serving blocks and repair-chain hops.

    Parameters
    ----------
    node:
        Storage node name (must match the coordinator's stripe placement).
    host, port:
        Bind address (``port=0`` for ephemeral).
    coordinator:
        Optional ``(host, port)`` of the coordinator; when given, the agent
        registers its node and address on :meth:`start` so planners can
        route chains to it.
    """

    role = "helper"

    #: Block-storage ops traced by the base when the caller sent a context
    #: (the gateway's PUT fan-out, conventional-repair fetches).  CHAIN is
    #: absent on purpose: :meth:`_run_chain` records its own richer span.
    TRACE_OPS = frozenset(
        {Op.PUT_BLOCK, Op.GET_BLOCK, Op.PUT_BLOCK_OPEN, Op.DELETE_BLOCK}
    )
    STREAM_OPS = frozenset({Op.PUT_BLOCK_OPEN, Op.CHAIN})

    def __init__(
        self,
        node: str,
        host: str = "127.0.0.1",
        port: int = 0,
        coordinator: Optional[Tuple[str, int]] = None,
        heartbeat_interval: Optional[float] = None,
        metrics_port: Optional[int] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        super().__init__(
            host, port, node=node, metrics_port=metrics_port, trace_dir=trace_dir
        )
        self.helper = Helper(node)
        self._coordinator = coordinator
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else env_float(
                "REPRO_HEARTBEAT_INTERVAL", DEFAULT_HEARTBEAT_INTERVAL, minimum=0.01
            )
        )
        self._heartbeats_total = self.registry.counter(
            "helper_heartbeats_total",
            "Heartbeats acknowledged by the coordinator.",
        )
        self._chain_hops_total = self.registry.counter(
            "helper_chain_hops_total", "Repair-chain hops executed."
        )
        self._slice_bytes_total = self.registry.counter(
            "helper_slice_bytes_forwarded_total",
            "Packed slice bytes forwarded downstream by chain hops.",
        )
        self._accumulate_seconds = self.registry.histogram(
            "helper_accumulate_seconds",
            "GF scale-and-accumulate compute time per chain hop, seconds.",
        )
        self._store_blocks = self.registry.gauge(
            "helper_store_blocks", "Blocks currently stored on this node."
        )
        self._store_bytes = self.registry.gauge(
            "helper_store_bytes", "Bytes currently stored on this node."
        )

    @property
    def heartbeats_sent(self) -> int:
        """Heartbeats successfully acknowledged by the coordinator."""
        return int(self._heartbeats_total.value())

    @property
    def chains_executed(self) -> int:
        """Number of chain hops executed by this agent."""
        return int(self._chain_hops_total.value())

    def _refresh_metrics(self) -> None:
        self._store_blocks.set(len(self.helper.block_keys()))
        self._store_bytes.set(self.helper.store_bytes())

    async def start(self) -> "HelperAgent":
        if self.running:
            return self
        await super().start()
        if self._coordinator is not None:
            host, port = self.address
            await self.pool.request(
                *self._coordinator,
                Op.REGISTER_HELPER,
                {"node": self.node, "host": host, "port": port},
                peer="coordinator",
            )
            self._spawn(self._heartbeat_loop())
        return self

    async def _heartbeat_loop(self) -> None:
        """Periodically report liveness + stored-block inventory.

        Failures are swallowed: a down coordinator just misses beats (that
        is the signal its failure detector consumes about *us* -- nothing to
        escalate here), and the next beat retries the connection anyway.
        """
        assert self._coordinator is not None
        while True:
            try:
                host, port = self.address
                await self.pool.request(
                    *self._coordinator,
                    Op.HEARTBEAT,
                    {
                        "node": self.node,
                        "host": host,
                        "port": port,
                        "blocks": sorted(self.helper.block_keys()),
                    },
                    timeout=HEARTBEAT_TIMEOUT,
                    attempts=1,
                    peer="coordinator",
                )
                self._heartbeats_total.inc()
            except asyncio.CancelledError:
                raise
            except Exception:
                pass
            if self._shutdown.is_set():  # request() may have swallowed the cancel
                return
            await asyncio.sleep(self.heartbeat_interval)

    # -------------------------------------------------------------- dispatch
    async def handle(self, frame: Frame, channel: FrameChannel) -> None:
        if frame.op == Op.PUT_BLOCK:
            self.helper.store_block(str(frame.header["key"]), frame.payload)
            await write_frame(channel, Op.OK, {"stored": len(frame.payload)})
        elif frame.op == Op.GET_BLOCK:
            key = str(frame.header["key"])
            if "offset" in frame.header or "length" in frame.header:
                # Ranged read: the gateway fetches oversized blocks in
                # bounded chunks, so no reply frame ever nears MAX_FRAME.
                offset = int(frame.header.get("offset", 0))
                length = int(frame.header["length"])
                payload = self.helper.read_slice(key, offset, length)
            else:
                payload = self.helper.read_block(key)
            self.helper.bytes_sent += len(payload)
            await write_frame(channel, Op.OK, {}, payload)
        elif frame.op == Op.PUT_BLOCK_OPEN:
            await self._receive_block_stream(frame, channel)
        elif frame.op == Op.DELETE_BLOCK:
            self.helper.delete_block(str(frame.header["key"]))
            await write_frame(channel, Op.OK, {})
        elif frame.op == Op.HAS_BLOCK:
            present = self.helper.has_block(str(frame.header["key"]))
            await write_frame(channel, Op.OK, {"present": present})
        elif frame.op == Op.CHAIN:
            await self._run_chain(frame, channel)
        else:
            await super().handle(frame, channel)

    def stat(self) -> Dict[str, object]:
        base = super().stat()
        base.update(
            node=self.node,
            blocks=len(self.helper.block_keys()),
            blocks_read=self.helper.blocks_read,
            bytes_read=self.helper.bytes_read,
            bytes_sent=self.helper.bytes_sent,
            chains_executed=self.chains_executed,
            heartbeats_sent=self.heartbeats_sent,
        )
        return base

    # ----------------------------------------------------------- chain hops
    async def _run_chain(self, frame: Frame, channel: FrameChannel) -> None:
        """Execute this agent's hop of a pipelined repair chain.

        The last hop of a chain whose header names ``store`` targets is
        where a ``REPAIR`` stops being the gateway's business: it streams
        section ``j`` of every repaired slice into target ``j``'s
        ``PUT_BLOCK_OPEN`` stream as the slice is produced, and its ``OK``
        -- relayed unchanged by every hop above it -- carries the digests
        the targets computed over what they committed.  Any failure below
        (a target that refuses, dies, or rejects a chunk) aborts every lease
        of this hop, so no target commits a partial block, and fails this
        handler, which is what cascades ``ERROR`` back up.
        """
        plan = SliceChainPlan.from_dict(frame.header["plan"])
        position = int(frame.header["position"])
        if not 0 <= position < len(plan.hops):
            raise ProtocolError(f"chain position {position} outside the plan")
        hop = plan.hops[position]
        if hop.node != self.node:
            raise ProtocolError(
                f"chain hop {position} belongs to {hop.node!r}, not {self.node!r}"
            )
        request_id = str(frame.header["request_id"])
        last = position == len(plan.hops) - 1
        storing = last and "store" in frame.header
        ctx = current_trace()

        forwarded = 0
        accumulate_seconds = 0.0
        with SpanTimer(
            self.spans,
            ctx,
            "CHAIN",
            position=position,
            last=last,
            slices=len(plan.slice_sizes),
        ) as span:
            try:
                async with contextlib.AsyncExitStack() as leases:
                    downs = await self._open_downstream(leases, frame, plan, position, ctx)
                    down = downs[0]
                    coefficients = plan.hop_coefficients(position)
                    offset = 0
                    for slice_index, nbytes in enumerate(plan.slice_sizes):
                        # The upstream partial is this hop's to accumulate
                        # into and forward: no copy in, none out.
                        incoming = (
                            (await expect_frame(channel, Op.SLICE)).payload
                            if position > 0
                            else None
                        )
                        local = self.helper.read_slice(hop.key, offset, nbytes)
                        accumulate_begin = time.perf_counter()
                        packed = combine_partials(incoming, coefficients, local)
                        accumulate_seconds += time.perf_counter() - accumulate_begin
                        if storing:
                            # The packed layout is one section per failed
                            # block, in plan order -- the order of ``downs``.
                            sections = memoryview(packed)
                            for j, target in enumerate(downs):
                                await write_frame(
                                    target,
                                    BLOCK_UPLOAD.chunk,
                                    {"off": offset},
                                    sections[j * nbytes:(j + 1) * nbytes],
                                )
                        elif last:
                            # One frame per slice, still in the packed layout; the
                            # requestor splits it back into per-block sections.
                            await write_frame(
                                down,
                                Op.DELIVER,
                                {"request_id": request_id, "s": slice_index},
                                packed,
                            )
                        else:
                            await write_frame(down, Op.SLICE, {"s": slice_index}, packed)
                        self.helper.bytes_sent += len(packed)
                        forwarded += len(packed)
                        offset += nbytes
                    if storing:
                        for target in downs:
                            await write_frame(target, BLOCK_UPLOAD.end)
                    elif last:
                        await write_frame(down, Op.DELIVER_END, {"request_id": request_id})
                    # Wait for the downstream ack so OK means "delivered" --
                    # for a storing chain, "committed" -- not "sent"; the ack
                    # cascades back up to the chain's initiator.  Bounded by
                    # the bytes still moving below this hop, so a wedged
                    # downstream cannot park this hop's task forever while a
                    # rate-limited but progressing chain is not falsely
                    # aborted.
                    remaining = (
                        plan.block_size * plan.num_failed * (len(plan.hops) - position)
                    )
                    acks = [
                        await asyncio.wait_for(
                            expect_frame(target, Op.OK), timeout=transfer_timeout(remaining)
                        )
                        for target in downs
                    ]
            finally:
                span.nbytes = forwarded
                self._slice_bytes_total.inc(forwarded)
                self._accumulate_seconds.observe(accumulate_seconds)
        self._chain_hops_total.inc()
        reply: Dict[str, object] = {"position": position, "node": self.node}
        # What the targets stored, in plan order: set by the last hop of a
        # storing chain, relayed by every hop above it.
        if storing:
            reply["sha256"] = [ack.header["sha256"] for ack in acks]
        elif "sha256" in acks[0].header:
            reply["sha256"] = acks[0].header["sha256"]
        await write_frame(channel, Op.OK, reply)

    async def _open_downstream(
        self,
        leases: contextlib.AsyncExitStack,
        frame: Frame,
        plan: SliceChainPlan,
        position: int,
        ctx,
    ) -> List[FrameChannel]:
        """Lease and open what hop ``position`` forwards into.

        One connection -- the next hop's ``CHAIN``, or the gateway's
        ``DELIVER`` stream at the end of a delivering chain -- or, at the end
        of a storing chain, one ``PUT_BLOCK_OPEN`` stream per failed block in
        plan order.  Every opener carries a child trace context, so the chain
        shows up as nested spans -- the paper's pipelining is the bars of
        those spans overlapping almost entirely -- and a stored block's
        ``PUT_BLOCK_OPEN`` span hangs under the last hop's.
        """
        header, trace = frame.header, child_header(ctx)
        if position < len(plan.hops) - 1:
            next_node = plan.hops[position + 1].node
            try:
                address = header["addresses"][next_node]
            except KeyError:
                raise ProtocolError(f"no address for next hop {next_node!r}") from None
            openers = [
                (address, "helper", Op.CHAIN, {**header, "position": position + 1, **trace})
            ]
        elif "store" in header:
            targets = header["store"]
            if not isinstance(targets, list) or len(targets) != plan.num_failed:
                raise ProtocolError(
                    f"chain names {targets!r} as store targets of "
                    f"{plan.num_failed} failed block(s)"
                )
            openers = [
                (
                    target["address"],
                    "helper",
                    BLOCK_UPLOAD.open,
                    {"key": str(target["key"]), "size": plan.block_size, "digest": True, **trace},
                )
                for target in targets
            ]
        else:
            delivery = {
                "request_id": str(header["request_id"]),
                "failed": list(plan.failed),
                "slice_sizes": list(plan.slice_sizes),
                **trace,
            }
            openers = [(header["deliver"], "gateway", Op.DELIVER_OPEN, delivery)]
        downs = []
        for address, peer, op, opener in openers:
            down = await leases.enter_async_context(
                self.pool.lease(str(address[0]), int(address[1]), peer)
            )
            await write_frame(down, op, opener)
            downs.append(down)
        return downs

    # ----------------------------------------------------- streamed uploads
    async def _receive_block_stream(self, frame: Frame, channel: FrameChannel) -> None:
        """Consume one chunked block upload (PUT_BLOCK_OPEN .. BLOCK_END).

        The opener announces the final block size, and the block becomes
        visible to readers only when BLOCK_END commits it -- a half-received
        block is never served.  With ``digest`` in the opener (the last hop
        of a storing repair chain sends it; the gateway's PUT spread, which
        hashes the object once itself, does not) the ``OK`` also carries the
        SHA-256 of the bytes just committed.
        """
        key = str(frame.header["key"])
        size = int(frame.header["size"])
        if size <= 0:
            raise ProtocolError(f"streamed block {key!r} has invalid size {size}")
        chunks: List[bytes] = []
        await receive_chunks(
            channel, BLOCK_UPLOAD, size, lambda _offset, chunk: chunks.append(chunk)
        )
        # The one copy of a streamed block: out of its frames, into the store.
        block = b"".join(chunks)
        self.helper.store_block(key, block)
        reply: Dict[str, object] = {"stored": size}
        if frame.header.get("digest"):
            reply["sha256"] = hashlib.sha256(block).hexdigest()
        await write_frame(channel, Op.OK, reply)
