"""The live gateway: client API front end of a deployment.

The gateway is the deployment's front door.  Clients
(:class:`~repro.service.client.ServiceClient`) speak to it with simple
framed requests (``PUT`` / ``GET`` / ``READ_BLOCK`` / ``REPAIR``); it speaks
to the coordinator for every control-plane decision and to the helper
agents for every byte.  Lost blocks are reconstructed by its
:class:`~repro.service.requestor.ChainRequestor`, which plans every repair
and is the requestor ``R`` of the chains whose block a reader is waiting for
here (it consumes the delivery stream the last helper opens back to the
gateway).  A ``REPAIR`` wants its blocks in storage, not here: its chain ends
at the helpers that will hold them, and the gateway never holds a block it
repairs for storage.

The data plane *streams*.  Objects larger than the transfer chunk
(:func:`~repro.service.protocol.chunk_size_from_env`, default 64 MiB) never
travel in one frame: clients upload ``PUT_OPEN``/``PUT_CHUNK`` streams, and
GET replies stream ``GET_CHUNK`` frames while the k data blocks are fetched
concurrently.  A degraded ``READ_BLOCK`` streams too: each slice the repair
chain delivers leaves for the reader as a ``GET_CHUNK`` at once, so the
gateway never holds the block it is repairing.  Every PUT, whatever frames
it arrived in, is encoded in bounded segments over stacked numpy views of
the padded object buffer and spread to the helpers over per-block
``PUT_BLOCK_OPEN`` streams with bounded fan-out.  Several gateways can front
one deployment; the client load balances round-robin over the set and fails
over on connection errors.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codes.registry import code_from_spec
from repro.ecpipe.coordinator import block_key
from repro.obs.trace import child_header
from repro.service.placement import rotated_placement
from repro.service.protocol import (
    BLOCK_UPLOAD,
    OBJECT_DOWNLOAD,
    OBJECT_UPLOAD,
    Frame,
    FrameChannel,
    Op,
    ProtocolError,
    RemoteError,
    chunk_size_from_env,
    expect_frame,
    receive_chunks,
    send_chunks,
    transfer_timeout,
    write_frame,
)
from repro.service.requestor import ChainRequestor, repair_options
from repro.service.server import FrameServer

#: Concurrent per-block helper uploads of one PUT.  Bounds in-flight encode
#: output to roughly this many segment buffers on top of ``write_frame``'s
#: ``drain()`` backpressure.
PUT_FANOUT = 4

#: Concurrent data-block fetches of one GET.
GET_FANOUT = 4

#: Seconds between registration retries while the coordinator is unreachable.
REGISTER_RETRY_INTERVAL = 0.2

#: Seconds between re-announcements once registered -- how long a
#: coordinator restarted with an in-memory store goes without knowing this
#: gateway.
DEFAULT_ANNOUNCE_INTERVAL = 2.0


class Gateway(FrameServer):
    """Client front end of a deployment.

    Parameters
    ----------
    coordinator:
        ``(host, port)`` of the coordinator server.
    host, port:
        Bind address of the gateway itself.
    chunk_size:
        Transfer chunk of the streaming data plane; defaults to
        ``REPRO_CHUNK_SIZE`` (64 MiB).
    """

    role = "gateway"

    #: Client-facing ops start a trace when the caller did not send one;
    #: DELIVER_OPEN only continues the chain's existing trace.
    TRACE_ROOT_OPS = frozenset(
        {Op.PUT, Op.PUT_OPEN, Op.GET, Op.READ_BLOCK, Op.REPAIR, Op.INJECT_ERASE}
    )
    TRACE_OPS = frozenset({Op.DELIVER_OPEN})
    STREAM_OPS = frozenset({Op.PUT_OPEN, Op.GET, Op.DELIVER_OPEN})

    def __init__(
        self,
        coordinator: Tuple[str, int],
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_size: Optional[int] = None,
        node: str = "",
        metrics_port: Optional[int] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        super().__init__(
            host, port, node=node, metrics_port=metrics_port, trace_dir=trace_dir
        )
        self._coordinator = coordinator
        self._helper_cache: Dict[str, Tuple[str, int]] = {}
        self.chunk_size = (
            max(1, int(chunk_size)) if chunk_size is not None else chunk_size_from_env()
        )
        self.announce_interval = DEFAULT_ANNOUNCE_INTERVAL
        self._puts_total = self.registry.counter(
            "gateway_puts_total", "Objects written through this gateway."
        )
        self._gets_total = self.registry.counter(
            "gateway_gets_total", "Objects read through this gateway."
        )
        self._degraded_reads_total = self.registry.counter(
            "gateway_degraded_reads_total",
            "Blocks reconstructed on the read path instead of fetched.",
        )
        self._bytes_in_total = self.registry.counter(
            "gateway_bytes_in_total", "Object bytes accepted by PUT."
        )
        self._bytes_out_total = self.registry.counter(
            "gateway_bytes_out_total", "Object bytes served by GET."
        )
        self._encode_seconds = self.registry.histogram(
            "gateway_encode_seconds", "Erasure-encode time per PUT."
        )
        self._put_fanout_inflight = self.registry.gauge(
            "gateway_put_fanout_inflight",
            "Helper upload slots of chunked PUTs currently busy.",
        )
        self.requestor = ChainRequestor(
            self.registry,
            self.pool,
            self._coordinator_request,
            self._fetch_block,
            lambda: self.address,
        )
        #: Is the coordinator currently known to have our address?
        self.registered = False
        #: Successful (re-)registrations with the coordinator.
        self.registrations = 0
        self._register_wake: Optional[asyncio.Event] = None

    async def start(self) -> "Gateway":
        if self.running:
            return self
        await super().start()
        self._register_wake = asyncio.Event()
        # Announce ourselves so the coordinator's repair scanner has a
        # repair executor to drive, and clients can discover us through the
        # GATEWAYS op.  A coordinator that is down right now is retried in
        # the background until registration lands, and the loop keeps
        # re-announcing so a restarted coordinator relearns us.
        await self._register_once()
        self._spawn(self._register_loop())
        return self

    # --------------------------------------------------------- registration
    @property
    def gateway_name(self) -> str:
        """Stable registry identity: ``host:port`` of the bound address."""
        host, port = self.address
        return f"{host}:{port}"

    async def _register_once(self) -> bool:
        host, port = self.address
        try:
            await self.pool.request(
                *self._coordinator,
                Op.REGISTER_GATEWAY,
                {"host": host, "port": port, "name": self.gateway_name},
                attempts=1,
                peer="coordinator",
            )
        except asyncio.CancelledError:
            raise
        except Exception:
            self.registered = False
            return False
        if not self.registered:
            self.registrations += 1
        self.registered = True
        return True

    async def _register_loop(self) -> None:
        """Retry registration until it lands, then keep re-announcing.

        Fast retries while unregistered (a gateway booted before its
        coordinator must become known the moment the coordinator is up), a
        slow announce cadence afterwards (a coordinator restarted without a
        store relearns us within one interval).  A successful control-plane
        call while unregistered wakes the loop immediately -- the
        coordinator is demonstrably reachable, so registration must not
        wait out the backoff.
        """
        assert self._register_wake is not None
        while not self._shutdown.is_set():
            interval = (
                self.announce_interval if self.registered else REGISTER_RETRY_INTERVAL
            )
            try:
                await asyncio.wait_for(self._register_wake.wait(), timeout=interval)
            except asyncio.TimeoutError:
                pass
            self._register_wake.clear()
            await self._register_once()

    # --------------------------------------------------------------- helpers
    async def _coordinator_request(
        self, op: Op, header: Dict[str, object], payload: bytes = b""
    ) -> Frame:
        reply = await self.pool.request(
            *self._coordinator, op, {**header, **child_header()}, payload, peer="coordinator"
        )
        if not self.registered and self._register_wake is not None:
            # Piggy-back: this call just proved the coordinator reachable,
            # so an unregistered gateway re-registers now, not a retry
            # interval from now.
            self._register_wake.set()
        return reply

    async def _helper_map(self, refresh: bool = False) -> Dict[str, Tuple[str, int]]:
        if refresh or not self._helper_cache:
            reply = await self._coordinator_request(Op.HELPERS, {})
            self._helper_cache = {
                node: (str(addr[0]), int(addr[1]))
                for node, addr in reply.header["helpers"].items()
            }
        return self._helper_cache

    async def _helper_address(self, node: str) -> Tuple[str, int]:
        helpers = await self._helper_map()
        if node not in helpers:
            helpers = await self._helper_map(refresh=True)
        try:
            return helpers[node]
        except KeyError:
            raise KeyError(f"no helper registered for node {node!r}") from None

    # ----------------------------------------------------------- block I/O
    async def _helper_request(
        self, host: str, port: int, op: Op, header: Dict[str, object], payload=b"", **retry
    ) -> Frame:
        """One pooled request to a helper, carrying the current trace."""
        return await self.pool.request(
            str(host), int(port), op, {**header, **child_header()}, payload, peer="helper", **retry
        )

    async def _fetch_block(
        self, host: str, port: int, key: str, size: int
    ) -> bytes:
        """Fetch one stored block, ranged when it exceeds the chunk size.

        Single attempt per request: a dead helper must fail the caller fast
        so it can re-plan with an exclusion, not stall behind retries.
        """
        if size <= self.chunk_size:
            reply = await self._helper_request(
                host, port, Op.GET_BLOCK, {"key": key}, attempts=1
            )
            return reply.payload
        parts: List[bytes] = []
        for offset in range(0, size, self.chunk_size):
            length = min(self.chunk_size, size - offset)
            reply = await self._helper_request(
                host,
                port,
                Op.GET_BLOCK,
                {"key": key, "offset": offset, "length": length},
                attempts=1,
            )
            if len(reply.payload) != length:
                raise ProtocolError(
                    f"ranged read of {key!r} returned {len(reply.payload)} "
                    f"of {length} bytes"
                )
            parts.append(reply.payload)
        return b"".join(parts)

    async def _store_block(self, host: str, port: int, key: str, payload: bytes) -> None:
        """Store one repaired block, streamed when it exceeds the chunk."""
        if len(payload) <= self.chunk_size:
            await self._helper_request(host, port, Op.PUT_BLOCK, {"key": key}, payload)
            return
        await self.pool.upload_stream(
            str(host),
            int(port),
            BLOCK_UPLOAD,
            {"key": key, "size": len(payload), **child_header()},
            payload,
            self.chunk_size,
            peer="helper",
        )

    # -------------------------------------------------------------- dispatch
    async def handle(self, frame: Frame, channel: FrameChannel) -> None:
        if frame.op == Op.DELIVER_OPEN:
            await self.requestor.receive_delivery(frame, channel)
        elif frame.op == Op.PUT:
            await write_frame(channel, Op.OK, await self._put(frame.header, frame.payload))
        elif frame.op == Op.PUT_OPEN:
            await self._receive_put(frame, channel)
        elif frame.op == Op.GET:
            await self._serve_get(frame.header, channel)
        elif frame.op == Op.READ_BLOCK:
            await self._serve_read_block(frame.header, channel)
        elif frame.op == Op.REPAIR:
            await write_frame(channel, Op.OK, await self._repair(frame.header))
        elif frame.op == Op.INJECT_ERASE:
            await write_frame(channel, Op.OK, await self._erase(frame.header))
        else:
            await super().handle(frame, channel)

    def stat(self) -> Dict[str, object]:
        base = super().stat()
        base.update(
            **self.requestor.stat(),
            registered=self.registered,
            registrations=self.registrations,
            chunk_size=self.chunk_size,
        )
        return base

    # ------------------------------------------------------------ client ops
    @staticmethod
    def _stripe_buffer(header: Dict[str, object], size: int):
        """The code of a PUT and its zeroed ``k * block_size`` object buffer."""
        code = code_from_spec(header["code"])
        if size <= 0:
            raise ValueError("cannot put an empty object")
        return code, bytearray(code.k * max(1, math.ceil(size / code.k)))

    async def _put(self, header: Dict[str, object], payload: bytes) -> Dict[str, object]:
        """Single-frame PUT: the whole object arrived in one frame."""
        code, padded = self._stripe_buffer(header, len(payload))
        padded[: len(payload)] = payload
        return await self._encode_and_spread(header, code, padded, len(payload))

    async def _receive_put(self, frame: Frame, channel: FrameChannel) -> None:
        """Chunked PUT: ``PUT_OPEN {size}``, ``PUT_CHUNK`` ..., ``PUT_END``.

        The upload lands in the padded stripe buffer directly (no joins).
        """
        size = int(frame.header["size"])
        code, padded = self._stripe_buffer(frame.header, size)

        def land(offset: int, chunk: bytes) -> None:
            padded[offset:offset + len(chunk)] = chunk

        await receive_chunks(channel, OBJECT_UPLOAD, size, land)
        result = await self._encode_and_spread(frame.header, code, padded, size)
        await write_frame(channel, Op.OK, result)

    async def _encode_and_spread(
        self,
        header: Dict[str, object],
        code,
        padded: bytearray,
        object_size: int,
    ) -> Dict[str, object]:
        """Place, register and store one stripe from its padded object buffer.

        Both PUT wire forms end here, so a stripe's blocks do not depend on
        how its object arrived (a pinned regression).
        """
        stripe_id = int(header["stripe_id"])
        block_size = len(padded) // code.k
        helpers = await self._helper_map(refresh=True)
        locations = rotated_placement(stripe_id, code.n, helpers)
        await self._coordinator_request(
            Op.REGISTER_STRIPE,
            {
                "stripe_id": stripe_id,
                "code": dict(header["code"]),
                "locations": {str(i): node for i, node in locations.items()},
                "block_size": block_size,
                "object_size": object_size,
            },
        )
        await self._spread_chunked(stripe_id, code, padded, block_size, helpers, locations)
        self._puts_total.inc()
        self._bytes_in_total.inc(object_size)
        return {
            "stripe_id": stripe_id,
            "block_size": block_size,
            "n": code.n,
            "k": code.k,
            "sha256": hashlib.sha256(memoryview(padded)[:object_size]).hexdigest(),
        }

    async def _spread_chunked(
        self,
        stripe_id: int,
        code,
        padded: bytearray,
        block_size: int,
        helpers: Dict[str, Tuple[str, int]],
        locations: Dict[int, str],
    ) -> None:
        """Encode segment-wise and stream every coded block to its helper.

        The padded object buffer is viewed as a ``(k, block_size)`` numpy
        array (zero-copy).  The ``k`` systematic blocks are its rows and are
        streamed straight from it; each bounded segment costs one GF encode
        (:meth:`ErasureCode.encode_into` over the stacked column slice) of
        the ``n - k`` parity blocks into *fresh* output buffers -- a frame's
        payload belongs to its channel once written, so a buffer is never
        encoded into twice.  All ``n`` streams run on connections leased
        from the pool and are fanned out under a concurrency cap.  Peak
        memory is the object buffer plus the parity segments still in
        flight -- independent of the object size beyond the buffer itself.
        """
        n, k = code.n, code.k
        data = np.frombuffer(padded, dtype=np.uint8).reshape(k, block_size)
        segment = max(1, min(block_size, math.ceil(self.chunk_size / k)))
        fanout = asyncio.Semaphore(PUT_FANOUT)
        async with contextlib.AsyncExitStack() as leases:
            streams: List[FrameChannel] = []
            for i in range(n):
                host, port = helpers[locations[i]]
                stream = await leases.enter_async_context(
                    self.pool.lease(host, port, "helper")
                )
                streams.append(stream)
                await write_frame(
                    stream,
                    BLOCK_UPLOAD.open,
                    {
                        "key": block_key(stripe_id, i),
                        "size": block_size,
                        **child_header(),
                    },
                )

            async def send(index: int, offset: int, chunk: np.ndarray) -> None:
                async with fanout:
                    self._put_fanout_inflight.inc()
                    try:
                        await send_chunks(
                            streams[index], BLOCK_UPLOAD, chunk, segment, offset
                        )
                    finally:
                        self._put_fanout_inflight.dec()

            encode_seconds = 0.0
            for offset in range(0, block_size, segment):
                length = min(segment, block_size - offset)
                columns = data[:, offset:offset + length]
                parity = [np.empty(length, dtype=np.uint8) for _ in range(n - k)]
                clock = time.perf_counter()
                code.encode_into(columns, [None] * k + parity)
                encode_seconds += time.perf_counter() - clock
                blocks = [*columns, *parity]
                await asyncio.gather(
                    *(send(i, offset, blocks[i]) for i in range(n))
                )
            self._encode_seconds.observe(encode_seconds)
            for stream in streams:
                await write_frame(stream, BLOCK_UPLOAD.end)
            await asyncio.gather(
                *(
                    asyncio.wait_for(
                        expect_frame(stream, Op.OK),
                        timeout=transfer_timeout(block_size),
                    )
                    for stream in streams
                )
            )

    async def _serve_get(self, header: Dict[str, object], channel: FrameChannel) -> None:
        """Read an object back; lost data blocks take the degraded-read path.

        The ``k`` data blocks are fetched concurrently under a fan-out cap.
        Small objects answer with one OK frame exactly as before; larger
        ones reply ``OK {stream: true}`` followed by in-order ``GET_CHUNK``
        frames and a ``GET_END`` carrying the digest and degraded set, so
        the first byte leaves as soon as block 0 arrives.
        """
        stripe_id = int(header["stripe_id"])
        options = repair_options(header)
        info = (await self._coordinator_request(Op.STRIPES, {"stripe_id": stripe_id})).header
        k = int(code_from_spec(info["code"]).k)
        object_size = int(info["object_size"])
        block_size = int(info["block_size"])
        degraded: List[int] = []
        fanout = asyncio.Semaphore(GET_FANOUT)
        tasks = [
            asyncio.create_task(
                self._fetch_data_block(stripe_id, i, info, fanout, options, degraded)
            )
            for i in range(k)
        ]
        try:
            if object_size <= self.chunk_size:
                parts = await asyncio.gather(*tasks)
                payload = b"".join(parts)[:object_size]
                self._gets_total.inc()
                self._bytes_out_total.inc(len(payload))
                await write_frame(
                    channel,
                    Op.OK,
                    {
                        "stripe_id": stripe_id,
                        "degraded_blocks": sorted(degraded),
                        "sha256": hashlib.sha256(payload).hexdigest(),
                    },
                    payload,
                )
                return
            await write_frame(
                channel,
                OBJECT_DOWNLOAD.open,
                {"stripe_id": stripe_id, "stream": True, "size": object_size},
            )
            digest = hashlib.sha256()
            sent = 0
            for task in tasks:
                part = memoryview(await task)[: min(block_size, object_size - sent)]
                sent = await send_chunks(
                    channel, OBJECT_DOWNLOAD, part, self.chunk_size, sent
                )
                digest.update(part)
            self._gets_total.inc()
            self._bytes_out_total.inc(sent)
            await write_frame(
                channel,
                OBJECT_DOWNLOAD.end,
                {
                    "stripe_id": stripe_id,
                    "degraded_blocks": sorted(degraded),
                    "sha256": digest.hexdigest(),
                },
            )
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _fetch_data_block(
        self,
        stripe_id: int,
        index: int,
        info: Dict[str, object],
        fanout: asyncio.Semaphore,
        options: Dict[str, object],
        degraded: List[int],
    ) -> bytes:
        """Fetch one data block, falling back to a live repair when lost."""
        async with fanout:
            node = str(info["locations"][str(index)])
            block_size = int(info["block_size"])
            try:
                host, port = await self._helper_address(node)
                # Single attempt inside _fetch_block: the degraded-read
                # fallback below is the retry -- stacking transport retries
                # in front of it would stall foreground reads through a
                # fault window.
                return await self._fetch_block(
                    host, port, block_key(stripe_id, index), block_size
                )
            except (RemoteError, ConnectionError, OSError, ProtocolError, asyncio.TimeoutError):
                repaired = await self.requestor.repair_blocks(stripe_id, [index], options)
                degraded.append(index)
                self._degraded_reads_total.inc()
                return repaired[index]

    async def _serve_read_block(
        self, header: Dict[str, object], channel: FrameChannel
    ) -> None:
        """Read one block, reconstructing it when lost (degraded read).

        A stored block, and one repaired conventionally, answer with one
        ``OK`` frame.  A block repaired by a pipelined chain is *streamed*:
        ``OK {stream, size}``, then every repaired slice as a ``GET_CHUNK``
        the moment the last hop delivers it -- this method's sink is the
        reader's own connection, hashed as it goes -- then ``GET_END`` with
        the same fields as the one-frame reply.  The sink awaits the reader's
        ``drain()``, so the gateway holds a few slices of the block, never
        the block.  A failure before the stream opens answers ``ERROR`` and
        keeps the connection; one after it ends the stream with ``ERROR``
        and the connection with it (:class:`~repro.service.server.FrameServer`).
        """
        stripe_id = int(header["stripe_id"])
        block = int(header["block"])
        options = repair_options(header)
        reply = {"stripe_id": stripe_id, "block": block}

        async def one_frame(payload, repaired: bool) -> None:
            reply.update(repaired=repaired, sha256=hashlib.sha256(payload).hexdigest())
            await write_frame(channel, Op.OK, reply, payload)

        if not bool(header.get("force_repair", False)):
            locate = await self._coordinator_request(
                Op.LOCATE, {"stripe_id": stripe_id, "block": block}
            )
            host, port = locate.header["address"]
            try:
                # Single attempt, as in get(): the repair fallback is the
                # retry path for an unreachable replica.
                stored = await self._helper_request(
                    host, port, Op.GET_BLOCK, {"key": locate.header["key"]}, attempts=1
                )
            except (RemoteError, ConnectionError, OSError, ProtocolError, asyncio.TimeoutError):
                self._degraded_reads_total.inc()
            else:
                await one_frame(stored.payload, repaired=False)
                return
        decision = await self.requestor.plan(stripe_id, [block], options)
        if not self.requestor.pipelined(decision):
            repaired = await self.requestor.execute(decision)
            await one_frame(repaired[block], repaired=True)
            return
        await write_frame(
            channel,
            OBJECT_DOWNLOAD.open,
            {**reply, "stream": True, "size": int(decision["block_size"])},
        )
        digest = hashlib.sha256()
        sent = 0

        async def to_reader(slice_index: int, packed: bytearray) -> None:
            # One failed block, so the packed slice is the slice.
            nonlocal sent
            digest.update(packed)
            offset, sent = sent, sent + len(packed)
            await write_frame(channel, OBJECT_DOWNLOAD.chunk, {"off": offset}, packed)

        await self.requestor.execute(decision, to_reader)
        reply.update(repaired=True, sha256=digest.hexdigest())
        await write_frame(channel, OBJECT_DOWNLOAD.end, reply)

    async def _repair(self, header: Dict[str, object]) -> Dict[str, object]:
        """Full repair: reconstruct into storage, update metadata.

        Where every failed block will live is resolved *first* (its own
        node, or the caller's ``to``), so a repair to an unknown node fails
        before a byte moves.  What the coordinator then decides picks the
        branch.  A chain ends at the storing helpers
        (:meth:`ChainRequestor.execute_storing`): they commit and hash the
        blocks, and this gateway sees plans, addresses and digests, never
        the bytes.  A conventional repair -- asked for, or the coordinator's
        override of a 1-hop chain -- is by definition decoded at its
        requestor, here, and written out from here.  Either way a block
        is ``RELOCATE``d only after its store is acknowledged, and the reply
        reports the scheme that ran beside the one requested.
        """
        stripe_id = int(header["stripe_id"])
        blocks = [int(i) for i in header["blocks"]]
        options = repair_options(header)
        to = None if header.get("to") is None else str(header["to"])
        homes: Dict[int, str] = {}
        targets: Dict[int, Tuple[Tuple[str, int], str]] = {}
        for block in blocks:
            locate = await self._coordinator_request(
                Op.LOCATE, {"stripe_id": stripe_id, "block": block}
            )
            homes[block] = str(locate.header["node"])
            node = homes[block] if to is None else to
            targets[block] = (await self._helper_address(node), str(locate.header["key"]))
        decision = await self.requestor.plan(stripe_id, blocks, options)
        if self.requestor.pipelined(decision):
            digests = await self.requestor.execute_storing(decision, targets)
        else:
            digests = {}
            for block, payload in (await self.requestor.execute(decision)).items():
                (host, port), key = targets[block]
                await self._store_block(host, port, key, payload)
                digests[block] = hashlib.sha256(payload).hexdigest()
        for block in blocks:
            if to is not None and homes[block] != to:
                await self._coordinator_request(
                    Op.RELOCATE, {"stripe_id": stripe_id, "block": block, "node": to}
                )
        return {
            "stripe_id": stripe_id,
            "scheme": str(decision["scheme"]),
            "requested_scheme": str(decision["requested_scheme"]),
            "sha256": {str(block): digest for block, digest in digests.items()},
        }

    async def _erase(self, header: Dict[str, object]) -> Dict[str, object]:
        """Failure injection: drop a block replica from its node."""
        stripe_id = int(header["stripe_id"])
        block = int(header["block"])
        locate = await self._coordinator_request(
            Op.LOCATE, {"stripe_id": stripe_id, "block": block}
        )
        host, port = locate.header["address"]
        await self._helper_request(
            host, port, Op.DELETE_BLOCK, {"key": locate.header["key"]}
        )
        return {"stripe_id": stripe_id, "block": block, "node": locate.header["node"]}
