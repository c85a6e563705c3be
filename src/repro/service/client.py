"""The service client: put / get / read / repair against a gateway set."""

from __future__ import annotations

import asyncio
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.service.protocol import (
    DEFAULT_REQUEST_ATTEMPTS,
    OBJECT_DOWNLOAD,
    OBJECT_UPLOAD,
    REQUEST_TIMEOUT,
    ConnectionPool,
    Frame,
    FrameChannel,
    Op,
    ProtocolError,
    chunk_size_from_env,
    close_writer,
    expect_frame,
    open_channel,
    receive_chunks,
    request,
    transfer_timeout,
    upload_stream,
    write_frame,
)

#: One gateway address, or a sequence of them for load balancing.
GatewayAddresses = Union[Tuple[str, int], Sequence[Tuple[str, int]]]


def _repair_options(
    scheme: str, slice_size: Optional[int], greedy: bool, exclude: Sequence[str]
) -> Dict[str, object]:
    """Header fields shaping the repair behind a ``READ_BLOCK`` / ``REPAIR``."""
    header: Dict[str, object] = {"scheme": scheme, "greedy": greedy}
    if exclude:
        header["exclude_nodes"] = [str(node) for node in exclude]
    if slice_size is not None:
        header["slice_size"] = int(slice_size)
    return header


class ServiceClient:
    """Async client for one gateway or a load-balanced gateway set.

    Every call opens a fresh connection -- the closed-loop load generator
    and the CLI both model independent clients, and the per-request
    connection cost is part of what the service plane measures.  (The roles
    behind the gateway pool theirs; a client does not.)  Frames move through
    a :class:`~repro.service.protocol.FrameChannel`, so payloads come back
    as ``bytearray`` objects the caller owns; a streamed reply -- a large
    GET, a block repaired by a pipelined chain -- lands chunk by chunk in one
    buffer pre-sized from the announced size and is hashed as it arrives.

    With several gateway addresses, calls round-robin over the set and
    fail over to the next gateway on connection errors (a dead gateway is
    invisible to the caller as long as one lives).  Remote errors are never
    failed over: the gateway answered, and retrying elsewhere would just
    repeat the request.
    """

    def __init__(self, gateway: GatewayAddresses, chunk_size: Optional[int] = None) -> None:
        gateway = list(gateway) if not isinstance(gateway, tuple) else gateway
        if gateway and isinstance(gateway[0], (list, tuple)):
            addresses = list(gateway)
        else:
            addresses = [gateway]
        self.gateways: List[Tuple[str, int]] = [
            (str(host), int(port)) for host, port in addresses
        ]
        if not self.gateways:
            raise ValueError("at least one gateway address is required")
        self._rr = 0
        self._chunk_size = chunk_size

    def _chunk(self) -> int:
        if self._chunk_size is not None:
            return max(1, int(self._chunk_size))
        return chunk_size_from_env()

    async def _with_failover(self, fn):
        count = len(self.gateways)
        start = self._rr
        self._rr = (self._rr + 1) % count
        last: Optional[BaseException] = None
        for step in range(count):
            host, port = self.gateways[(start + step) % count]
            try:
                return await fn(host, port)
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last = exc
        assert last is not None
        raise last

    @property
    def _attempts(self) -> int:
        # One gateway keeps the transport retry/backoff (riding out a
        # restart); several fail over instantly instead -- the other
        # gateways ARE the retry.
        return DEFAULT_REQUEST_ATTEMPTS if len(self.gateways) == 1 else 1

    async def _call(
        self, op: Op, header: Dict[str, object], payload: bytes = b""
    ) -> Frame:
        return await self._with_failover(
            lambda host, port: request(
                host, port, op, header, payload, attempts=self._attempts
            )
        )

    async def _receive_stream(
        self, channel: FrameChannel, opened: Frame
    ) -> Tuple[bytearray, Frame]:
        """Land the chunk stream ``opened`` announces; its bytes and ``GET_END``."""
        size = int(opened.header["size"])
        payload = bytearray(size)
        running = hashlib.sha256()

        def land(offset: int, chunk: bytes) -> None:
            payload[offset:offset + len(chunk)] = chunk
            running.update(chunk)

        end = await receive_chunks(
            channel,
            OBJECT_DOWNLOAD,
            size,
            land,
            frame_timeout=transfer_timeout(self._chunk()),
        )
        digest = str(end.header.get("sha256", ""))
        if digest and running.hexdigest() != digest:
            raise ProtocolError("object stream failed its digest check")
        return payload, end

    async def put(
        self, stripe_id: int, payload: bytes, code_spec: Dict[str, object]
    ) -> Dict[str, object]:
        """Store one object as one erasure-coded stripe.

        Objects above the transfer chunk stream as ``PUT_OPEN`` /
        ``PUT_CHUNK`` frames (the only way an object larger than
        ``MAX_FRAME`` can be stored at all); smaller ones keep the
        single-frame ``PUT``.
        """
        chunk = self._chunk()
        header = {"stripe_id": stripe_id, "code": code_spec}
        if len(payload) <= chunk:
            reply = await self._call(Op.PUT, header, payload)
        else:
            header["size"] = len(payload)
            reply = await self._with_failover(
                lambda host, port: upload_stream(
                    host, port, OBJECT_UPLOAD, header, payload, chunk
                )
            )
        return reply.header

    async def get(self, stripe_id: int, scheme: str = "rp") -> bytearray:
        """Read an object back (degraded reads handled transparently)."""
        return await self._with_failover(
            lambda host, port: self._get_once(host, port, stripe_id, scheme)
        )

    async def _get_once(
        self, host: str, port: int, stripe_id: int, scheme: str
    ) -> bytearray:
        channel = await open_channel(host, port)
        try:
            await write_frame(channel, Op.GET, {"stripe_id": stripe_id, "scheme": scheme})
            reply = await asyncio.wait_for(
                expect_frame(channel, Op.OK), timeout=REQUEST_TIMEOUT
            )
            if not reply.header.get("stream"):
                return reply.payload
            return (await self._receive_stream(channel, reply))[0]
        finally:
            await close_writer(channel)

    async def read_block(
        self,
        stripe_id: int,
        block: int,
        scheme: str = "rp",
        slice_size: Optional[int] = None,
        force_repair: bool = False,
        greedy: bool = True,
        exclude: Sequence[str] = (),
    ) -> Tuple[bytes, Dict[str, object]]:
        """Read one block; reconstructs through ``scheme`` when lost.

        Returns ``(payload, header)``.  A block repaired by a pipelined chain
        arrives as a chunk stream, one chunk per repaired slice while the
        chain is still running; ``header`` is then the stream's ``GET_END``
        (same fields as the one-frame reply's).  A gateway that fails
        mid-stream ends it with ``ERROR`` -- raised here as
        :class:`~repro.service.protocol.RemoteError` -- and closes.
        """
        header = {
            "stripe_id": stripe_id,
            "block": block,
            "force_repair": force_repair,
            **_repair_options(scheme, slice_size, greedy, exclude),
        }
        return await self._with_failover(
            lambda host, port: self._read_block_once(host, port, header)
        )

    async def _read_block_once(
        self, host: str, port: int, header: Dict[str, object]
    ) -> Tuple[bytes, Dict[str, object]]:
        pool = ConnectionPool()  # lives for this call: one fresh connection
        try:
            async with pool.exchange(
                host, port, Op.READ_BLOCK, header, attempts=self._attempts
            ) as (reply, channel):
                if not reply.header.get("stream"):
                    return reply.payload, reply.header
                payload, end = await self._receive_stream(channel, reply)
                return payload, end.header
        finally:
            await pool.close()

    async def repair(
        self,
        stripe_id: int,
        blocks: Sequence[int],
        scheme: str = "rp",
        slice_size: Optional[int] = None,
        to: Optional[str] = None,
        greedy: bool = True,
        exclude: Sequence[str] = (),
    ) -> Dict[str, object]:
        """Reconstruct blocks and write them back to storage."""
        header: Dict[str, object] = {
            "stripe_id": stripe_id,
            "blocks": list(blocks),
            **_repair_options(scheme, slice_size, greedy, exclude),
        }
        if to is not None:
            header["to"] = to
        reply = await self._call(Op.REPAIR, header)
        return reply.header

    async def erase(self, stripe_id: int, block: int) -> Dict[str, object]:
        """Failure injection: erase one block replica."""
        reply = await self._call(Op.INJECT_ERASE, {"stripe_id": stripe_id, "block": block})
        return reply.header

    async def stat(self) -> Dict[str, object]:
        """Gateway statistics."""
        reply = await self._call(Op.STAT, {})
        return reply.header

    async def ping(self) -> Dict[str, object]:
        """Liveness check."""
        reply = await self._call(Op.PING, {})
        return reply.header
