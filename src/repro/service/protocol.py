"""Length-prefixed binary wire protocol of the service plane.

Every message on every connection is one *frame*::

    u32 length | u8 opcode | u16 header_len | header (JSON, UTF-8) | payload

``length`` covers everything after itself.  The JSON header carries the
small structured fields (keys, stripe ids, serialized chain plans); the
payload carries raw block/slice bytes with no re-encoding, so the data path
costs one ``memoryview`` slice per frame.

The same framing serves three traffic shapes:

* **request/response** -- a client writes a frame, the server answers with
  ``OK`` (or ``ERROR`` carrying the exception text);
* **chain streaming** -- a ``CHAIN`` frame hands a connection over to the
  repair pipeline, after which ``SLICE`` frames flow downstream on it;
* **delivery streaming** -- the last hop opens a connection to the
  requestor and pushes ``DELIVER`` frames;
* **chunk streams** -- objects and blocks above the transfer chunk travel
  as ``OPEN {size}`` / ``CHUNK {off}`` ... / ``END`` (:func:`send_chunks`,
  :func:`receive_chunks`).

All multi-byte integers are big-endian.  Frames are capped at
:data:`MAX_FRAME` to bound buffering; block payloads above the cap must be
sliced by the caller (the repair path always is -- that is the point of the
paper).
"""

from __future__ import annotations

import asyncio
import enum
import json
import random
import struct
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.config import env_float, env_positive_int

#: Hard cap on a single frame's length field (128 MiB).
MAX_FRAME = 128 * 1024 * 1024

_LENGTH = struct.Struct("!I")
_PREFIX = struct.Struct("!BH")


class Op(enum.IntEnum):
    """Frame opcodes."""

    # Generic.
    OK = 0
    ERROR = 1
    PING = 2
    SHUTDOWN = 3
    STAT = 4

    # Helper block storage.
    PUT_BLOCK = 10
    GET_BLOCK = 11
    DELETE_BLOCK = 12
    HAS_BLOCK = 13

    # Pipelined repair chain.
    CHAIN = 20
    SLICE = 21
    DELIVER_OPEN = 22
    DELIVER = 23
    DELIVER_END = 24

    # Coordinator control plane.
    REGISTER_STRIPE = 30
    REGISTER_HELPER = 31
    PLAN_REPAIR = 32
    LOCATE = 33
    RELOCATE = 34
    HELPERS = 35
    STRIPES = 36
    HEARTBEAT = 37
    DETECTOR = 38
    REGISTER_GATEWAY = 39

    # Gateway client API.
    PUT = 40
    GET = 41
    READ_BLOCK = 42
    REPAIR = 43
    INJECT_ERASE = 44

    # Streaming data plane (chunked transfer of objects and blocks).
    PUT_OPEN = 45
    PUT_CHUNK = 46
    PUT_END = 47
    GET_CHUNK = 48
    GET_END = 49
    PUT_BLOCK_OPEN = 50
    BLOCK_CHUNK = 51
    BLOCK_END = 52

    # Coordinator control plane (continued).
    GATEWAYS = 53

    # Observability: Prometheus text exposition of the role's registry.
    METRICS = 54


class ProtocolError(RuntimeError):
    """A malformed or oversized frame, or an unexpected opcode."""


class RemoteError(RuntimeError):
    """The peer answered with an ``ERROR`` frame; carries its message."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame."""

    op: Op
    header: Dict[str, object]
    payload: bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.op.name}, {self.header}, {len(self.payload)}B)"


def encode_frame(op: Op, header: Optional[Dict[str, object]] = None, payload: bytes = b"") -> bytes:
    """Encode one frame into its wire bytes."""
    header_bytes = json.dumps(header or {}, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > 0xFFFF:
        raise ProtocolError(f"header of {len(header_bytes)} bytes exceeds 64 KiB")
    length = _PREFIX.size + len(header_bytes) + len(payload)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    return b"".join(
        (
            _LENGTH.pack(length),
            _PREFIX.pack(int(op), len(header_bytes)),
            header_bytes,
            payload,
        )
    )


def decode_frame(data: bytes) -> Frame:
    """Decode the body of a frame (everything after the length prefix)."""
    if len(data) < _PREFIX.size:
        raise ProtocolError(f"frame body of {len(data)} bytes is too short")
    opcode, header_len = _PREFIX.unpack_from(data)
    try:
        op = Op(opcode)
    except ValueError:
        raise ProtocolError(f"unknown opcode {opcode}") from None
    header_end = _PREFIX.size + header_len
    if header_end > len(data):
        raise ProtocolError("header length exceeds frame body")
    try:
        header = json.loads(data[_PREFIX.size:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame header: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return Frame(op, header, bytes(data[header_end:]))


async def write_frame(
    writer: asyncio.StreamWriter,
    op: Op,
    header: Optional[Dict[str, object]] = None,
    payload: bytes = b"",
) -> None:
    """Write one frame and drain the transport (backpressure point)."""
    writer.write(encode_frame(op, header, payload))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        length_bytes = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from None
    (length,) = _LENGTH.unpack(length_bytes)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_frame(body)


async def expect_frame(reader: asyncio.StreamReader, *ops: Op) -> Frame:
    """Read one frame, requiring one of ``ops``.

    ``ERROR`` frames raise :class:`RemoteError` with the peer's message;
    EOF and unexpected opcodes raise :class:`ProtocolError`.
    """
    frame = await read_frame(reader)
    if frame is None:
        raise ProtocolError("connection closed while waiting for a reply")
    if frame.op == Op.ERROR and Op.ERROR not in ops:
        raise RemoteError(str(frame.header.get("message", "remote error")))
    if ops and frame.op not in ops:
        expected = "/".join(op.name for op in ops)
        raise ProtocolError(f"expected {expected}, got {frame.op.name}")
    return frame


#: Default ceiling on a one-shot request's reply; protects every fan-out
#: path (conventional repair GETs, PUT_BLOCK spreads, control-plane calls)
#: from a wedged peer that accepts but never answers.
REQUEST_TIMEOUT = 120.0

#: Connection attempts per one-shot request.  Only *transport* failures --
#: connection refused/reset and reply timeouts -- are retried; a peer that
#: answers ``ERROR`` answered, and retrying it would just repeat the error.
DEFAULT_REQUEST_ATTEMPTS = 3

#: Base of the exponential retry backoff, seconds; attempt ``i`` waits
#: ``base * 2**i`` plus up to 50% jitter before retrying, so clients riding
#: out a coordinator restart window do not reconnect in lockstep.
DEFAULT_REQUEST_BACKOFF = 0.05


async def request(
    host: str,
    port: int,
    op: Op,
    header: Optional[Dict[str, object]] = None,
    payload: bytes = b"",
    timeout: float = REQUEST_TIMEOUT,
    attempts: int = DEFAULT_REQUEST_ATTEMPTS,
    backoff: float = DEFAULT_REQUEST_BACKOFF,
) -> Frame:
    """One-shot request/response over a fresh connection, with retries.

    Transport-level failures (``ConnectionError``/``OSError`` on connect or
    mid-exchange, and reply timeouts) are retried up to ``attempts`` times
    with exponential backoff plus jitter -- enough for a client to ride out
    a coordinator restart window instead of erroring through it.  Protocol
    failures (``ERROR`` replies, malformed frames) are never retried: the
    peer is alive and has spoken.  The final failure re-raises; a timeout
    surfaces as :class:`asyncio.TimeoutError`.
    """
    for attempt in range(attempts):
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            if attempt == attempts - 1:
                raise
            await _retry_sleep(backoff, attempt)
            continue
        try:
            await write_frame(writer, op, header, payload)
            return await asyncio.wait_for(expect_frame(reader, Op.OK), timeout=timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            if attempt == attempts - 1:
                raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer raced us
                pass
        await _retry_sleep(backoff, attempt)
    raise ConnectionError(f"request to {host}:{port} exhausted {attempts} attempts")


async def _retry_sleep(backoff: float, attempt: int) -> None:
    await asyncio.sleep(backoff * (2 ** attempt) * (1.0 + 0.5 * random.random()))


#: Default transfer chunk of the streaming data plane (``REPRO_CHUNK_SIZE``).
#: Objects larger than this never travel in one frame: the client streams
#: ``PUT_CHUNK`` frames of at most this size, the gateway spreads per-block
#: segments of ``chunk / k``, and GET replies stream ``GET_CHUNK`` frames.
DEFAULT_CHUNK_SIZE = 64 * 1024 * 1024

#: Headroom reserved for the frame header when clamping the chunk size
#: against :data:`MAX_FRAME`.
_FRAME_HEADROOM = 64 * 1024


def chunk_size_from_env(default: int = DEFAULT_CHUNK_SIZE) -> int:
    """The transfer chunk size, from ``REPRO_CHUNK_SIZE`` or ``default``.

    Clamped so one chunk plus its frame header always fits under
    :data:`MAX_FRAME` -- a misconfigured knob must degrade to smaller
    chunks, never resurrect the oversized-frame failure this path removes.
    """
    value = env_positive_int("REPRO_CHUNK_SIZE", default)
    return min(value, MAX_FRAME - _FRAME_HEADROOM)


#: Floor of every scaled transfer deadline, seconds: the old flat chain
#: timeout, kept as the minimum so small plans behave exactly as before.
TRANSFER_TIMEOUT_FLOOR = 120.0

#: Worst-case sustained bandwidth assumed when scaling deadlines with the
#: planned byte volume (``REPRO_CHAIN_MIN_BANDWIDTH``, bytes/second).  1 MiB/s
#: sits well under the 4-8 MB/s rate caps the chaos scenarios inject, so a
#: throttled-but-progressing repair is never falsely timed out.
TRANSFER_MIN_BANDWIDTH = 1024 * 1024.0


def transfer_timeout(planned_bytes: int) -> float:
    """Deadline for moving ``planned_bytes`` through one chain or stream.

    ``floor + bytes / min_bandwidth``: a flat 120 s floor (the historical
    ``CHAIN_TIMEOUT``) plus one second per :data:`TRANSFER_MIN_BANDWIDTH`
    bytes planned, so repairing a multi-GiB block under a rate limit gets a
    deadline proportional to the work.  ``REPRO_CHAIN_TIMEOUT`` overrides
    the computed value outright.
    """
    override = env_float("REPRO_CHAIN_TIMEOUT", 0.0, minimum=0.0)
    if override > 0:
        return override
    bandwidth = env_float(
        "REPRO_CHAIN_MIN_BANDWIDTH", TRANSFER_MIN_BANDWIDTH, minimum=1.0
    )
    return TRANSFER_TIMEOUT_FLOOR + max(0, int(planned_bytes)) / bandwidth


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream writer, swallowing races with the peer's close.

    Cancellation while waiting for the close handshake is also swallowed:
    by then the transport close is already initiated, and letting the
    cancellation escape would only turn orderly server shutdown into
    event-loop noise.
    """
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - peer raced us
        pass
    except asyncio.CancelledError:
        pass


Address = Tuple[str, int]


# ---------------------------------------------------------------- chunk streams
class StreamOps(NamedTuple):
    """The opcodes of one chunk stream: ``open {size}``, ``chunk {off}``, ``end``."""

    open: Op
    chunk: Op
    end: Op


#: Client -> gateway object upload.
OBJECT_UPLOAD = StreamOps(Op.PUT_OPEN, Op.PUT_CHUNK, Op.PUT_END)
#: Gateway -> helper block upload.
BLOCK_UPLOAD = StreamOps(Op.PUT_BLOCK_OPEN, Op.BLOCK_CHUNK, Op.BLOCK_END)
#: Gateway -> client object download; opened by ``OK {stream: true, size}``.
OBJECT_DOWNLOAD = StreamOps(Op.OK, Op.GET_CHUNK, Op.GET_END)


async def send_chunks(
    writer: asyncio.StreamWriter, ops: StreamOps, data, chunk: int, offset: int = 0
) -> int:
    """Send ``data`` as in-order ``chunk`` frames of at most ``chunk`` bytes.

    ``offset`` is the stream position of ``data[0]``; returns the position
    after ``data``.  The only copy made is the one into each frame.
    """
    view = memoryview(data)
    for start in range(0, len(view), chunk):
        await write_frame(
            writer, ops.chunk, {"off": offset + start}, view[start:start + chunk]
        )
    return offset + len(view)


async def receive_chunks(
    reader: asyncio.StreamReader,
    ops: StreamOps,
    size: int,
    sink: Callable[[int, bytes], None],
    frame_timeout: Optional[float] = None,
) -> Frame:
    """Consume one chunk stream after its ``open`` frame; returns its ``end``.

    ``sink(offset, payload)`` is called per ``chunk`` frame -- the caller
    decides where the bytes land.  This is the only code that validates a
    stream: chunks must arrive in order (``off`` is an integrity check, not
    a seek) and stay within the announced ``size``, ``end`` must arrive
    exactly at ``size``, and EOF or any other opcode mid-stream is an error
    (:func:`expect_frame` turns an ``ERROR`` frame into :class:`RemoteError`).
    """
    received = 0

    def broken(what: str) -> ProtocolError:
        stream = "/".join(op.name for op in ops)
        return ProtocolError(f"{stream} stream: {what} at offset {received} of {size}")

    while True:
        try:
            frame = await asyncio.wait_for(
                expect_frame(reader, ops.chunk, ops.end), frame_timeout
            )
        except ProtocolError as exc:
            raise broken(str(exc)) from None
        if frame.op == ops.end:
            if received != size:
                raise broken("ended short")
            return frame
        offset = int(frame.header.get("off", received))
        if offset != received:
            raise broken(f"out-of-order chunk claims offset {offset}")
        if received + len(frame.payload) > size:
            raise broken(f"{len(frame.payload)}-byte chunk overflows announced size")
        sink(received, frame.payload)
        received += len(frame.payload)


async def upload_stream(
    host: str, port: int, ops: StreamOps, header: Dict[str, object], payload, chunk: int
) -> Frame:
    """Upload ``payload`` as one chunk stream over a fresh connection.

    ``header`` opens the stream and must announce ``size``; returns the
    receiver's ``OK``, awaited under a deadline scaled to the payload.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(writer, ops.open, header)
        await send_chunks(writer, ops, payload, chunk)
        await write_frame(writer, ops.end)
        return await asyncio.wait_for(
            expect_frame(reader, Op.OK), timeout=transfer_timeout(len(payload))
        )
    finally:
        await close_writer(writer)
