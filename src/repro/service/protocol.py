"""Length-prefixed binary wire protocol of the service plane.

Every message on every connection is one *frame*::

    u32 length | u8 opcode | u16 header_len | header (JSON, UTF-8) | payload

``length`` covers everything after itself.  The JSON header carries the
small structured fields (keys, stripe ids, serialized chain plans); the
payload carries raw block/slice bytes with no re-encoding.

The same framing serves four traffic shapes:

* **request/response** -- a client writes a frame, the server answers with
  ``OK`` (or ``ERROR`` carrying the exception text);
* **chain streaming** -- a ``CHAIN`` frame hands a connection over to the
  repair pipeline, after which ``SLICE`` frames flow downstream on it;
* **delivery streaming** -- the last hop of a chain whose block a reader is
  waiting for at the gateway (``CHAIN {deliver}``) opens a connection to
  that gateway and pushes ``DELIVER`` frames;
* **chunk streams** -- objects and blocks above the transfer chunk travel
  as ``OPEN {size}`` / ``CHUNK {off}`` ... / ``END`` (:func:`send_chunks`,
  :func:`receive_chunks`).  A block repaired by a pipelined chain leaves the
  chain the same way, one chunk per repaired slice, sent while the chain is
  still running: to its reader as :data:`OBJECT_DOWNLOAD` (see
  :attr:`Op.READ_BLOCK`), and, when the repair is for storage (``CHAIN
  {store}``), from the last hop straight into the helper that will hold it
  as :data:`BLOCK_UPLOAD` (see :attr:`Op.CHAIN`).

All multi-byte integers are big-endian.  Frames are capped at
:data:`MAX_FRAME` to bound buffering; block payloads above the cap must be
sliced by the caller (the repair path always is -- that is the point of the
paper).

**Transport.**  Every role and every client moves frames through a
:class:`FrameChannel`, an :class:`asyncio.BufferedProtocol`: the kernel
receives straight into the channel's staging buffer, frames are parsed
out of it in place (several small frames per ``recv``), and a payload that
does not fit the stage is received directly into its own exactly-sized
``bytearray`` -- no user-space copy for large frames, one for small ones.
A frame whose payload is at most :data:`JOIN_BELOW` -- every 64 KiB slice
frame -- leaves as one ``send``; a larger payload is handed to the transport
as it is, with no join.  :func:`read_frame` / :func:`write_frame`
/ :func:`expect_frame` take a channel, and -- for outside callers that bring
their own :mod:`asyncio` streams (probes, fuzzers) -- a stream reader/writer;
both flavours share one header codec and one set of bound checks.

**Ownership.**  A received payload belongs to the receiver (a ``bytearray``
it may mutate and forward).  A payload handed to :func:`write_frame` belongs
to the channel from then on and must never be mutated afterwards: depending
on the interpreter, the transport keeps a *reference* to what the socket did
not take at once.

**Connections.**  A :class:`ConnectionPool` keeps a role's idle client
connections per peer address and is the one retry loop behind every
request; module-level :func:`request` / :func:`upload_stream` run the same
loop over a pool that lives for one call, i.e. one fresh connection.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import enum
import json
import random
import select
import struct
from dataclasses import dataclass
from typing import (
    AsyncIterator,
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.config import env_positive_int

#: Hard cap on a single frame's length field (128 MiB).
MAX_FRAME = 128 * 1024 * 1024

_LENGTH = struct.Struct("!I")
_PREFIX = struct.Struct("!BH")
#: ``length | opcode | header_len`` -- everything in front of the JSON header.
_HEAD = struct.Struct("!IBH")

#: Staging buffer of a :class:`FrameChannel`.  Holds any head + header
#: (7 + 65,535 bytes) and a few 64 KiB slice frames, so one ``recv`` takes
#: several of them; a payload above this size is received straight into its
#: own buffer instead.
STAGE_SIZE = 256 * 1024

#: Payloads up to this size are joined to their head and leave in one
#: ``send``; larger ones are handed to the transport as they are (a second
#: ``send``).  Measured, both ends on one loop: the joined copy is cheaper
#: up to 64 KiB, level at 96-128 KiB and dearer beyond, where the joined
#: ``bytes`` crosses glibc's 128 KiB mmap threshold and is page-faulted in
#: afresh for every frame (EXPERIMENTS.md, "one write per slice frame").
JOIN_BELOW = 64 * 1024

#: Reading pauses once this many payload bytes / frames wait unconsumed in a
#: channel, and resumes at half of either mark.
QUEUE_HIGH_BYTES = 4 * 1024 * 1024
QUEUE_HIGH_FRAMES = 64

#: Idle connections a :class:`ConnectionPool` keeps per peer address.
IDLE_PER_PEER = 8


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
    #: ``{plan, position, addresses, request_id}`` plus where the chain
    #: ends, forwarded hop to hop with ``position`` advanced.  ``deliver:
    #: [host, port]`` -- the gateway, where a reader waits: the last hop
    #: opens ``DELIVER_OPEN`` there.  ``store: [{address, key}, ...]``, one
    #: per failed block in plan order -- the helpers that will hold the
    #: blocks (a ``REPAIR``): the last hop opens one ``PUT_BLOCK_OPEN
    #: {digest: true}`` stream per target and writes section ``j`` of every
    #: repaired slice to stream ``j``; the targets commit and hash, and
    #: every hop's ``OK {position, node, sha256: [...]}`` relays their
    #: digests up to the chain's initiator, which never sees the bytes.
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
    #: Two reply shapes.  A stored block, and one repaired conventionally
    #: (a 1-hop chain the coordinator overrode included), is one ``OK
    #: {stripe_id, block, repaired, sha256}`` frame with the block as
    #: payload.  A block repaired by a chain is the ``OBJECT_DOWNLOAD``
    #: stream: ``OK {stream, size, stripe_id, block}``, one ``GET_CHUNK
    #: {off}`` per slice, ``GET_END`` with the one-frame reply's fields.  A
    #: failure before the first reply frame is ``ERROR`` and the connection
    #: serves on; after it, ``ERROR`` ends the stream and the *gateway*
    #: closes the connection.
    READ_BLOCK = 42
    REPAIR = 43
    INJECT_ERASE = 44

    # Streaming data plane (chunked transfer of objects and blocks).
    PUT_OPEN = 45
    PUT_CHUNK = 46
    PUT_END = 47
    GET_CHUNK = 48
    GET_END = 49
    #: ``{key, size}``, then ``BLOCK_CHUNK {off}`` ..., then ``BLOCK_END``:
    #: the receiving helper commits the block at ``BLOCK_END`` and only then
    #: (a half-received block is never visible) and answers ``OK {stored}``.
    #: With the optional ``digest: true`` -- sent by the last hop of a
    #: storing repair chain, not by the gateway's PUT spread -- the storing
    #: node also hashes what it committed: ``OK {stored, sha256}``.
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
    """One decoded frame.

    ``payload`` is bytes-like and owned by the receiver: a ``bytearray``
    from a :class:`FrameChannel` (the hop that received it may accumulate
    into it and forward it), ``bytes`` from :func:`decode_frame`.
    """

    op: Op
    header: Dict[str, object]
    payload: Union[bytes, bytearray]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.op.name}, {self.header}, {len(self.payload)}B)"


# ------------------------------------------------------------------ the codec
# The one place that knows the prefix layout and every bound: the stream
# flavour of read_frame/write_frame and the channel both come through here.
def _frame_head(op: Op, header: Optional[Dict[str, object]], payload_len: int) -> bytes:
    """Length prefix, opcode, header length and JSON header of one frame."""
    header_bytes = (
        json.dumps(header, separators=(",", ":")).encode("utf-8") if header else b"{}"
    )
    if len(header_bytes) > 0xFFFF:
        raise ProtocolError(f"header of {len(header_bytes)} bytes exceeds 64 KiB")
    length = _PREFIX.size + len(header_bytes) + payload_len
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    return _HEAD.pack(length, int(op), len(header_bytes)) + header_bytes


def _check_length(length: int) -> None:
    """Validate a frame's length field (the size of everything after it)."""
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    if length < _PREFIX.size:
        raise ProtocolError(f"frame body of {length} bytes is too short")


def _parse_prefix(data, offset: int, length: int) -> Tuple[Op, int]:
    """``(op, header_len)`` of the frame body of ``length`` bytes at ``offset``."""
    opcode, header_len = _PREFIX.unpack_from(data, offset)
    try:
        op = Op(opcode)
    except ValueError:
        raise ProtocolError(f"unknown opcode {opcode}") from None
    if _PREFIX.size + header_len > length:
        raise ProtocolError("header length exceeds frame body")
    return op, header_len


def _parse_header(raw) -> Dict[str, object]:
    try:
        header = json.loads(str(raw, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame header: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header


def encode_frame(op: Op, header: Optional[Dict[str, object]] = None, payload: bytes = b"") -> bytes:
    """Encode one frame into its wire bytes."""
    return b"".join((_frame_head(op, header, len(payload)), payload))


def decode_frame(data: bytes) -> Frame:
    """Decode the body of a frame (everything after the length prefix)."""
    _check_length(len(data))
    op, header_len = _parse_prefix(data, 0, len(data))
    header_end = _PREFIX.size + header_len
    header = _parse_header(data[_PREFIX.size:header_end])
    return Frame(op, header, bytes(data[header_end:]))


# ---------------------------------------------------------------- the channel
class FrameChannel(asyncio.BufferedProtocol):
    """One framed connection: receive-into parsing, join-free writes.

    The transport receives into :meth:`get_buffer`'s memory and reports the
    byte count to :meth:`buffer_updated`, which parses every complete frame
    out of the staging buffer and queues it for :meth:`read_frame`.  Both
    ends of every service-plane connection are one of these: a server hands
    each accepted channel to ``on_connect``; clients get theirs from
    :func:`open_channel`.
    """

    def __init__(self, on_connect: Optional[Callable[["FrameChannel"], None]] = None) -> None:
        self._on_connect = on_connect
        self._transport: Optional[asyncio.Transport] = None
        # Receive side.  ``_view`` is the stage; its bytes not yet parsed are
        # view[lo:hi].  ``_pending`` is the (op, header, payload size) of a
        # frame whose payload is still arriving, into the stage or --
        # ``_body`` -- into its own buffer, of which ``_got`` bytes have landed.
        self._view = memoryview(bytearray(STAGE_SIZE))
        self._lo = 0
        self._hi = 0
        self._pending: Optional[Tuple[Op, Dict[str, object], int]] = None
        self._body: Optional[bytearray] = None
        self._got = 0
        self._frames: Deque[Frame] = collections.deque()
        self._queued_bytes = 0
        self._reading_paused = False
        self._reader: Optional[asyncio.Future] = None
        self._eof = False
        self._error: Optional[BaseException] = None
        # Send side.
        self._writing_paused = False
        self._drainers: List[asyncio.Future] = []
        self._closers: List[asyncio.Future] = []
        self._lost = False
        #: Bytes received so far; a reply that never began leaves it unmoved.
        self.bytes_received = 0
        #: Frames written so far; a handler that has not begun its reply
        #: leaves it unmoved.
        self.frames_sent = 0

    # ------------------------------------------------------ transport callbacks
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        if self._on_connect is not None:
            self._on_connect(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._body is not None:
            return memoryview(self._body)[self._got:]
        return self._view[self._hi:]

    def buffer_updated(self, nbytes: int) -> None:
        self.bytes_received += nbytes
        if self._body is not None:
            self._got += nbytes
            if self._got == len(self._body):
                assert self._pending is not None
                op, header, _ = self._pending
                body, self._body, self._pending = self._body, None, None
                self._deliver(Frame(op, header, body))
            return
        self._hi += nbytes
        try:
            self._parse()
        except ProtocolError as exc:
            # Framing is lost: stop reading; read_frame() raises this once
            # the frames parsed before it are consumed.
            self._error = exc
            self._transport.pause_reading()
            self._wake_reader()

    def _parse(self) -> None:
        """Queue every complete frame of ``view[lo:hi]``; keep the rest."""
        view, lo, hi = self._view, self._lo, self._hi
        try:
            while True:
                if self._pending is None:
                    need = _HEAD.size
                    if hi - lo < _LENGTH.size:
                        break
                    (length,) = _LENGTH.unpack_from(view, lo)
                    _check_length(length)
                    if hi - lo < need:
                        break
                    op, header_len = _parse_prefix(view, lo + _LENGTH.size, length)
                    need += header_len
                    if hi - lo < need:
                        break
                    header = _parse_header(view[lo + _HEAD.size:lo + need])
                    self._pending = (op, header, length - _PREFIX.size - header_len)
                    lo += need
                op, header, need = self._pending
                if hi - lo >= need:
                    self._pending = None
                    payload = bytearray(view[lo:lo + need])
                    lo += need
                    self._deliver(Frame(op, header, payload))
                elif hi - lo == STAGE_SIZE:
                    # Too large to stage, and a stage-full of it has really
                    # arrived (an announced size alone commits no memory):
                    # take that, and let the transport receive the rest
                    # straight into the payload.
                    self._body = bytearray(need)
                    self._got = STAGE_SIZE
                    self._body[:STAGE_SIZE] = view
                    lo = hi
                    break
                else:
                    break
            if lo == hi:
                lo = hi = 0
            elif lo + min(need, STAGE_SIZE) > STAGE_SIZE:
                # The frame being received would run off the end: move it down.
                view[:hi - lo] = view[lo:hi]
                lo, hi = 0, hi - lo
        finally:
            self._lo, self._hi = lo, hi

    def _deliver(self, frame: Frame) -> None:
        self._frames.append(frame)
        self._queued_bytes += len(frame.payload)
        self._wake_reader()
        if not self._reading_paused and (
            self._queued_bytes >= QUEUE_HIGH_BYTES
            or len(self._frames) >= QUEUE_HIGH_FRAMES
        ):
            self._reading_paused = True
            self._transport.pause_reading()

    def _wake_reader(self) -> None:
        if self._reader is not None and not self._reader.done():
            self._reader.set_result(None)

    def eof_received(self) -> bool:
        self._eof = True
        self._wake_reader()
        # Keep the write side open: a peer may half-close after its request
        # and still be owed the reply.
        return True

    def pause_writing(self) -> None:
        self._writing_paused = True

    @staticmethod
    def _wake(waiters: List[asyncio.Future], exc: Optional[Exception] = None) -> None:
        while waiters:
            waiter = waiters.pop()
            if waiter.done():
                continue
            if exc is None:
                waiter.set_result(None)
            else:
                waiter.set_exception(exc)

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._wake(self._drainers)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._eof = self._lost = True
        if self._error is None:
            self._error = exc
        self._wake_reader()
        self._wake(self._drainers, exc or ConnectionResetError("Connection lost"))
        self._wake(self._closers)

    # ------------------------------------------------------------------ reading
    async def read_frame(self) -> Optional[Frame]:
        """The next frame; ``None`` on clean EOF at a frame boundary."""
        while not self._frames:
            if self._error is None and self._eof:
                if self._at_boundary:
                    return None
                self._error = ProtocolError("connection closed mid-frame")
            if self._error is not None:
                self.close()  # nothing more can be read from it
                raise self._error
            if self._reader is not None:
                raise RuntimeError("read_frame() called while another reader waits")
            self._reader = asyncio.get_running_loop().create_future()
            try:
                await self._reader
            finally:
                self._reader = None
        frame = self._frames.popleft()
        self._queued_bytes -= len(frame.payload)
        if (
            self._reading_paused
            and self._queued_bytes <= QUEUE_HIGH_BYTES // 2
            and len(self._frames) <= QUEUE_HIGH_FRAMES // 2
        ):
            self._reading_paused = False
            self._transport.resume_reading()
        return frame

    # ------------------------------------------------------------------ writing
    def send(self, op: Op, header: Optional[Dict[str, object]] = None, payload=b"") -> None:
        """Queue one frame on the transport (see :func:`write_frame`)."""
        self._write(_frame_head(op, header, len(payload)), payload)

    def _write(self, head: bytes, payload) -> None:
        assert self._transport is not None
        self.frames_sent += 1
        if len(payload) <= JOIN_BELOW:
            self._transport.write(b"".join((head, payload)))
        else:
            self._transport.write(head)
            self._transport.write(memoryview(payload))

    async def drain(self) -> None:
        """Wait until the transport's write buffer is below its high mark."""
        assert self._transport is not None
        if self._lost:
            raise self._error or ConnectionResetError("Connection lost")
        if self._transport.is_closing():
            # Let connection_lost() run, as StreamWriter.drain() does.
            await asyncio.sleep(0)
        if self._writing_paused:
            drainer = asyncio.get_running_loop().create_future()
            self._drainers.append(drainer)
            await drainer

    # ----------------------------------------------------------------- lifetime
    @property
    def _at_boundary(self) -> bool:
        """No partly received frame."""
        return self._lo == self._hi and self._pending is None

    @property
    def reusable(self) -> bool:
        """Open, at a frame boundary in both directions, nothing unread."""
        return (
            self._transport is not None
            and not self._transport.is_closing()
            and not self._eof
            and self._error is None
            and not self._frames
            and self._at_boundary
            and not self._writing_paused
        )

    def quiet(self) -> bool:
        """Nothing -- no stray byte, no EOF -- waits unread in the socket.

        Asks the kernel, so it also sees a peer that went away since the
        event loop last polled (a parked connection whose peer died while
        this task was busy encoding).
        """
        if not hasattr(select, "poll"):  # pragma: no cover - non-POSIX
            return True
        poller = select.poll()
        poller.register(self._transport.get_extra_info("socket").fileno(), select.POLLIN)
        return not poller.poll(0)

    @property
    def peername(self) -> str:
        """``host:port`` of the peer, for logs."""
        name = self._transport.get_extra_info("peername") if self._transport else None
        return f"{name[0]}:{name[1]}" if name else "?"

    def close(self) -> None:
        """Close after flushing what was written (idempotent)."""
        if self._transport is not None:
            self._transport.close()

    def abort(self) -> None:
        """Close at once, dropping unsent bytes: the exchange has failed."""
        if self._transport is not None:
            self._transport.abort()

    async def wait_closed(self) -> None:
        """Wait until the transport has released its socket."""
        if self._transport is not None and not self._lost:
            closer = asyncio.get_running_loop().create_future()
            self._closers.append(closer)
            await closer


async def open_channel(host: str, port: int) -> FrameChannel:
    """Connect to ``host:port``; the connection's :class:`FrameChannel`."""
    _, channel = await asyncio.get_running_loop().create_connection(
        FrameChannel, host, port
    )
    return channel


async def write_frame(
    writer: Union[FrameChannel, asyncio.StreamWriter],
    op: Op,
    header: Optional[Dict[str, object]] = None,
    payload: bytes = b"",
) -> None:
    """Write one frame and drain the transport (backpressure point).

    ``payload`` may be any contiguous bytes-like object.  On a channel it is
    handed to the transport without a copy, and the transport may keep a
    reference to the part the socket did not take at once -- so the caller
    must never mutate or reuse the payload's memory afterwards.  (A plain
    stream writer gets the frame joined into fresh bytes.)
    """
    if isinstance(writer, FrameChannel):
        writer.send(op, header, payload)
    else:
        writer.write(encode_frame(op, header, payload))
    await writer.drain()


async def read_frame(reader: Union[FrameChannel, asyncio.StreamReader]) -> Optional[Frame]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    if isinstance(reader, FrameChannel):
        return await reader.read_frame()
    try:
        length_bytes = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from None
    (length,) = _LENGTH.unpack(length_bytes)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_frame(body)


async def expect_frame(reader: Union[FrameChannel, asyncio.StreamReader], *ops: Op) -> Frame:
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


#: Default ceiling on a request's reply; protects every fan-out path
#: (conventional repair GETs, PUT_BLOCK spreads, control-plane calls) from a
#: wedged peer that accepts but never answers.
REQUEST_TIMEOUT = 120.0

#: Connection attempts per request.  Only *transport* failures --
#: connection refused/reset and reply timeouts -- are retried; a peer that
#: answers ``ERROR`` answered, and retrying it would just repeat the error.
DEFAULT_REQUEST_ATTEMPTS = 3

#: Base of the exponential retry backoff, seconds; attempt ``i`` waits
#: ``base * 2**i`` plus up to 50% jitter before retrying, so clients riding
#: out a coordinator restart window do not reconnect in lockstep.
DEFAULT_REQUEST_BACKOFF = 0.05


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
#: planned byte volume (bytes/second).  1 MiB/s sits well under the 4-8 MB/s
#: rate caps the chaos scenarios inject, so a throttled-but-progressing
#: repair is never falsely timed out.
TRANSFER_MIN_BANDWIDTH = 1024 * 1024.0


def transfer_timeout(planned_bytes: int) -> float:
    """Deadline for moving ``planned_bytes`` through one chain or stream.

    ``floor + bytes / min_bandwidth``: a flat 120 s floor (the historical
    ``CHAIN_TIMEOUT``) plus one second per :data:`TRANSFER_MIN_BANDWIDTH`
    bytes planned, so repairing a multi-GiB block under a rate limit gets a
    deadline proportional to the work.
    """
    return TRANSFER_TIMEOUT_FLOOR + max(0, int(planned_bytes)) / TRANSFER_MIN_BANDWIDTH


async def close_writer(writer: Union[FrameChannel, asyncio.StreamWriter]) -> None:
    """Close a channel or stream writer, swallowing races with the peer's close.

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
#: Block upload into a helper: the gateway's PUT spread and conventional
#: write-back, and the last hop of a storing repair chain.
BLOCK_UPLOAD = StreamOps(Op.PUT_BLOCK_OPEN, Op.BLOCK_CHUNK, Op.BLOCK_END)
#: Gateway -> client download of an object (``GET``) or of a block being
#: repaired (``READ_BLOCK``); opened by ``OK {stream: true, size}``.
OBJECT_DOWNLOAD = StreamOps(Op.OK, Op.GET_CHUNK, Op.GET_END)


async def send_chunks(
    writer: Union[FrameChannel, asyncio.StreamWriter],
    ops: StreamOps,
    data,
    chunk: int,
    offset: int = 0,
) -> int:
    """Send ``data`` as in-order ``chunk`` frames of at most ``chunk`` bytes.

    ``offset`` is the stream position of ``data[0]``; returns the position
    after ``data``.  The frames are views of ``data``, so
    :func:`write_frame`'s ownership rule covers all of it.
    """
    view = memoryview(data)
    for start in range(0, len(view), chunk):
        await write_frame(
            writer, ops.chunk, {"off": offset + start}, view[start:start + chunk]
        )
    return offset + len(view)


async def receive_chunks(
    reader: Union[FrameChannel, asyncio.StreamReader],
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


# ------------------------------------------------------------ connection pool
class ConnectionPool:
    """A role's idle client connections, and the retry loop behind every request.

    Connections are kept per peer address, at most :data:`IDLE_PER_PEER`
    each, and handed out most-recently-used first.  One goes back only after
    a clean exchange; a failed, timed-out or cancelled one is dropped.

    Parameters
    ----------
    opened, reused:
        Optional counters (``inc(peer=...)``) of connections opened and
        connections taken from the pool, labelled by the peer's role.
    """

    def __init__(self, opened=None, reused=None) -> None:
        self._idle: Dict[Address, List[FrameChannel]] = {}
        self._opened = opened
        self._reused = reused
        self._closed = False

    async def _acquire(self, host: str, port: int, peer: str) -> Tuple[FrameChannel, bool]:
        """A connection to ``host:port`` and whether it came from the pool.

        A parked one is handed out only while channel and kernel both report
        it silent: :meth:`request` could replace a stale one after the fact,
        a :meth:`lease` -- which writes first and may not repeat -- could not.
        """
        idle = self._idle.get((host, port), [])
        while idle:
            channel = idle.pop()
            if channel.reusable and channel.quiet():
                if self._reused is not None:
                    self._reused.inc(peer=peer)
                return channel, True
            channel.abort()  # saw EOF, an error or stray bytes while parked
        channel = await open_channel(host, port)
        if self._opened is not None:
            self._opened.inc(peer=peer)
        return channel, False

    def _release(self, host: str, port: int, channel: FrameChannel) -> None:
        idle = self._idle.setdefault((host, port), [])
        if self._closed or len(idle) >= IDLE_PER_PEER or not channel.reusable:
            channel.close()
        else:
            idle.append(channel)

    async def close(self) -> None:
        """Close every idle connection; later releases close theirs too."""
        self._closed = True
        idle, self._idle = self._idle, {}
        channels = [channel for parked in idle.values() for channel in parked]
        for channel in channels:
            channel.close()
        for channel in channels:
            await channel.wait_closed()

    @contextlib.asynccontextmanager
    async def lease(self, host: str, port: int, peer: str = "") -> AsyncIterator[FrameChannel]:
        """A connection for one multi-frame exchange (a chain, a chunk stream).

        Returned to the pool when the block exits cleanly -- the exchange's
        final reply has been read -- and dropped on any exception, a peer's
        ``ERROR`` and cancellation included.
        """
        channel, _ = await self._acquire(host, port, peer)
        try:
            yield channel
        except BaseException:
            channel.abort()
            raise
        self._release(host, port, channel)

    async def _answered(
        self,
        host: str,
        port: int,
        op: Op,
        header: Optional[Dict[str, object]],
        payload: bytes,
        timeout: float,
        attempts: int,
        backoff: float,
        peer: str,
    ) -> Tuple[Frame, FrameChannel]:
        """Send one request, with retries; its ``OK`` reply and the connection, still held.

        The retry loop behind :meth:`request` and :meth:`exchange` (which
        documents it).  An ``ERROR`` reply puts the connection back before
        :class:`RemoteError` is raised; every other failure drops it.
        """
        # Encoded once, out here: a frame this end cannot encode is the
        # caller's error, not a reason to doubt a connection.
        head = _frame_head(op, header, len(payload))
        attempt = 0
        while True:
            try:
                channel, reused = await self._acquire(host, port, peer)
            except (ConnectionError, OSError):
                attempt += 1
                if attempt >= attempts:
                    raise
                await _retry_sleep(backoff, attempt - 1)
                continue
            mark = channel.bytes_received
            try:
                channel._write(head, payload)
                await channel.drain()
                return (
                    await asyncio.wait_for(expect_frame(channel, Op.OK), timeout=timeout),
                    channel,
                )
            except RemoteError:
                self._release(host, port, channel)  # the peer serves on after an ERROR reply
                raise
            except (ConnectionError, OSError, ProtocolError, asyncio.TimeoutError) as exc:
                channel.abort()
                if reused and channel.bytes_received == mark and not isinstance(
                    exc, asyncio.TimeoutError
                ):
                    continue
                if isinstance(exc, ProtocolError):
                    raise
                attempt += 1
                if attempt >= attempts:
                    raise
            except BaseException:
                channel.abort()
                raise
            await _retry_sleep(backoff, attempt - 1)

    async def request(
        self,
        host: str,
        port: int,
        op: Op,
        header: Optional[Dict[str, object]] = None,
        payload: bytes = b"",
        timeout: float = REQUEST_TIMEOUT,
        attempts: int = DEFAULT_REQUEST_ATTEMPTS,
        backoff: float = DEFAULT_REQUEST_BACKOFF,
        peer: str = "",
    ) -> Frame:
        """One request/response, with retries.

        Transport-level failures (``ConnectionError``/``OSError`` on connect
        or mid-exchange, and reply timeouts) are retried up to ``attempts``
        times with exponential backoff plus jitter -- enough to ride out a
        coordinator restart window instead of erroring through it.  Protocol
        failures (``ERROR`` replies, malformed frames) are never retried: the
        peer is alive and has spoken.  The final failure re-raises; a timeout
        surfaces as :class:`asyncio.TimeoutError`.

        A connection taken from the pool that dies before one reply byte
        arrived was stale (its peer went away, perhaps restarted, while it
        was parked): it is replaced by a fresh one without consuming an
        attempt, so ``attempts=1`` still means one real try.
        """
        reply, channel = await self._answered(
            host, port, op, header, payload, timeout, attempts, backoff, peer
        )
        self._release(host, port, channel)
        return reply

    @contextlib.asynccontextmanager
    async def exchange(
        self,
        host: str,
        port: int,
        op: Op,
        header: Optional[Dict[str, object]] = None,
        payload: bytes = b"",
        timeout: float = REQUEST_TIMEOUT,
        attempts: int = DEFAULT_REQUEST_ATTEMPTS,
        backoff: float = DEFAULT_REQUEST_BACKOFF,
        peer: str = "",
    ) -> AsyncIterator[Tuple[Frame, FrameChannel]]:
        """:meth:`request`, for a reply that may open a stream.

        Yields the ``OK`` reply and the connection, still held, so a reply
        announcing ``{stream: true}`` is consumed inside the block.  Retries
        end where they do in :meth:`request`, at the first reply frame: what
        fails inside the block is the caller's.  The connection goes back to
        the pool when the block exits cleanly and is dropped on any exception.
        """
        reply, channel = await self._answered(
            host, port, op, header, payload, timeout, attempts, backoff, peer
        )
        try:
            yield reply, channel
        except BaseException:
            channel.abort()
            raise
        self._release(host, port, channel)

    async def upload_stream(
        self,
        host: str,
        port: int,
        ops: StreamOps,
        header: Dict[str, object],
        payload,
        chunk: int,
        peer: str = "",
    ) -> Frame:
        """Upload ``payload`` as one chunk stream.

        ``header`` opens the stream and must announce ``size``; returns the
        receiver's ``OK``, awaited under a deadline scaled to the payload.
        """
        async with self.lease(host, port, peer) as channel:
            await write_frame(channel, ops.open, header)
            await send_chunks(channel, ops, payload, chunk)
            await write_frame(channel, ops.end)
            return await asyncio.wait_for(
                expect_frame(channel, Op.OK), timeout=transfer_timeout(len(payload))
            )


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

    :meth:`ConnectionPool.request` over a pool that lives for this call, so
    every attempt connects afresh and nothing stays open afterwards.
    """
    pool = ConnectionPool()
    try:
        return await pool.request(host, port, op, header, payload, timeout, attempts, backoff)
    finally:
        await pool.close()


async def upload_stream(
    host: str, port: int, ops: StreamOps, header: Dict[str, object], payload, chunk: int
) -> Frame:
    """Upload ``payload`` as one chunk stream over a fresh connection."""
    pool = ConnectionPool()
    try:
        return await pool.upload_stream(host, port, ops, header, payload, chunk)
    finally:
        await pool.close()
