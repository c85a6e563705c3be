"""Asyncio frame-server base shared by the three service roles.

A :class:`FrameServer` accepts connections (each one a
:class:`~repro.service.protocol.FrameChannel`), reads frames in a loop and
dispatches them to the subclass's :meth:`~FrameServer.handle`.  The base
implements the protocol chores every role needs identically:

* ``PING`` / ``STAT`` replies,
* graceful ``SHUTDOWN`` (reply ``OK``, then stop accepting and unblock
  :meth:`serve_until_shutdown` -- the process-mode entry point),
* converting handler exceptions into ``ERROR`` frames so a bad request
  never tears down the server,
* connection cleanup, and
* the role's *outgoing* connections: one
  :class:`~repro.service.protocol.ConnectionPool` (:attr:`FrameServer.pool`)
  that every call to a peer role draws from, counted per peer role in
  ``connections_opened_total`` / ``connections_reused_total``.

Handlers of the ops in :attr:`FrameServer.STREAM_OPS` consume further frames
from their connection (chunk uploads, the repair chain, delivery).  When
one of them fails, the frames still queued behind it belong to the dead
stream, so after the ``ERROR`` reply the base closes the connection instead
of dispatching them as bogus top-level requests.  The same holds for any
handler that fails after it began its reply (a streamed ``READ_BLOCK``
whose chain died): the peer is mid-stream, so ``ERROR`` ends the stream
and the connection.

The base also carries the observability plane every role shares:

* a :class:`~repro.obs.metrics.MetricsRegistry` (role/node constant
  labels), served as Prometheus text by the ``METRICS`` op and -- when a
  ``metrics_port`` is given -- by a plain-HTTP ``/metrics`` listener;
* a :class:`~repro.obs.trace.SpanRecorder` plus trace-context extraction:
  any frame carrying a ``trace`` header fragment runs its handler under
  that context (:func:`repro.obs.trace.current_trace`), ops listed in
  :attr:`FrameServer.TRACE_ROOT_OPS` start a fresh trace when none
  arrived, and ops in either set record one span around the handler;
* structured stderr logging for dropped connections, counted in
  ``protocol_errors_total``.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Coroutine, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.obs.exporter import MetricsHTTPServer
from repro.obs.logging import StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    SpanRecorder,
    TraceContext,
    reset_current,
    set_current,
)
from repro.service.protocol import (
    ConnectionPool,
    Frame,
    FrameChannel,
    Op,
    ProtocolError,
    close_writer,
    write_frame,
)

logger = logging.getLogger("repro.service")


class FrameServer:
    """A role server: accepts framed connections and dispatches opcodes.

    Parameters
    ----------
    host:
        Interface to bind.
    port:
        Port to bind; ``0`` picks an ephemeral port (reported through
        :attr:`address` after :meth:`start`).
    node:
        Node label attached to this server's metrics, spans and logs
        (helpers; empty for unlabelled roles).
    metrics_port:
        Open a plain-HTTP ``/metrics`` listener on this port (``0`` for
        ephemeral; ``None`` -- the default -- serves metrics only through
        the ``METRICS`` op).
    trace_dir:
        Directory for the span log; defaults to ``$REPRO_TRACE_DIR``
        (spans stay memory-only when neither is set).
    """

    #: Role name reported by PING/STAT.
    role = "server"

    #: Ops that start a fresh trace when the frame carries none (the
    #: deployment's entry points -- gateway client ops).
    TRACE_ROOT_OPS: FrozenSet[Op] = frozenset()

    #: Ops the base records a span for when a trace context is active.
    #: Handlers doing their own, richer recording (the helper's CHAIN hop)
    #: stay out of this set.
    TRACE_OPS: FrozenSet[Op] = frozenset()

    #: Ops whose handler consumes further frames from the connection; a
    #: failure in one ends the connection after the ERROR reply (as does a
    #: failure of any handler that had begun to reply).
    STREAM_OPS: FrozenSet[Op] = frozenset()

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        node: str = "",
        metrics_port: Optional[int] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._address: Optional[Tuple[str, int]] = None
        #: Serve task of every open connection, and the ones mid-request.
        self._connections: Dict[asyncio.Task, FrameChannel] = {}
        self._handling: Set[asyncio.Task] = set()
        self._background: List[asyncio.Task] = []
        #: Frames served, by opcode name (diagnostics via STAT).
        self.frames_served: Dict[str, int] = {}
        #: Node label of this server ("" for unlabelled roles).
        self.node = node
        labels = {"role": self.role}
        if node:
            labels["node"] = node
        #: This process's metric families (role/node constant labels).
        self.registry = MetricsRegistry(labels)
        self.frames_total = self.registry.counter(
            "frames_total", "Frames served, by opcode.", labels=("op",)
        )
        self.protocol_errors_total = self.registry.counter(
            "protocol_errors_total",
            "Connections dropped on transport or framing failures, by reason.",
            labels=("reason",),
        )
        self.handler_errors_total = self.registry.counter(
            "handler_errors_total",
            "Handler failures answered with an ERROR frame, by opcode.",
            labels=("op",),
        )
        #: Connections to peer roles (coordinator, helpers, gateways).
        self.pool = ConnectionPool(
            opened=self.registry.counter(
                "connections_opened_total",
                "Connections opened to peer roles, by the peer's role.",
                labels=("peer",),
            ),
            reused=self.registry.counter(
                "connections_reused_total",
                "Requests and streams served by a pooled connection, by the peer's role.",
                labels=("peer",),
            ),
        )
        #: Finished spans of this process (JSONL under ``trace_dir`` plus a
        #: bounded in-memory tail for report attachment).
        self.spans = SpanRecorder(self.role, node, directory=trace_dir)
        self.log = StructuredLogger(self.role, node)
        self._metrics_port = metrics_port
        self.metrics_server: Optional[MetricsHTTPServer] = None

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (valid after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError(f"{self.role} server has not been started")
        return self._address

    @property
    def running(self) -> bool:
        """True while the listening socket is open."""
        return self._server is not None

    async def start(self) -> "FrameServer":
        """Bind the listening socket (idempotent)."""
        if self._server is None:
            self._server = await asyncio.get_running_loop().create_server(
                lambda: FrameChannel(self._on_connection), self._host, self._port
            )
            sock = self._server.sockets[0]
            self._address = sock.getsockname()[:2]
        if self._metrics_port is not None and self.metrics_server is None:
            self.metrics_server = MetricsHTTPServer(
                self.registry,
                self._host,
                self._metrics_port,
                refresh=self._refresh_metrics,
            )
            await self.metrics_server.start()
        return self

    def _spawn(self, loop: Coroutine) -> None:
        """Run a role's periodic loop as a task that stop/abort cancel.

        The loop must also test ``self._shutdown`` after each await of
        ``asyncio.wait_for`` (``request()`` uses one): on Python 3.11 it can
        return a result that landed in the same event-loop iteration as the
        cancellation and swallow the cancellation, after which the loop
        would run on and the awaiting stop() never return.
        """
        self._background.append(asyncio.get_running_loop().create_task(loop))

    async def stop(self) -> None:
        """Stop accepting connections, drain handlers, release the socket.

        Handlers that are just finishing (e.g. the one that served SHUTDOWN,
        closing its transport) get a short grace before being cancelled.
        """
        await self._close(grace=1.0)

    async def abort(self) -> None:
        """Kill the server abruptly: no grace, in-flight handlers cancelled.

        The in-process analogue of ``kill -9`` -- chaos tests use it through
        :meth:`LocalDeployment.crash_role` so a mid-chain transfer dies the
        way a crashed helper process would, instead of being allowed to
        finish during :meth:`stop`'s drain grace.
        """
        await self._close(grace=None)

    async def _close(self, grace: Optional[float]) -> None:
        self._shutdown.set()
        loops, self._background = self._background, []
        for task in loops:
            task.cancel()
        await asyncio.gather(*loops, return_exceptions=True)
        metrics_server, self.metrics_server = self.metrics_server, None
        if metrics_server is not None:
            await metrics_server.stop()
        if self._server is not None:
            self._server.close()
        # Drain connection handlers deterministically, so no task outlives
        # the server into event-loop teardown.  Peers park pooled
        # connections on us: one idle between frames is cancelled at once,
        # the grace is for handlers mid-request.
        connections = dict(self._connections)
        busy = connections.keys() & self._handling
        for task in connections.keys() - busy:
            task.cancel()
        if busy and grace is not None:
            _, busy = await asyncio.wait(busy, timeout=grace)
        for task in busy:
            # Cut off mid-reply: drop what is unsent too, or a peer that has
            # stopped reading would keep the flush -- and stop() -- waiting.
            task.cancel()
            connections[task].abort()
        await asyncio.gather(*connections, return_exceptions=True)
        for channel in connections.values():
            channel.close()  # a task cancelled before its first step never did
        await self.pool.close()
        if self._server is not None:
            # After the connections: since 3.12 this waits for them too.
            await self._server.wait_closed()
            self._server = None

    def request_shutdown(self) -> None:
        """Unblock :meth:`serve_until_shutdown` (signal-handler safe)."""
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a ``SHUTDOWN`` frame arrives, then stop.

        The process-mode entry point: the child process starts the server,
        reports its address, and parks here.
        """
        await self.start()
        await self._shutdown.wait()
        await self.stop()

    # ------------------------------------------------------------- dispatch
    def _on_connection(self, channel: FrameChannel) -> None:
        task = asyncio.get_running_loop().create_task(self._serve(channel))
        self._connections[task] = channel
        task.add_done_callback(lambda done: self._connections.pop(done, None))

    async def _serve(self, channel: FrameChannel) -> None:
        """Serve one connection: frames in, one :meth:`_dispatch` each."""
        task = asyncio.current_task()
        try:
            while True:
                frame = await channel.read_frame()
                if frame is None:
                    break
                self._handling.add(task)
                try:
                    if not await self._dispatch(frame, channel) or self._shutdown.is_set():
                        # Stopping: a pooled peer would never close this
                        # connection, so do not wait for its next frame.
                        break
                finally:
                    self._handling.discard(task)
        except (OSError, ProtocolError) as exc:
            # Peer vanished mid-frame or sent unparseable bytes: drop the
            # connection (structured log + counter); the serve loop itself
            # must never die to a poisoned peer.
            self.protocol_errors_total.inc(reason=type(exc).__name__)
            self.log.warning(
                "dropped_connection",
                peer=channel.peername,
                reason=type(exc).__name__,
                detail=str(exc),
            )
        except asyncio.CancelledError:
            # Server shutdown: close the transport and end the task
            # *cleanly*, so teardown never logs a cancelled serve task.
            pass
        finally:
            await close_writer(channel)

    async def _dispatch(self, frame: Frame, channel: FrameChannel) -> bool:
        """Answer one frame; ``False`` ends the connection."""
        self.frames_served[frame.op.name] = self.frames_served.get(frame.op.name, 0) + 1
        self.frames_total.inc(op=frame.op.name)
        if frame.op == Op.PING:
            await write_frame(channel, Op.OK, {"role": self.role})
            return True
        if frame.op == Op.STAT:
            await write_frame(channel, Op.OK, self.stat())
            return True
        if frame.op == Op.METRICS:
            await write_frame(
                channel,
                Op.OK,
                {
                    "role": self.role,
                    "node": self.node,
                    "content_type": "text/plain; version=0.0.4",
                },
                self.render_metrics().encode("utf-8"),
            )
            return True
        if frame.op == Op.SHUTDOWN:
            await write_frame(channel, Op.OK, {"role": self.role})
            self._shutdown.set()
            return False
        ctx = TraceContext.from_header(frame.header)
        if ctx is None and frame.op in self.TRACE_ROOT_OPS:
            ctx = TraceContext.root()
        token = set_current(ctx) if ctx is not None else None
        record_span = ctx is not None and (
            frame.op in self.TRACE_OPS or frame.op in self.TRACE_ROOT_OPS
        )
        wall = time.time()
        clock = time.perf_counter()
        replied = channel.frames_sent
        failure: Optional[Exception] = None
        try:
            await self.handle(frame, channel)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            failure = exc
        finally:
            if token is not None:
                reset_current(token)
        if record_span:
            self.spans.record(
                ctx,
                frame.op.name,
                wall,
                time.perf_counter() - clock,
                nbytes=len(frame.payload),
                **({"error": type(failure).__name__} if failure else {}),
            )
        if failure is None:
            return True
        # Bad request or a downstream failure (a dead/wedged helper surfaces
        # as ConnectionError/TimeoutError here; a poisoned header that wasn't
        # what the handler expected as TypeError/KeyError): report to this
        # client, keep serving others (and this connection).  If *this*
        # connection is the broken one, the ERROR write below raises and
        # _serve drops it.  A failed stream op, or a reply that had begun,
        # poisons its connection either way, so a dead peer on that write is
        # not worth a warning.
        self.handler_errors_total.inc(op=frame.op.name)
        message = f"{type(failure).__name__}: {failure}"
        logger.debug("%s: %s handler error: %s", self.role, frame.op.name, message)
        poisoned = frame.op in self.STREAM_OPS or channel.frames_sent != replied
        try:
            await write_frame(channel, Op.ERROR, {"message": message})
        except (ConnectionError, OSError):
            if not poisoned:
                raise
        return not poisoned

    async def handle(self, frame: Frame, channel: FrameChannel) -> None:
        """Serve one role-specific frame; replies go to ``channel``."""
        raise ProtocolError(f"{self.role} cannot serve {frame.op.name}")

    # -------------------------------------------------------- observability
    def _refresh_metrics(self) -> None:
        """Re-derive gauges from live structures before a scrape.

        Subclasses override to publish state that is cheaper to read at
        scrape time than to track on every mutation (store sizes, detector
        phi, registry counts).  The base has nothing to refresh.
        """

    def render_metrics(self) -> str:
        """The current Prometheus text exposition (gauges refreshed)."""
        self._refresh_metrics()
        return self.registry.render()

    def stat(self) -> Dict[str, object]:
        """Role statistics returned by ``STAT`` (subclasses extend)."""
        return {"role": self.role, "frames": dict(self.frames_served)}
