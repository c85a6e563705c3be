"""What every workload shares: spans, sample tallies, the live deployment.

Nothing here knows a workload by name.  The pieces:

* :class:`HostClock` -- a fixed kernel timed between operations, by which
  every measured time is scaled to this host's nominal speed;
* :class:`Spans` -- the in-memory span recorder the traced run wraps around
  every call into a layer (name, start, end, parent, operation id);
* :class:`Tally` -- latency samples, work done and failed operations of one
  measured session;
* :func:`live_session` -- boots one fresh :class:`LocalDeployment`, runs an
  async body against it and tears it down outside the event loop; an
  orphan fails the run;
* :func:`scrape` -- the roles' own ``METRICS`` counters, for before/after
  deltas.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import contextvars
import itertools
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.cluster import DeploymentSpec
from repro.obs import counter_samples
from repro.service import LocalDeployment
from repro.service.protocol import Op, ProtocolError, RemoteError, request

from perfbench import WORK

#: Bytes per reported megabyte.
MB = 1e6

#: What a failed operation raises; anything else is a bug and ends the run.
OP_ERRORS = (RemoteError, ProtocolError, ConnectionError, OSError, asyncio.TimeoutError)


class BenchmarkError(RuntimeError):
    """The run itself failed (boot, load or shutdown) -- no result is printed."""


# ------------------------------------------------------------------ statistics
def p50_ms(samples: Sequence[float]) -> float:
    """Median of second-valued samples, in milliseconds."""
    return statistics.median(samples) * 1e3


def tail(samples: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, seconds)``, or ``None`` below twenty samples, where
    no percentile above the median qualifies.
    """
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return int(100 * (n - 10) / n), ordered[n - 11]


# ------------------------------------------------------------------ host clock
class HostClock:
    """How slow the host is running right now, from a fixed kernel.

    The cores this benchmark gets change speed by up to 2x for seconds to
    minutes at a time (see README.md), so a time measured in one run says
    little about the next.  Between operations the clock times one fixed
    kernel -- an interpreter loop and a numpy table look-up over 64 KiB,
    the two kinds of work the program does on a core -- in CPU time of the
    calling thread, which a role process taking the core away does not
    lengthen.  :meth:`calibrated` then scales a measured interval by the
    kernel times around it: the share of the interval that is bound to the
    core's speed shrinks or grows with the kernel, the rest (memory, the
    kernel's socket copies, waiting) stays as measured.  The kernel calls
    nothing of the program under test, so no change to the program moves it.
    """

    #: CPU seconds of the kernel on this host in its usual quiet state.
    NOMINAL = 3.2e-3
    #: Ticks this close to an interval count as telling its speed.
    NEAR = 0.5

    def __init__(self) -> None:
        self._table = np.arange(256, dtype=np.uint8)[::-1].copy()
        self._data = np.random.default_rng(1).integers(0, 256, 64 << 10, dtype=np.uint8)
        self._out = np.empty_like(self._data)
        self._at: List[float] = []
        self._slowdown: List[float] = []

    def kernel(self) -> None:
        total = 0
        for i in range(30000):
            total += i * i % 7
        for _ in range(24):
            np.take(self._table, self._data, out=self._out)
            np.bitwise_xor(self._out, self._data, out=self._out)

    def tick(self, min_gap: float = 0.2) -> None:
        """Time the kernel once, unless it was timed ``min_gap`` seconds ago."""
        if self._at and time.perf_counter() - self._at[-1] < min_gap:
            return
        start = time.thread_time()
        self.kernel()
        self._slowdown.append((time.thread_time() - start) / self.NOMINAL)
        self._at.append(time.perf_counter())

    @contextlib.contextmanager
    def ticking(self) -> Iterator[None]:
        """Tick from a thread while the caller blocks in a call it cannot tick in."""
        done = threading.Event()

        def loop() -> None:
            while not done.wait(0.1):
                self.tick(0)

        thread = threading.Thread(target=loop, name="perfbench-ticks")
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()

    @property
    def ticks(self) -> int:
        return len(self._at)

    def slowdown(self, start: float, end: float) -> float:
        """Median kernel time, over nominal, of the ticks around ``[start, end]``.

        Always includes the last tick before and the first after the interval.
        """
        if not self._at:
            raise BenchmarkError("no tick of the host clock was taken")
        lo = min(bisect.bisect_left(self._at, start - self.NEAR),
                 max(bisect.bisect_left(self._at, start) - 1, 0))
        hi = max(bisect.bisect_right(self._at, end + self.NEAR),
                 min(bisect.bisect_right(self._at, end) + 1, len(self._at)))
        return statistics.median(self._slowdown[lo:hi])

    def calibrated(self, start: float, end: float, core_share: float) -> float:
        """Seconds ``[start, end]`` would have taken at nominal host speed."""
        return (end - start) / (core_share * self.slowdown(start, end) + 1.0 - core_share)


# ----------------------------------------------------------------------- spans
@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    op: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """Times every span; keeps them only while ``record`` is set.

    The untraced run uses the same object with ``record`` off, so both runs
    execute the same benchmark code and differ only in what is kept.
    """

    def __init__(self) -> None:
        self.record = False
        self.rows: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str, op: str = "") -> Iterator[Span]:
        parent = self._current.get()
        span = Span(
            next(self._ids),
            name,
            op or (parent.op if parent else ""),
            parent.id if parent else None,
        )
        token = self._current.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            if self.record:
                self.rows.append(span)

    def self_seconds(self) -> Dict[str, float]:
        """Self time by span name: each span minus what its children cover."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for row in self.rows:
            if row.parent is not None:
                children[row.parent].append(row)
        out: Dict[str, float] = defaultdict(float)
        for row in self.rows:
            covered, edge = 0.0, row.start
            for child in sorted(children[row.id], key=lambda c: c.start):
                start, end = max(child.start, edge), min(child.end, row.end)
                if end > start:
                    covered += end - start
                    edge = end
            out[row.name] += row.seconds - covered
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([vars(row) for row in self.rows], fh)


# ---------------------------------------------------------------------- tallies
@dataclass
class Budget:
    """How long a session measures: a deadline and, at smoke scale, a round cap."""

    seconds: float
    max_rounds: Optional[int] = None
    deadline: float = 0.0

    def start(self) -> "Budget":
        self.deadline = time.perf_counter() + self.seconds
        return self

    def more(self, rounds_done: int) -> bool:
        if rounds_done == 0:
            return True
        if self.max_rounds is not None and rounds_done >= self.max_rounds:
            return False
        return time.perf_counter() < self.deadline


@dataclass
class Tally:
    """Samples and outcomes of one measured session.

    A workload hands :meth:`keep` the span of every verified operation;
    :meth:`close` turns them into samples once the ticks after the last one
    are in.  ``samples`` are calibrated seconds (see :class:`HostClock`),
    ``raw`` the same operations as the wall clock measured them.
    """

    clock: HostClock
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    raw: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    #: Units of work completed and the calibrated seconds they took (``work_per_s``).
    work: float = 0.0
    wall: float = 0.0
    failures: List[str] = field(default_factory=list)
    _kept: List[Tuple[str, Span, bool, float]] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def keep(self, key: str, span: Span, work: float = 0.0, wall: bool = True,
             per: float = 1.0) -> None:
        """Keep a verified operation as a sample of ``key``, in seconds per ``per``.

        ``work`` is what it adds to the session's work; ``wall`` says whether
        its time is part of the session's working time (an operation inside
        another kept span is not).
        """
        self._kept.append((key, span, wall, per))
        self.work += work

    def close(self, core_share: Callable[[str], float]) -> None:
        self.clock.tick(0)
        for key, span, wall, per in self._kept:
            seconds = self.clock.calibrated(span.start, span.end, core_share(key))
            self.samples[key].append(seconds / per)
            self.raw[key].append(span.seconds / per)
            if wall:
                self.wall += seconds
        self._kept.clear()

    async def timed(self, spans: Spans, name: str, call: Awaitable) -> Tuple[object, Span]:
        """Await one operation inside a span.

        Returns ``(result, span)``; a raised :data:`OP_ERRORS` is a failed
        operation and yields ``(None, span)``.  The caller verifies the
        result and either passes the span to :meth:`keep` or calls :meth:`fail` --
        one operation fails at most once.
        """
        self.attempted += 1
        self.clock.tick()
        with spans.span(name) as span:
            try:
                return await call, span
            except OP_ERRORS as exc:
                self.fail(f"{name}: {type(exc).__name__}: {exc}")
                return None, span


@dataclass
class SessionResult:
    """One fresh set-up plus one measured session."""

    #: Calibrated, and as the wall clock measured it.
    setup_s: float
    setup_raw_s: float
    tally: Tally
    peak_rss_mb: float
    #: Per-layer numbers of a traced session (counter deltas, live probes).
    layers: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------- memory
def peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest ``VmHWM`` among ``pids`` and this process, in MB."""
    peak = 0
    for pid in [*pids, os.getpid()]:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
                        break
        except OSError:
            pass  # the role exited on its own; down() reports that
    return peak * 1024 / MB


# ------------------------------------------------------------ live deployments
def live_session(
    helpers: int,
    chunk_size: int,
    trace_dir: Optional[str],
    inproc: bool,
    clock: HostClock,
    rss_roles: Sequence[str],
    body: Callable[[LocalDeployment, float], Awaitable],
) -> Tuple[object, float]:
    """Boot a fresh deployment, ``await body(deployment, boot_started)``, tear down.

    Process mode (``up``/``down``, supervised OS processes) is what every
    measured run uses; ``inproc`` boots the same roles into one event loop
    and exists for the smoke test, where twelve interpreter starts per
    workload would cost more than the test may.  Returns the body's result
    and the peak RSS over this process and the processes of ``rss_roles``.
    """
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="session-", dir=WORK)
    chunk_env = {"REPRO_CHUNK_SIZE": str(chunk_size)}
    deployment = LocalDeployment(
        spec=DeploymentSpec.local(helpers),
        store_path=os.path.join(tmp, "meta.db"),
        # The scanner must not race the erasures a workload injects.
        scan=False,
        role_env=chunk_env,
        trace_dir=trace_dir,
    )
    clock.tick(0)
    started = time.perf_counter()
    try:
        if inproc:
            return _inproc_session(deployment, chunk_env, started, body)
        # up() blocks until every role reports; only a thread can tick meanwhile.
        with clock.ticking():
            deployment.up()
        try:
            result = asyncio.run(body(deployment, started))
            rss = peak_rss_mb(
                [h.pid for h in deployment.handles if h.pid and h.role in rss_roles]
            )
        finally:
            report = deployment.down()
            orphans = deployment.orphans()
        if orphans:
            raise BenchmarkError(f"role processes outlived the shutdown: {orphans}")
        if report["sigterm"]:
            # Known defect, outside this benchmark's reach: a helper whose
            # heartbeat reply lands as stop() cancels the heartbeat task keeps
            # beating forever (asyncio.wait_for swallows the cancellation on
            # Python 3.11), so the role acknowledges SHUTDOWN and never exits.
            # The measurement was complete by then; down() killed and reaped
            # the process.  See README.md.
            print(f"perfbench: shutdown escalated: {report}", file=sys.stderr)
        return result, rss
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _inproc_session(deployment, chunk_env, started, body):
    async def whole():
        await deployment.start()
        try:
            return await body(deployment, started)
        finally:
            await deployment.stop()

    # In-process roles read their knobs from this process's environment.  One
    # heartbeat per helper: a beat in flight when stop() cancels it can hang
    # the stop (see live_session), and in one process nothing can kill it.
    env = {**chunk_env, "REPRO_HEARTBEAT_INTERVAL": "3600"}
    with mock.patch.dict(os.environ, env):
        return asyncio.run(whole()), peak_rss_mb([])


async def scrape(deployment: LocalDeployment) -> Dict[str, float]:
    """Every role's monotone samples, plus the bytes the helpers hold.

    Sample names carry the role/node constant labels, so merging the roles'
    scrapes loses nothing.
    """
    samples: Dict[str, float] = {}
    stored = 0.0
    for handle in deployment.handles:
        reply = await request(handle.host, handle.port, Op.METRICS, {})
        text = reply.payload.decode("utf-8")
        samples.update(counter_samples(text))
        for line in text.splitlines():
            if line.startswith("helper_store_bytes"):
                stored += float(line.rpartition(" ")[2])
    samples["helper_store_bytes"] = stored
    return samples


def family_total(samples: Dict[str, float], family: str, **labels: str) -> float:
    """Sum of one metric family's samples over roles, filtered by labels."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return sum(
        value
        for name, value in samples.items()
        if name.partition("{")[0] == family and all(w in name for w in wanted)
    )
