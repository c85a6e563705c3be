"""The background repair scanner: the self-healing half of the control plane.

The detector (:mod:`repro.service.detector`) says *which helpers* are gone;
the scanner turns that into *which blocks* are at risk and drives them back
to full redundancy with no client involvement -- the detect -> schedule ->
repair loop the paper leaves to the host storage system.

Each scan tick diffs the coordinator's placement against two loss signals:

* **dead helpers** -- every block placed on a detector-``dead`` node is
  lost right now (the detector's phi timeout *is* the detection delay);
* **inventory gaps** -- a live helper's heartbeat carries its stored-block
  inventory; a placed block missing from it (an erased replica, a helper
  that restarted empty) is lost too, but only after the gap persists for a
  grace window, so an in-flight client repair is not raced.

Lost blocks enqueue into the same risk-first
:class:`~repro.runtime.queue.RepairQueue` the simulated runtime uses -- a
stripe that lost two blocks repairs before a stripe that lost one, FIFO
within a risk level -- and a bounded pool of workers drives each job through
the gateway's ``REPAIR`` endpoint (a chain that ends at the target helper,
which stores the block, and RELOCATE when the block moves).  Target selection prefers the block's own node when
it is alive; when the node is dead and a *spare* live helper (one holding no
block of the stripe) exists, the block relocates to the spare; otherwise the
job waits for the node to come back, which keeps the paper's placement
assumptions (one failure domain per block) intact.  Failed attempts retry
with exponential backoff plus jitter inside the job, and unfinished jobs are
simply re-discovered by the next scan, so the loop is self-stabilising.

Every decision is journaled through the
:class:`~repro.service.store.MetadataStore`, so ``status --detector`` and
post-mortems can replay what the loop saw and did.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.config import env_float
from repro.ecpipe.coordinator import block_key
from repro.obs.metrics import MetricsRegistry
from repro.runtime.queue import RepairJob, RepairQueue
from repro.service.detector import ALIVE, DEAD, PhiFailureDetector
from repro.service.protocol import Op, request
from repro.service.store import MetadataStore

#: Seconds between scan ticks (``REPRO_SCAN_INTERVAL``).
DEFAULT_SCAN_INTERVAL = 0.25

#: Seconds an inventory gap must persist before it is treated as loss
#: (``REPRO_SCANNER_GRACE``); dead-helper losses skip the grace, the
#: detector's own timeout already played that role.
DEFAULT_GRACE = 0.75

#: Concurrent repair jobs in flight.
DEFAULT_CONCURRENCY = 2

#: Attempts per job before it is returned to the scan loop.
DEFAULT_ATTEMPTS = 4

#: Base of the exponential retry backoff, seconds; attempt ``i`` waits
#: ``base * 2**i`` plus up to 50% jitter.
DEFAULT_BACKOFF = 0.05


class RepairScanner:
    """Self-healing repair loop of one coordinator.

    The scanner reads the coordinator's live state through narrow callables
    rather than a server reference, so tests can drive it against plain
    dictionaries.

    Parameters
    ----------
    detector:
        The heartbeat failure detector.
    store:
        Metadata store (journal target; may be in-memory).
    placement:
        Callable returning ``{(stripe_id, block_index): node}`` for every
        registered block.
    inventory:
        Callable returning ``{node: set(keys)}`` -- the latest heartbeat
        inventory per helper (nodes that never beat are absent).
    gateway:
        Callable returning the registered gateway ``(host, port)`` or
        ``None`` while no gateway is known (the scanner idles).
    scheme:
        Repair scheme driven through the gateway.
    """

    def __init__(
        self,
        detector: PhiFailureDetector,
        store: MetadataStore,
        placement,
        inventory,
        gateway,
        scheme: str = "rp",
        scan_interval: Optional[float] = None,
        grace: Optional[float] = None,
        concurrency: int = DEFAULT_CONCURRENCY,
        attempts: int = DEFAULT_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.detector = detector
        self.store = store
        self._placement = placement
        self._inventory = inventory
        self._gateway = gateway
        self.scheme = scheme
        self.scan_interval = (
            scan_interval
            if scan_interval is not None
            else env_float("REPRO_SCAN_INTERVAL", DEFAULT_SCAN_INTERVAL, minimum=0.01)
        )
        self.grace = (
            grace
            if grace is not None
            else env_float("REPRO_SCANNER_GRACE", DEFAULT_GRACE, minimum=0.0)
        )
        self.concurrency = concurrency
        self.attempts = attempts
        self.backoff = backoff
        self.queue = RepairQueue()
        #: Blocks currently being repaired by a worker task.
        self._in_flight: Set[Tuple[int, int]] = set()
        #: First time an inventory gap was seen, per block (grace tracking).
        self._gap_seen: Dict[Tuple[int, int], float] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._rng = random.Random()
        self._loop_task: Optional[asyncio.Task] = None
        # Diagnostics, registry-backed so the DETECTOR op and the metrics
        # exposition read the same counters (one source of truth).  A
        # standalone scanner (unit tests) gets a private registry.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._scans_total = self.registry.counter(
            "scanner_scans_total", "Detect/schedule scan ticks executed."
        )
        self._enqueued_total = self.registry.counter(
            "scanner_repairs_enqueued_total",
            "Lost blocks enqueued into the repair queue.",
        )
        self._repairs_completed_total = self.registry.counter(
            "scanner_repairs_completed_total",
            "Repair jobs driven to completion through the gateway.",
        )
        self._repair_failures_total = self.registry.counter(
            "scanner_repair_failures_total",
            "Failed repair attempts (each is retried with backoff).",
        )
        self._queue_depth_gauge = self.registry.gauge(
            "scanner_queue_depth", "Repair jobs currently queued."
        )
        self._in_flight_gauge = self.registry.gauge(
            "scanner_in_flight", "Repair jobs currently running."
        )
        self._last_lost_gauge = self.registry.gauge(
            "scanner_last_lost", "Blocks considered lost by the latest scan."
        )
        self._journal_gauge = self.registry.gauge(
            "scanner_journal_entries", "Rows in the repair journal."
        )

    # Back-compat integer views of the registry counters: scan_once and the
    # DETECTOR op's stats() predate the registry, and their consumers (tests,
    # status --detector) keep reading plain ints.
    @property
    def scans(self) -> int:
        return int(self._scans_total.value())

    @property
    def repairs_completed(self) -> int:
        return int(self._repairs_completed_total.value())

    @property
    def repair_failures(self) -> int:
        return int(self._repair_failures_total.value())

    @property
    def last_lost(self) -> int:
        return int(self._last_lost_gauge.value())

    def refresh_gauges(self) -> None:
        """Re-derive the live gauges (called before a metrics scrape)."""
        self._queue_depth_gauge.set(self.queue.depth())
        self._in_flight_gauge.set(len(self._in_flight))
        try:
            self._journal_gauge.set(self.store.journal_length())
        except Exception:  # pragma: no cover - a closed store must not fail a scrape
            pass

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the periodic scan loop on the running event loop."""
        if self._loop_task is None:
            self._loop_task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the scan loop and every in-flight repair worker."""
        tasks = [t for t in ([self._loop_task] if self._loop_task else []) + list(self._tasks)]
        self._loop_task = None
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()
        self._in_flight.clear()

    async def _run(self) -> None:
        while True:
            try:
                self.scan_once()
            except Exception:  # pragma: no cover - scan must never kill the loop
                pass
            await asyncio.sleep(self.scan_interval)

    # ------------------------------------------------------------------ scan
    def scan_once(self, now: Optional[float] = None) -> List[Tuple[int, int]]:
        """One detect/schedule tick; returns the blocks considered lost."""
        self._scans_total.inc()
        at = time.monotonic() if now is None else now
        placement = self._placement()
        inventory = self._inventory()
        lost: List[Tuple[int, int]] = []
        per_stripe: Dict[int, int] = {}
        for (stripe_id, index), node in placement.items():
            if math.isinf(self.detector.phi(node, at)):
                # Never beaten: a store-recovered coordinator has not heard
                # from this helper *yet*.  Treating silence-since-boot as
                # death would relocate the whole cluster on every restart.
                continue
            state = self.detector.state(node, at)
            if state == DEAD:
                self._gap_seen.pop((stripe_id, index), None)
                lost.append((stripe_id, index))
            elif state == ALIVE and node in inventory:
                if block_key(stripe_id, index) not in inventory[node]:
                    first = self._gap_seen.setdefault((stripe_id, index), at)
                    if at - first >= self.grace:
                        lost.append((stripe_id, index))
                else:
                    self._gap_seen.pop((stripe_id, index), None)
            # Suspect nodes and nodes that never beat are left alone: they
            # may come back with their data, and relocating too eagerly is
            # how real systems melt down during partitions.
        for stripe_id, _ in lost:
            per_stripe[stripe_id] = per_stripe.get(stripe_id, 0) + 1
        self._last_lost_gauge.set(len(lost))
        for stripe_id, index in lost:
            key = (stripe_id, index)
            risk = per_stripe[stripe_id]
            if key in self._in_flight:
                continue
            if key in self.queue:
                self.queue.reprioritise(stripe_id, risk)
                continue
            self.queue.push(RepairJob(stripe_id, index, at, at, risk=risk))
            self._enqueued_total.inc()
            self.store.journal_append(
                "enqueue", stripe_id, index, detail=f"risk={risk}"
            )
        self._dispatch()
        return lost

    def _dispatch(self) -> None:
        """Hand queued jobs to worker tasks up to the concurrency bound."""
        if self._gateway() is None:
            return
        while len(self._tasks) < self.concurrency:
            job = self.queue.pop()
            if job is None:
                return
            key = (job.stripe_id, job.block_index)
            self._in_flight.add(key)
            task = asyncio.get_running_loop().create_task(self._repair_job(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            task.add_done_callback(lambda _t, k=key: self._in_flight.discard(k))

    # ----------------------------------------------------------------- repair
    def _select_target(
        self, stripe_id: int, index: int, placement: Dict[Tuple[int, int], str]
    ) -> Optional[str]:
        """Where to write the reconstructed block.

        The block's own node when it is alive (writeback in place); else a
        live *spare* helper holding no block of the stripe (relocation);
        else ``None`` -- wait for the node to return rather than stack two
        blocks of one stripe on a single failure domain.
        """
        node = placement[(stripe_id, index)]
        if self.detector.state(node) == ALIVE:
            return node
        stripe_nodes = {
            n for (s, _i), n in placement.items() if s == stripe_id
        }
        spares = [
            n
            for n in self.detector.nodes()
            if self.detector.state(n) == ALIVE and n not in stripe_nodes
        ]
        if not spares:
            return None
        load: Dict[str, int] = {}
        for (_s, _i), n in placement.items():
            load[n] = load.get(n, 0) + 1
        return min(spares, key=lambda n: (load.get(n, 0), n))

    async def _repair_job(self, job: RepairJob) -> None:
        """Drive one job through the gateway, with bounded backoff retries."""
        stripe_id, index = job.stripe_id, job.block_index
        for attempt in range(self.attempts):
            gateway = self._gateway()
            placement = self._placement()
            if gateway is None or (stripe_id, index) not in placement:
                return
            target = self._select_target(stripe_id, index, placement)
            if target is None:
                self.store.journal_append(
                    "no-target", stripe_id, index,
                    detail="node dead, no spare; waiting",
                )
                return  # the next scan re-discovers the block
            exclude = self.detector.unusable()
            header: Dict[str, object] = {
                "stripe_id": stripe_id,
                "blocks": [index],
                "scheme": self.scheme,
                "exclude_nodes": exclude,
            }
            if target != placement[(stripe_id, index)]:
                header["to"] = target
            try:
                reply = await request(gateway[0], gateway[1], Op.REPAIR, header)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._repair_failures_total.inc()
                self.store.journal_append(
                    "repair-attempt", stripe_id, index,
                    detail=f"attempt={attempt} error={type(exc).__name__}: {exc}",
                )
                delay = self.backoff * (2 ** attempt)
                await asyncio.sleep(delay * (1.0 + 0.5 * self._rng.random()))
                continue
            self._repairs_completed_total.inc()
            self._gap_seen.pop((stripe_id, index), None)
            digest = reply.header.get("sha256", {}).get(str(index), "")
            self.store.journal_append(
                "repaired", stripe_id, index,
                detail=f"target={target} sha256={digest[:16]}",
            )
            return

    # ------------------------------------------------------------ diagnostics
    def stats(self) -> Dict[str, object]:
        """Scanner counters for the DETECTOR op / ``status --detector``."""
        return {
            "scans": self.scans,
            "queue_depth": self.queue.depth(),
            "in_flight": len(self._in_flight),
            "repairs_completed": self.repairs_completed,
            "repair_failures": self.repair_failures,
            "last_lost": self.last_lost,
            "scan_interval": self.scan_interval,
            "grace": self.grace,
            "concurrency": self.concurrency,
        }


__all__ = ["RepairScanner", "DEFAULT_SCAN_INTERVAL", "DEFAULT_GRACE"]
