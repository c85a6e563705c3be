"""Seeded closed-loop foreground load for the live service.

The paper's headline scenario is a repair racing *foreground* traffic; the
continuous runtime models that contention in simulated time, and this module
produces it for real: ``concurrency`` closed-loop clients (each waits for
its previous request before issuing the next -- the classic closed-loop
model) read random data blocks through the gateway while a repair runs.
Reads of lost blocks become live degraded reads, exactly as in the model.

Everything derives from one seed: client ``w`` draws from
``random.Random(seed + w)``, so two runs against identical deployments issue
identical request sequences.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry, bucket_quantile
from repro.service.client import ServiceClient

#: Pause after a failed request before a client retries (keeps error loops
#: off the CPU while something else is being timed).
ERROR_BACKOFF = 0.05


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation window."""

    #: Requests completed across all clients.
    operations: int
    #: Requests that failed (transport or remote errors).
    errors: int
    #: Of the completed reads, how many were served degraded (repaired).
    degraded_reads: int
    #: Wall-clock seconds the window lasted.
    wall_seconds: float
    #: Per-request latencies, seconds, in completion order.
    latencies: Tuple[float, ...]

    @property
    def throughput(self) -> float:
        """Completed requests per second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.operations / self.wall_seconds

    @property
    def mean_latency(self) -> float:
        """Mean request latency, seconds (0 when idle)."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def latency_percentile(self, fraction: float) -> float:
        """Latency percentile (e.g. ``0.95``) from the shared bucket math.

        The latencies are folded into the same buckets the live
        ``loadgen_latency_seconds`` histogram uses and estimated with
        :func:`repro.obs.metrics.bucket_quantile`, so a bench report and a
        ``/metrics`` scrape answer percentile questions identically.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if not self.latencies:
            return 0.0
        bounds = tuple(LATENCY_BUCKETS) + (float("inf"),)
        counts = [0] * len(bounds)
        for latency in self.latencies:
            for i, bound in enumerate(bounds):
                if latency <= bound:
                    counts[i] += 1
                    break
        return bucket_quantile(bounds, counts, fraction)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (latencies reduced to aggregates)."""
        return {
            "operations": self.operations,
            "errors": self.errors,
            "degraded_reads": self.degraded_reads,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "mean_latency": self.mean_latency,
            "p50_latency": self.latency_percentile(0.50),
            "p95_latency": self.latency_percentile(0.95),
            "p99_latency": self.latency_percentile(0.99),
        }


class LoadGenerator:
    """Closed-loop random-read clients against a gateway.

    Parameters
    ----------
    gateway:
        ``(host, port)`` of the gateway, or a sequence of addresses to load
        balance the clients over a multi-gateway deployment.
    stripes:
        ``{stripe_id: k}`` -- the stripes to read from and how many data
        blocks each has (reads target data blocks only, like a file-system
        client).
    seed:
        Root seed; client ``w`` uses ``seed + w``.
    concurrency:
        Number of closed-loop clients.
    scheme:
        Repair scheme used when a read turns out degraded.
    """

    def __init__(
        self,
        gateway,
        stripes: Dict[int, int],
        seed: int = 2017,
        concurrency: int = 4,
        scheme: str = "rp",
        slice_size: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not stripes:
            raise ValueError("at least one stripe is required")
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        # Latencies land in the same bucket layout LoadReport's percentiles
        # use, so a live scrape and the final report agree.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._operations_total = self.registry.counter(
            "loadgen_operations_total", "Completed foreground reads."
        )
        self._errors_total = self.registry.counter(
            "loadgen_errors_total", "Failed foreground requests."
        )
        self._degraded_total = self.registry.counter(
            "loadgen_degraded_reads_total", "Reads served through a live repair."
        )
        self._latency_seconds = self.registry.histogram(
            "loadgen_latency_seconds", "Foreground read latency."
        )
        self._client = ServiceClient(gateway)
        self._stripes = sorted(stripes.items())
        self._seed = seed
        self._concurrency = concurrency
        self._scheme = scheme
        self._slice_size = slice_size
        self._stop = asyncio.Event()
        self._running = False

    def stop(self) -> None:
        """Ask the clients to finish their in-flight request and exit."""
        self._stop.set()

    async def run(
        self,
        duration: Optional[float] = None,
        max_operations: Optional[int] = None,
    ) -> LoadReport:
        """Drive the clients until ``duration``/``max_operations``/:meth:`stop`.

        With neither bound given the generator runs until :meth:`stop` --
        the shape used while timing a repair: start, measure, stop, read the
        report.
        """
        if self._running:
            raise RuntimeError("load generator is already running")
        self._running = True
        self._stop.clear()
        latencies: List[float] = []
        counters = {"errors": 0, "degraded": 0}
        budget = [max_operations if max_operations is not None else -1]

        async def client(worker: int) -> None:
            rng = random.Random(self._seed + worker)
            while not self._stop.is_set():
                if budget[0] == 0:
                    break
                if budget[0] > 0:
                    budget[0] -= 1
                stripe_id, k = self._stripes[rng.randrange(len(self._stripes))]
                block = rng.randrange(k)
                begin = time.perf_counter()
                try:
                    _, header = await self._client.read_block(
                        stripe_id,
                        block,
                        scheme=self._scheme,
                        slice_size=self._slice_size,
                    )
                except Exception:
                    counters["errors"] += 1
                    self._errors_total.inc()
                    # A dead gateway fails in microseconds on loopback; back
                    # off so failing clients do not busy-spin CPU into
                    # whatever is being measured alongside.  Failed attempts
                    # still consume the operation budget (bounded
                    # termination); the errors counter reports the gap.
                    await asyncio.sleep(ERROR_BACKOFF)
                    continue
                elapsed = time.perf_counter() - begin
                latencies.append(elapsed)
                self._latency_seconds.observe(elapsed)
                self._operations_total.inc()
                if header.get("repaired"):
                    counters["degraded"] += 1
                    self._degraded_total.inc()

        start = time.perf_counter()
        tasks = [asyncio.create_task(client(w)) for w in range(self._concurrency)]
        try:
            if duration is not None:
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=duration)
                except asyncio.TimeoutError:
                    pass
                self._stop.set()
            await asyncio.gather(*tasks)
        finally:
            self._stop.set()
            for task in tasks:
                task.cancel()
            self._running = False
        wall = time.perf_counter() - start
        return LoadReport(
            operations=len(latencies),
            errors=counters["errors"],
            degraded_reads=counters["degraded"],
            wall_seconds=wall,
            latencies=tuple(latencies),
        )
