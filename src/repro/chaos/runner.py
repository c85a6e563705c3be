"""The chaos runner: one scenario, live and simulated, diffed.

One :func:`run_scenario` call is the whole contract of the harness:

1. boot a :class:`~repro.service.deployment.LocalDeployment` (in-process or
   real OS processes) and interpose one :class:`~repro.chaos.proxy.ChaosProxy`
   on every helper's ingress link (each helper is re-registered with the
   coordinator under its proxy address, so all chain and block traffic --
   a ``REPAIR`` chain's last leg into the helper that stores the block
   included, though not a degraded read's delivery stream into the gateway
   -- crosses a fault-injectable link);
2. store a seeded object and record the expected SHA-256 of the object and
   of every coded block;
3. measure a healthy baseline repair and calibrate the simulation twin's
   bandwidth to it (:func:`~repro.chaos.scenarios.calibrate_bandwidth`);
4. erase block 0, start closed-loop foreground readers, replay the
   scenario's fault timeline, and drive recovery -- retrying repairs around
   dead/partitioned helpers, re-registering state after restarts -- until
   every block of the stripe is present and reachable again
   (the *measured makespan*);
5. verify byte-identical data (object and per-block SHA-256 against the
   digests recorded before any fault) and compare the measured makespan
   against the twin's prediction: the measured/predicted ratio must land in
   the scenario's committed tolerance band (``BENCH_chaos.json``).

Determinism: the fault timeline, kill targets and twin configuration derive
entirely from ``(scenario, seed)``; only the measured seconds vary run to
run, and the band is what absorbs that.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.chaos.proxy import ChaosProxy
from repro.chaos.scenarios import (
    COORDINATOR,
    SCENARIOS,
    ChaosConfig,
    CompiledScenario,
    calibrate_bandwidth,
    compile_scenario,
)
from repro.codes.registry import code_from_spec
from repro.ecpipe.coordinator import block_key
from repro.obs.metrics import diff_samples
from repro.service.compare import gateway_counters, trace_summary
from repro.service.deployment import LocalDeployment
from repro.service.client import ServiceClient
from repro.service.loadgen import LoadGenerator
from repro.service.protocol import Op, request

#: Committed tolerance bands, at the repo root next to BENCHMARK.json.
BANDS_FILENAME = "BENCH_chaos.json"

#: Pause between recovery retries while faults are still in flight.
RETRY_BACKOFF = 0.05

#: Per-probe timeout of the redundancy poll (fast-failing faults only).
PROBE_TIMEOUT = 5.0

#: Hard ceiling on one recovery/poll phase, seconds (scaled by time_scale).
RECOVERY_CEILING = 60.0


def default_bands_path() -> Path:
    """``BENCH_chaos.json`` at the repository root (three levels up)."""
    return Path(__file__).resolve().parents[3] / BANDS_FILENAME


def load_bands(path: Optional[Path] = None) -> Dict[str, Tuple[float, float]]:
    """Load the committed per-scenario tolerance bands."""
    bands_path = path if path is not None else default_bands_path()
    data = json.loads(bands_path.read_text())
    return {
        name: (float(entry["band"][0]), float(entry["band"][1]))
        for name, entry in data["scenarios"].items()
    }


@dataclass
class ChaosReport:
    """Everything one chaos run asserted, measured and compared."""

    scenario: str
    seed: int
    mode: str
    baseline_seconds: float
    measured_seconds: float
    predicted_seconds: float
    calibrated_bandwidth: float
    band: Tuple[float, float]
    integrity_ok: bool
    integrity_detail: str
    served_ok: bool
    load: Dict[str, object]
    events_applied: int
    expect_serving: bool
    #: Gateway counter deltas over the fault window (``name{labels}`` ->
    #: increase), scraped through the METRICS op before the first fault and
    #: after recovery verified.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Digests of the pipelined-repair traces the window recorded
    #: (:func:`repro.service.compare.trace_summary` shape).
    traces: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        """Measured / predicted makespan (the calibrated comparison)."""
        if self.predicted_seconds <= 0:
            return math.inf
        return self.measured_seconds / self.predicted_seconds

    @property
    def calibration_ok(self) -> bool:
        low, high = self.band
        return low <= self.ratio <= high

    @property
    def ok(self) -> bool:
        return self.integrity_ok and self.served_ok and self.calibration_ok

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "mode": self.mode,
            "ok": self.ok,
            "baseline_seconds": self.baseline_seconds,
            "measured_seconds": self.measured_seconds,
            "predicted_seconds": self.predicted_seconds,
            "ratio": self.ratio,
            "band": list(self.band),
            "calibrated_bandwidth": self.calibrated_bandwidth,
            "calibration_ok": self.calibration_ok,
            "integrity_ok": self.integrity_ok,
            "integrity_detail": self.integrity_detail,
            "served_ok": self.served_ok,
            "expect_serving": self.expect_serving,
            "events_applied": self.events_applied,
            "load": dict(self.load),
            "metrics": dict(self.metrics),
            "traces": [dict(trace) for trace in self.traces],
        }

    def render(self) -> str:
        status = "OK  " if self.ok else "FAIL"
        integrity = (
            f"ok ({self.integrity_detail})"
            if self.integrity_ok
            else f"FAILED: {self.integrity_detail}"
        )
        lines = [
            f"{status} {self.scenario} seed={self.seed} mode={self.mode}",
            f"    baseline {self.baseline_seconds * 1e3:.1f} ms  "
            f"measured {self.measured_seconds * 1e3:.1f} ms  "
            f"predicted {self.predicted_seconds * 1e3:.1f} ms  "
            f"ratio {self.ratio:.2f} (band {self.band[0]:.2f}..{self.band[1]:.2f})"
            f"{'' if self.calibration_ok else '  <- calibration diverged'}",
            f"    integrity {integrity}",
            f"    foreground: {self.load.get('operations', 0)} ops, "
            f"{self.load.get('errors', 0)} errors, "
            f"{self.load.get('degraded_reads', 0)} degraded"
            f"{'' if self.served_ok else '  <- did not keep serving'}",
        ]
        if self.traces:
            problems = sum(len(t.get("problems", [])) for t in self.traces)
            lines.append(
                f"    repair traces: {len(self.traces)} captured, "
                f"{problems} structural problem(s)"
            )
        return "\n".join(lines)


class FaultInjector:
    """Applies :class:`~repro.chaos.scenarios.FaultEvent`\\ s to a live cluster."""

    def __init__(
        self,
        deployment: LocalDeployment,
        proxies: Dict[str, ChaosProxy],
        recovery: str = "host",
    ) -> None:
        self.deployment = deployment
        self.proxies = proxies
        #: Coordinator-restart recovery mode (``CompiledScenario.recovery``):
        #: ``"host"`` replays registrations, ``"store"`` replays nothing.
        self.recovery = recovery
        #: Helpers currently unusable (killed or partitioned).
        self.unusable: Set[str] = set()
        #: ``REGISTER_STRIPE`` header replayed after a coordinator restart
        #: (a restarted coordinator comes back with no metadata).
        self.stripe_registration: Optional[Dict[str, object]] = None
        self.events_applied = 0
        #: Fault-window origin; when set, each applied event records its
        #: *completion* offset here for the twin to anchor predictions on
        #: (a real process restart takes interpreter-boot time the pure
        #: simulation has no model for).
        self.t0: Optional[float] = None
        self.anchors: Dict[Tuple[str, str], float] = {}

    async def apply(self, event) -> None:
        if event.target == COORDINATOR:
            await self._apply_coordinator(event)
        else:
            await self._apply_helper(event)
        self.events_applied += 1
        if self.t0 is not None:
            self.anchors[(event.action, event.target)] = (
                time.perf_counter() - self.t0
            )

    async def _apply_coordinator(self, event) -> None:
        if event.action == "kill":
            await self.deployment.crash_role("coordinator")
        elif event.action == "restart":
            await self.deployment.restart_role("coordinator")
            if self.recovery == "host":
                # Host-system recovery: the fresh coordinator knows nothing,
                # so rebuild its registry (proxy addresses) and stripe
                # metadata.  (With a metadata store this replay is an
                # idempotent no-op, but the scenario keeps exercising the
                # pre-durability contract.)
                await self.reregister_helpers()
                if self.stripe_registration is not None:
                    host, port = self.deployment.coordinator_address
                    await request(
                        host, port, Op.REGISTER_STRIPE, dict(self.stripe_registration)
                    )
            # "store": the restarted coordinator rebuilt helpers, the
            # gateway and every stripe from its sqlite store on boot; the
            # host replays nothing, which is exactly what the scenario
            # asserts.
        else:
            raise ValueError(f"coordinator target cannot {event.action}")

    async def _apply_helper(self, event) -> None:
        proxy = self.proxies[event.target]
        if event.action == "kill":
            await self.deployment.crash_role("helper", event.target)
            self.unusable.add(event.target)
        elif event.action == "restart":
            await self.deployment.restart_role("helper", event.target)
            # The fresh helper registered its *direct* address on boot;
            # put the proxy back in front of it.
            await self.reregister_helper(event.target)
            self.unusable.discard(event.target)
        elif event.action == "partition":
            proxy.partition()
            self.unusable.add(event.target)
        elif event.action == "heal":
            proxy.heal()
            self.unusable.discard(event.target)
        elif event.action == "delay":
            proxy.set_delay(event.value)
        elif event.action == "rate":
            proxy.set_rate(event.value)
        else:  # pragma: no cover - ACTIONS is validated at compile time
            raise ValueError(f"unknown action {event.action!r}")

    async def reregister_helper(self, node: str) -> None:
        """Register ``node`` with the coordinator under its proxy address."""
        host, port = self.deployment.coordinator_address
        proxy_host, proxy_port = self.proxies[node].address
        await request(
            host,
            port,
            Op.REGISTER_HELPER,
            {"node": node, "host": proxy_host, "port": proxy_port},
        )

    async def reregister_helpers(self) -> None:
        """Re-register every live helper (after a coordinator restart)."""
        for node in sorted(self.proxies):
            if node not in self.unusable:
                await self.reregister_helper(node)


class ChaosRunner:
    """Executes one compiled scenario against a deployment and its twin."""

    def __init__(
        self,
        config: ChaosConfig,
        mode: str = "process",
        bands: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> None:
        if mode not in ("process", "inproc"):
            raise ValueError(f"mode must be 'process' or 'inproc', got {mode!r}")
        self.config = config
        self.mode = mode
        self.bands = bands if bands is not None else load_bands()
        self.deployment: Optional[LocalDeployment] = None
        self.proxies: Dict[str, ChaosProxy] = {}
        self.injector: Optional[FaultInjector] = None
        self._store_dir: Optional[tempfile.TemporaryDirectory] = None
        self._trace_dir: Optional[str] = None

    # -------------------------------------------------------------- lifecycle
    async def _boot(self, compiled: CompiledScenario) -> None:
        # Every run gets a durable metadata store, so a restarted
        # coordinator recovers its own state; the background repair scanner
        # is enabled only for auto-repair scenarios (manual-recovery runs
        # time *client-driven* repairs, which the scanner would race).
        self._store_dir = tempfile.TemporaryDirectory(prefix="chaos-store-")
        self._trace_dir = str(Path(self._store_dir.name) / "traces")
        self.deployment = LocalDeployment(
            spec=self.config.spec,
            store_path=str(Path(self._store_dir.name) / "chaos.db"),
            scan=bool(compiled.auto_repair),
            trace_dir=self._trace_dir,
        )
        if self.mode == "process":
            await asyncio.to_thread(self.deployment.up)
        else:
            await self.deployment.start()
        for node, address in sorted(self.deployment.helper_addresses().items()):
            proxy = ChaosProxy(address)
            await proxy.start()
            self.proxies[node] = proxy
        self.injector = FaultInjector(
            self.deployment, self.proxies, recovery=compiled.recovery
        )
        await self.injector.reregister_helpers()

    async def _teardown(self) -> None:
        for proxy in self.proxies.values():
            await proxy.stop()
        self.proxies.clear()
        if self.deployment is not None:
            if self.mode == "process":
                await asyncio.to_thread(self.deployment.down)
            else:
                await self.deployment.stop()
            self.deployment = None
        if self._store_dir is not None:
            self._store_dir.cleanup()
            self._store_dir = None
        self._trace_dir = None

    # ------------------------------------------------------------ ingredients
    def _expected_digests(self, payload: bytes) -> Tuple[str, List[str]]:
        """SHA-256 of the object and of every coded block, computed locally."""
        config = self.config
        code = code_from_spec(config.code_spec())
        block_size = max(1, math.ceil(len(payload) / code.k))
        padded = bytearray(code.k * block_size)
        padded[: len(payload)] = payload
        view = memoryview(padded)
        coded = code.encode(
            [view[i * block_size : (i + 1) * block_size] for i in range(code.k)]
        )
        return (
            hashlib.sha256(payload).hexdigest(),
            [
                hashlib.sha256(memoryview(block).tobytes()).hexdigest()
                for block in coded
            ],
        )

    async def _baseline(self, client: ServiceClient) -> float:
        """Median healthy repair of block 0 (erase, time, restore)."""
        config = self.config
        samples: List[float] = []
        for _ in range(config.baseline_repeats):
            await client.erase(config.stripe_id, 0)
            begin = time.perf_counter()
            await client.repair(
                config.stripe_id,
                [0],
                scheme=config.scheme,
                slice_size=config.slice_size,
                greedy=False,
            )
            samples.append(time.perf_counter() - begin)
        return statistics.median(samples)

    async def _recover(self, compiled: CompiledScenario, t0: float) -> float:
        """Drive repairs and redundancy polling; returns the makespan.

        Retries around whatever the injector currently marks unusable, so
        recovery interleaves correctly with the fault timeline: a repair
        attempted while the killed helper is mid-plan fails, re-plans with
        the exclusion, and the killed helper's own lost block is re-repaired
        once its restart event has fired.
        """
        config = self.config
        client = ServiceClient(self.deployment.gateway_address)
        deadline = t0 + RECOVERY_CEILING * max(1.0, config.time_scale)
        if not compiled.auto_repair:
            pending = [0, *compiled.lost_blocks]
            for block in pending:
                await self._repair_until_done(client, block, deadline)
        # Auto-repair scenarios issue NO client repairs: the coordinator's
        # heartbeat detector and repair scanner must notice the losses (the
        # erased workload block, the restarted-empty helper) and restore
        # redundancy on their own; the poll just watches it return.
        await self._poll_redundancy(deadline)
        return time.perf_counter() - t0

    async def _repair_until_done(
        self, client: ServiceClient, block: int, deadline: float
    ) -> None:
        last_error: Optional[BaseException] = None
        while time.perf_counter() < deadline:
            exclude = sorted(self.injector.unusable)
            try:
                await client.repair(
                    self.config.stripe_id,
                    [block],
                    scheme=self.config.scheme,
                    slice_size=self.config.slice_size,
                    greedy=False,
                    exclude=exclude,
                )
                return
            except Exception as exc:
                last_error = exc
                await asyncio.sleep(RETRY_BACKOFF)
        raise TimeoutError(
            f"repair of block {block} did not complete before the recovery "
            f"ceiling (last error: {last_error})"
        )

    async def _poll_redundancy(self, deadline: float) -> None:
        """Wait until every block of the stripe is present *and reachable*."""
        config = self.config
        coordinator = self.deployment.coordinator_address
        while time.perf_counter() < deadline:
            try:
                if await self._all_blocks_present(coordinator):
                    return
            except Exception:
                pass
            await asyncio.sleep(RETRY_BACKOFF)
        raise TimeoutError("full redundancy was not restored before the ceiling")

    async def _all_blocks_present(self, coordinator: Tuple[str, int]) -> bool:
        config = self.config
        for index in range(config.n):
            locate = await request(
                coordinator[0],
                coordinator[1],
                Op.LOCATE,
                {"stripe_id": config.stripe_id, "block": index},
                timeout=PROBE_TIMEOUT,
            )
            host, port = locate.header["address"]
            probe = await request(
                host,
                port,
                Op.HAS_BLOCK,
                {"key": block_key(config.stripe_id, index)},
                timeout=PROBE_TIMEOUT,
            )
            if not probe.header.get("present"):
                return False
        return True

    async def _verify_integrity(
        self,
        client: ServiceClient,
        expected_object: str,
        expected_blocks: List[str],
    ) -> Tuple[bool, str]:
        config = self.config
        payload = await client.get(config.stripe_id, scheme=config.scheme)
        got_object = hashlib.sha256(payload).hexdigest()
        if got_object != expected_object:
            return False, f"object sha256 {got_object[:12]} != {expected_object[:12]}"
        for index in range(config.n):
            block, _ = await client.read_block(
                config.stripe_id, index, scheme=config.scheme
            )
            got = hashlib.sha256(block).hexdigest()
            if got != expected_blocks[index]:
                return (
                    False,
                    f"block {index} sha256 {got[:12]} != {expected_blocks[index][:12]}",
                )
        return True, f"object + {config.n} blocks byte-identical"

    # ------------------------------------------------------------------ run
    async def run(self, compiled: CompiledScenario) -> ChaosReport:
        config = self.config
        scenario = SCENARIOS[compiled.name]
        band = self.bands.get(compiled.name, (0.0, math.inf))
        await self._boot(compiled)
        try:
            client = ServiceClient(self.deployment.gateway_address)
            payload = config.payload()
            expected_object, expected_blocks = self._expected_digests(payload)
            stored = await client.put(config.stripe_id, payload, config.code_spec())
            if stored["sha256"] != expected_object:
                raise RuntimeError("gateway stored a different object than sent")
            self.injector.stripe_registration = {
                "stripe_id": config.stripe_id,
                "code": config.code_spec(),
                "locations": {str(i): node for i, node in config.placement().items()},
                "block_size": int(stored["block_size"]),
                "object_size": len(payload),
            }

            baseline = await self._baseline(client)
            bandwidth = calibrate_bandwidth(config, baseline)

            # Fault window: erase the workload block, start foreground load,
            # replay the timeline, and recover concurrently.  The gateway's
            # counters are snapshotted on both sides of the window so the
            # report shows exactly what the faults cost (best-effort: a
            # failed scrape must not fail an otherwise-passed run).
            metrics_before = await self._gateway_snapshot()
            await client.erase(config.stripe_id, 0)
            load = LoadGenerator(
                self.deployment.gateway_address,
                {config.stripe_id: config.k},
                seed=compiled.seed,
                concurrency=config.load_concurrency,
                scheme=config.scheme,
                slice_size=config.slice_size,
            )
            load_task = asyncio.create_task(load.run())
            t0 = time.perf_counter()
            self.injector.t0 = t0
            timeline_task = asyncio.create_task(self._replay(compiled, t0))
            try:
                measured = await self._recover(compiled, t0)
            finally:
                await timeline_task
                load.stop()
            load_report = await load_task

            # Predict *after* the fault window so restart/heal completions
            # anchor the twin on what the host system actually took --
            # exactly as the bandwidth is calibrated from a measured
            # baseline, not assumed.
            predicted = scenario.predict_seconds(
                compiled, config, bandwidth, anchors=self.injector.anchors
            )

            integrity_ok, detail = await self._verify_integrity(
                client, expected_object, expected_blocks
            )
            served_ok = load_report.operations > 0 and (
                not compiled.expect_serving
                or load_report.operations > load_report.errors
            )
            metrics_after = await self._gateway_snapshot()
            traces = trace_summary(self._trace_dir) if self._trace_dir else []
            return ChaosReport(
                scenario=compiled.name,
                seed=compiled.seed,
                mode=self.mode,
                baseline_seconds=baseline,
                measured_seconds=measured,
                predicted_seconds=predicted,
                calibrated_bandwidth=bandwidth,
                band=band,
                integrity_ok=integrity_ok,
                integrity_detail=detail,
                served_ok=served_ok,
                load=load_report.to_dict(),
                events_applied=self.injector.events_applied,
                expect_serving=compiled.expect_serving,
                metrics=diff_samples(metrics_before, metrics_after),
                traces=traces,
            )
        finally:
            await self._teardown()

    async def _gateway_snapshot(self) -> Dict[str, float]:
        """Gateway counter samples, or ``{}`` when the scrape fails."""
        try:
            return await gateway_counters(self.deployment.gateway_address)
        except Exception:
            return {}

    async def _replay(self, compiled: CompiledScenario, t0: float) -> None:
        for event in compiled.events:
            delay = t0 + event.at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await self.injector.apply(event)


async def run_scenario(
    name: str,
    seed: int,
    config: Optional[ChaosConfig] = None,
    mode: str = "process",
    bands: Optional[Dict[str, Tuple[float, float]]] = None,
) -> ChaosReport:
    """Compile and run one scenario end to end (the CLI entry point)."""
    config = config if config is not None else ChaosConfig()
    compiled = compile_scenario(name, config, seed)
    runner = ChaosRunner(config, mode=mode, bands=bands)
    return await runner.run(compiled)


__all__ = [
    "BANDS_FILENAME",
    "ChaosReport",
    "ChaosRunner",
    "FaultInjector",
    "default_bands_path",
    "load_bands",
    "run_scenario",
]
