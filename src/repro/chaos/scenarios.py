"""The chaos scenario vocabulary, shared by the live harness and the differ.

Each scenario here is one named fault story -- *kill a helper mid-chain*,
*partition a link*, *a latency storm*, *one slow straggler*, *lose the
coordinator and bring it back* -- expressed three ways from one seed:

1. a **live fault timeline** (:class:`FaultEvent` list) the chaos runner
   replays against a real :class:`~repro.service.deployment.LocalDeployment`
   through TCP proxies and process signals;
2. a **twin degradation** (:class:`~repro.cluster.deployment.TwinDegradation`)
   the simulator applies to the deployment's
   :meth:`~repro.cluster.deployment.DeploymentSpec.degraded_cluster`; and
3. **runtime axes** the conformance differ maps onto its long-horizon
   simulated chaos matrix, so the same vocabulary stresses both halves of
   the repo.

Everything is deterministic in ``(scenario, seed)``:
:func:`compile_scenario` draws every target and knob through
:func:`~repro.exp.seeds.derive_seed`, and the compiled form exposes a
canonical JSON digest the test suite pins.

Predictions are in *live* units: the runner measures one healthy baseline
repair, :func:`calibrate_bandwidth` solves for the twin bandwidth that
reproduces it on loopback, and each scenario's :meth:`~ChaosScenario.predict_seconds`
combines the degraded twin's makespan with the timeline's own constants
(restart and heal times).  The measured/predicted ratio is then checked
against the committed tolerance band in ``BENCH_chaos.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.deployment import TwinDegradation
from repro.exp.seeds import derive_seed
from repro.service import compare
from repro.service.helper import DEFAULT_HEARTBEAT_INTERVAL
from repro.service.scanner import DEFAULT_GRACE, DEFAULT_SCAN_INTERVAL

#: Seed namespace: every scenario draw derives from
#: ``derive_seed(seed, f"{SEED_NAMESPACE}:{name}", 0)``.
SEED_NAMESPACE = "chaos-live"

#: Fault-event verbs the runner's injector understands.
ACTIONS = ("kill", "restart", "partition", "heal", "delay", "rate")

#: Target name meaning the coordinator role (everything else is a helper).
COORDINATOR = "coordinator"

#: Detection-to-dispatch lag of the self-healing scanner, seconds: a
#: restarted-empty helper must beat once before its inventory gap is even
#: visible, the gap must outlive the scanner's grace window, and the next
#: scan tick must pick it up.  Summed from the same defaults the live
#: ``REPRO_*`` knobs start from, so the prediction and the cluster move
#: together when the knobs do.
AUTO_REPAIR_LAG = DEFAULT_HEARTBEAT_INTERVAL + DEFAULT_GRACE + DEFAULT_SCAN_INTERVAL

#: Valid coordinator-recovery modes of a compiled scenario.
RECOVERY_MODES = ("host", "store")


@dataclass(frozen=True)
class ChaosConfig(compare.TwinShape):
    """Workload shape of one chaos run (scenarios draw faults, not shape)."""

    n: int = 5
    k: int = 3
    block_size: int = 1 << 20
    slice_size: int = 64 * 1024
    #: Closed-loop foreground readers kept running through the fault window.
    load_concurrency: int = 1
    scheme: str = "rp"
    #: Multiplies every event time; tests shrink it together with
    #: ``block_size`` to keep runs fast.
    time_scale: float = 1.0
    #: Healthy timed repairs used to calibrate the twin (median taken).
    baseline_repeats: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slice_size > self.block_size:
            raise ValueError("slice_size cannot exceed block_size")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.baseline_repeats <= 0:
            raise ValueError("baseline_repeats must be positive")
        if self.spec.num_helpers != self.n:
            # Blocks and helpers must be a bijection (the gateway's rotated
            # placement, shared via repro.service.placement); scenarios rely
            # on it to name kill targets.
            raise ValueError(
                f"deployment has {self.spec.num_helpers} helpers, need exactly n={self.n}"
            )

    def node_block(self, node: str) -> int:
        """Stripe-local block index stored on ``node``."""
        for block, owner in self.placement().items():
            if owner == node:
                return block
        raise KeyError(f"no block placed on node {node!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "k": self.k,
            "block_size": self.block_size,
            "slice_size": self.slice_size,
            "scheme": self.scheme,
            "time_scale": self.time_scale,
            "load_concurrency": self.load_concurrency,
            "baseline_repeats": self.baseline_repeats,
            "payload_seed": self.payload_seed,
            "stripe_id": self.stripe_id,
            "helpers": sorted(self.spec.helpers),
        }


@dataclass(frozen=True)
class FaultEvent:
    """One step of a live fault timeline."""

    at: float
    action: str
    target: str
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("event time must be non-negative")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}; expected one of {ACTIONS}")
        if self.action in ("delay", "rate") and (self.value is None or self.value <= 0):
            raise ValueError(f"{self.action} event requires a positive value")

    def to_dict(self) -> Dict[str, object]:
        return {
            "at": self.at,
            "action": self.action,
            "target": self.target,
            "value": self.value,
        }


@dataclass(frozen=True)
class CompiledScenario:
    """One scenario compiled for one ``(config, seed)`` -- pure data.

    The live side replays :attr:`events`; the twin side applies
    :attr:`degradation`; both honour :attr:`exclude` while the fault is
    active.  :meth:`digest` is the canonical-JSON fingerprint the
    determinism tests pin.
    """

    name: str
    seed: int
    config: Dict[str, object]
    events: Tuple[FaultEvent, ...]
    degradation: TwinDegradation
    #: Helper nodes unusable during the fault window (planner exclusions).
    exclude: Tuple[str, ...] = ()
    #: Blocks lost to killed helpers, needing re-repair after restart.
    lost_blocks: Tuple[int, ...] = ()
    #: Whether foreground reads are expected to keep (mostly) serving.
    expect_serving: bool = True
    #: When true, the runner issues *no* client repairs at all: heartbeat
    #: detection plus the coordinator's repair scanner must restore full
    #: redundancy on their own, and the runner only polls for it.
    auto_repair: bool = False
    #: How a restarted coordinator gets its metadata back: ``"host"`` --
    #: the runner replays helper and stripe registrations (the
    #: pre-durability contract) -- or ``"store"`` -- the coordinator
    #: recovers from its persistent metadata store alone.
    recovery: str = "host"

    def __post_init__(self) -> None:
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_MODES}, got {self.recovery!r}"
            )

    @property
    def horizon(self) -> float:
        """Time of the last timeline event."""
        return max((event.at for event in self.events), default=0.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "config": dict(self.config),
            "events": [event.to_dict() for event in self.events],
            "degradation": {
                "node_bandwidth": {
                    node: bandwidth
                    for node, bandwidth in sorted(self.degradation.node_bandwidth.items())
                },
                "link_bandwidth": {
                    f"{src}->{dst}": bandwidth
                    for (src, dst), bandwidth in sorted(
                        self.degradation.link_bandwidth.items()
                    )
                },
                "extra_transfer_overhead": self.degradation.extra_transfer_overhead,
                "exclude": list(self.degradation.exclude),
            },
            "exclude": list(self.exclude),
            "lost_blocks": list(self.lost_blocks),
            "expect_serving": self.expect_serving,
            "auto_repair": self.auto_repair,
            "recovery": self.recovery,
        }

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form (determinism fingerprint)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- prediction
def twin_repair_seconds(
    config: ChaosConfig,
    bandwidth: float,
    degradation: Optional[TwinDegradation] = None,
    failed: Tuple[int, ...] = (0,),
) -> float:
    """Simulated makespan of repairing ``failed`` on the (degraded) twin."""
    return compare.twin_repair_seconds(
        config, config.scheme, bandwidth, degradation, failed
    )


def calibrate_bandwidth(
    config: ChaosConfig,
    baseline_seconds: float,
    iterations: int = 4,
) -> float:
    """Solve for the twin bandwidth reproducing a measured healthy repair.

    Loopback TCP is not the paper's 1 Gb/s testbed, so absolute twin
    seconds are meaningless until the twin is re-based on a live
    measurement.  The makespan is dominated by ``bytes / bandwidth`` terms,
    so the fixed point of ``bw <- bw * simulated(bw) / measured`` converges
    in a few iterations; fixed overheads keep it from being exact, which is
    what the tolerance band absorbs.
    """
    if baseline_seconds <= 0:
        raise ValueError("baseline_seconds must be positive")
    bandwidth = config.spec.cluster_spec.network_bandwidth
    for _ in range(iterations):
        simulated = twin_repair_seconds(config, bandwidth)
        bandwidth = min(max(bandwidth * simulated / baseline_seconds, 1e6), 1e12)
    return bandwidth


# ---------------------------------------------------------------- scenarios
class ChaosScenario:
    """One named fault story; subclasses draw the compiled form."""

    #: Registry key and CLI name.
    name = "base"
    #: One-line story, shown by ``python -m repro.chaos list``.
    summary = ""

    def rng(self, seed: int) -> random.Random:
        return random.Random(derive_seed(seed, f"{SEED_NAMESPACE}:{self.name}", 0))

    def compile(self, config: ChaosConfig, seed: int) -> CompiledScenario:
        raise NotImplementedError

    def predict_seconds(
        self,
        compiled: CompiledScenario,
        config: ChaosConfig,
        bandwidth: float,
        anchors: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        """Predicted live makespan of the fault window, calibrated units.

        ``anchors`` maps ``(action, target)`` to the *observed* completion
        time of that timeline event (seconds from the window start).  The
        twin predicts repair dynamics; when recovery is gated on an
        environmental latency the twin cannot know -- chiefly how long a
        ``restart`` takes to respawn an OS process -- the prediction anchors
        on the measured event time instead of the scripted one, exactly as
        the bandwidth itself is calibrated from a measured baseline.
        Without anchors the scripted times are used (the compile-time
        approximation).
        """
        raise NotImplementedError

    def _event_time(
        self,
        compiled: CompiledScenario,
        action: str,
        anchors: Optional[Dict[Tuple[str, str], float]],
    ) -> float:
        """Observed (anchored) or scripted time of the last ``action`` event."""
        scripted = max(e.at for e in compiled.events if e.action == action)
        if not anchors:
            return scripted
        observed = [
            anchors[(e.action, e.target)]
            for e in compiled.events
            if e.action == action and (e.action, e.target) in anchors
        ]
        return max(observed) if observed else scripted

    def runtime_axes(self) -> Dict[str, object]:
        """The same hostile axis in the sim runtime's scenario vocabulary.

        Used by :func:`repro.conformance.differ.live_vocabulary_scenarios`
        to point the differential matrix at the axes the live harness
        exercises.
        """
        return {}

    def _chain_targets(self, config: ChaosConfig) -> Tuple[str, ...]:
        """Helpers whose *ingress* carries slice traffic for block-0 repairs.

        With ``greedy=False`` both planners pick the lowest-indexed ``k``
        surviving blocks as helpers, so the chain for block 0 runs over the
        nodes holding blocks ``1..k`` (the gateway's rotated placement).
        Hop 1's ingress sees only the CHAIN control frame (it reads its
        block locally), so faults that must touch the data path target the
        nodes of blocks 2..k.
        """
        placement = config.placement()
        return tuple(placement[block] for block in range(2, config.k + 1))


class KillMidChain(ChaosScenario):
    """Rate-limit one chain helper, ``kill -9`` it mid-transfer, restart it."""

    name = "kill-mid-chain"
    summary = (
        "a chain helper is slowed, SIGKILLed mid-repair and restarted empty; "
        "the repair must re-plan around it and re-repair its lost block"
    )

    def compile(self, config: ChaosConfig, seed: int) -> CompiledScenario:
        rng = self.rng(seed)
        target = rng.choice(self._chain_targets(config))
        crawl = rng.choice((2e6, 4e6))
        ts = config.time_scale
        kill_at = 0.12 * ts
        restart_at = 0.45 * ts
        events = (
            FaultEvent(0.0, "rate", target, crawl),
            FaultEvent(kill_at, "kill", target),
            FaultEvent(restart_at, "restart", target),
            FaultEvent(restart_at, "heal", target),
        )
        return CompiledScenario(
            name=self.name,
            seed=seed,
            config=config.to_dict(),
            events=events,
            degradation=TwinDegradation(exclude=(target,)),
            exclude=(target,),
            lost_blocks=(config.node_block(target),),
        )

    def predict_seconds(
        self,
        compiled: CompiledScenario,
        config: ChaosConfig,
        bandwidth: float,
        anchors: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        # Block 0 re-repairs around the dead helper as soon as the chain
        # dies; the killed helper's own block can only be written back once
        # it is up again, so the restart dominates.
        restart_at = self._event_time(compiled, "restart", anchors)
        healthy = twin_repair_seconds(config, bandwidth)
        return max(healthy, restart_at + healthy)

    def runtime_axes(self) -> Dict[str, object]:
        # Rapid permanent kill/rejoin churn: nodes die for real and come
        # back empty, exactly the live story.
        return {
            "mean_failure_interarrival": 900.0,
            "transient_fraction": 0.0,
            "node_rejoin_seconds": 600.0,
        }


class LinkPartition(ChaosScenario):
    """Partition one helper's ingress link, then heal it."""

    name = "link-partition"
    summary = (
        "one helper's link is partitioned and later heals; repairs re-plan "
        "around it and full redundancy waits for the heal"
    )

    def compile(self, config: ChaosConfig, seed: int) -> CompiledScenario:
        rng = self.rng(seed)
        block0_node = config.placement()[0]
        # Never block 0's node: its block is the erased repair workload.
        target = rng.choice(
            [node for node in sorted(config.spec.helpers) if node != block0_node]
        )
        heal_at = 0.6 * config.time_scale
        events = (
            FaultEvent(0.0, "partition", target),
            FaultEvent(heal_at, "heal", target),
        )
        return CompiledScenario(
            name=self.name,
            seed=seed,
            config=config.to_dict(),
            events=events,
            degradation=TwinDegradation(exclude=(target,)),
            exclude=(target,),
        )

    def predict_seconds(
        self,
        compiled: CompiledScenario,
        config: ChaosConfig,
        bandwidth: float,
        anchors: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        # The repair itself routes around the partition; *redundancy* is
        # only whole again once the partitioned replica is reachable.
        heal_at = self._event_time(compiled, "heal", anchors)
        return max(heal_at, twin_repair_seconds(config, bandwidth))

    def runtime_axes(self) -> Dict[str, object]:
        # Pure transient outages: nodes vanish with their data intact.
        return {
            "transient_fraction": 1.0,
            "transient_duration_mean": 600.0,
            "mean_failure_interarrival": 1800.0,
        }


class LatencyStorm(ChaosScenario):
    """Add per-chunk latency on every helper link for the whole window."""

    name = "latency-storm"
    summary = (
        "every helper link gains fixed per-chunk latency; repairs slow by "
        "the per-transfer overhead the twin models"
    )

    def compile(self, config: ChaosConfig, seed: int) -> CompiledScenario:
        rng = self.rng(seed)
        delay = rng.choice((0.002, 0.004, 0.006))
        events = tuple(
            FaultEvent(0.0, "delay", node, delay)
            for node in sorted(config.spec.helpers)
        )
        return CompiledScenario(
            name=self.name,
            seed=seed,
            config=config.to_dict(),
            events=events,
            degradation=TwinDegradation(extra_transfer_overhead=delay),
        )

    def predict_seconds(
        self,
        compiled: CompiledScenario,
        config: ChaosConfig,
        bandwidth: float,
        anchors: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        return twin_repair_seconds(config, bandwidth, compiled.degradation)

    def runtime_axes(self) -> Dict[str, object]:
        # Heavy foreground contention is the runtime's latency analogue.
        return {"foreground_rate": 0.05, "read_distribution": "zipf"}


class SlowHelper(ChaosScenario):
    """Rate-limit one in-chain helper -- the straggler of section 5."""

    name = "slow-helper"
    summary = (
        "one chain helper is throttled to a crawl; the pipelined repair is "
        "bottlenecked at exactly that link, as the twin predicts"
    )

    def compile(self, config: ChaosConfig, seed: int) -> CompiledScenario:
        rng = self.rng(seed)
        target = rng.choice(self._chain_targets(config))
        rate = rng.choice((4e6, 8e6))
        events = (FaultEvent(0.0, "rate", target, rate),)
        return CompiledScenario(
            name=self.name,
            seed=seed,
            config=config.to_dict(),
            events=events,
            degradation=TwinDegradation(node_bandwidth={target: rate}),
        )

    def predict_seconds(
        self,
        compiled: CompiledScenario,
        config: ChaosConfig,
        bandwidth: float,
        anchors: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        return twin_repair_seconds(config, bandwidth, compiled.degradation)

    def runtime_axes(self) -> Dict[str, object]:
        # Per-node repair throttling is the runtime's straggler knob.
        return {"repair_bandwidth_cap": 20e6}


class KillCoordinatorRestart(ChaosScenario):
    """Kill the control plane, restart it empty, recover, repair."""

    name = "kill-coordinator-restart"
    summary = (
        "the coordinator is SIGKILLed and restarted with no metadata; the "
        "host re-registers helpers and stripes before repair can proceed"
    )

    def compile(self, config: ChaosConfig, seed: int) -> CompiledScenario:
        ts = config.time_scale
        events = (
            # Kill at the window start: recovery (and the redundancy poll's
            # LOCATE probes) must find the control plane already dead, so
            # the measured makespan is gated on the restart rather than
            # racing it -- a race repairs now win, since a store-backed
            # coordinator recovers in milliseconds.
            FaultEvent(0.0, "kill", COORDINATOR),
            FaultEvent(0.5 * ts, "restart", COORDINATOR),
        )
        return CompiledScenario(
            name=self.name,
            seed=seed,
            config=config.to_dict(),
            events=events,
            degradation=TwinDegradation(),
            expect_serving=False,
        )

    def predict_seconds(
        self,
        compiled: CompiledScenario,
        config: ChaosConfig,
        bandwidth: float,
        anchors: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        restart_at = self._event_time(compiled, "restart", anchors)
        return restart_at + twin_repair_seconds(config, bandwidth)

    def runtime_axes(self) -> Dict[str, object]:
        # A long detection delay is the runtime's control-plane blind spot.
        return {"detection_delay": 600.0}


class KillHelperAutoRepair(ChaosScenario):
    """Kill a helper; nobody calls repair -- the control plane must."""

    name = "kill-helper-auto-repair"
    summary = (
        "a chain helper is SIGKILLed and restarted empty with NO client "
        "repair issued; heartbeat detection and the coordinator's repair "
        "scanner must restore full redundancy on their own"
    )

    def compile(self, config: ChaosConfig, seed: int) -> CompiledScenario:
        rng = self.rng(seed)
        target = rng.choice(self._chain_targets(config))
        ts = config.time_scale
        events = (
            FaultEvent(0.05 * ts, "kill", target),
            FaultEvent(0.6 * ts, "restart", target),
        )
        return CompiledScenario(
            name=self.name,
            seed=seed,
            config=config.to_dict(),
            events=events,
            degradation=TwinDegradation(exclude=(target,)),
            exclude=(target,),
            lost_blocks=(config.node_block(target),),
            auto_repair=True,
        )

    def predict_seconds(
        self,
        compiled: CompiledScenario,
        config: ChaosConfig,
        bandwidth: float,
        anchors: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        # The scanner cannot act on the restarted-empty helper before the
        # helper is back, has beaten once (making the inventory gap
        # visible), and the gap has outlived the grace window; the repair
        # after that is the healthy twin's.  The erased workload block
        # heals earlier, under the same lag measured from the window start,
        # so the restarted helper's block dominates the makespan.
        restart_at = self._event_time(compiled, "restart", anchors)
        return restart_at + AUTO_REPAIR_LAG + twin_repair_seconds(config, bandwidth)

    def runtime_axes(self) -> Dict[str, object]:
        # Self-healing is the runtime's *short* detection delay: losses are
        # noticed and repaired by the system, fast, with permanent kills
        # rejoining empty -- exactly the live story.
        return {
            "detection_delay": 30.0,
            "mean_failure_interarrival": 900.0,
            "transient_fraction": 0.0,
            "node_rejoin_seconds": 600.0,
        }


class PartitionDuringCoordinatorRestart(ChaosScenario):
    """Partition a helper, then bounce the coordinator: store-only recovery."""

    name = "partition-during-coordinator-restart"
    summary = (
        "one helper is partitioned while the coordinator is SIGKILLed and "
        "restarted; the host replays nothing -- recovery comes from the "
        "metadata store alone -- and redundancy waits for the heal"
    )

    def compile(self, config: ChaosConfig, seed: int) -> CompiledScenario:
        rng = self.rng(seed)
        block0_node = config.placement()[0]
        # Never block 0's node: its block is the erased repair workload.
        target = rng.choice(
            [node for node in sorted(config.spec.helpers) if node != block0_node]
        )
        ts = config.time_scale
        events = (
            FaultEvent(0.0, "partition", target),
            FaultEvent(0.05 * ts, "kill", COORDINATOR),
            FaultEvent(0.45 * ts, "restart", COORDINATOR),
            FaultEvent(0.7 * ts, "heal", target),
        )
        return CompiledScenario(
            name=self.name,
            seed=seed,
            config=config.to_dict(),
            events=events,
            degradation=TwinDegradation(exclude=(target,)),
            exclude=(target,),
            expect_serving=False,
            recovery="store",
        )

    def predict_seconds(
        self,
        compiled: CompiledScenario,
        config: ChaosConfig,
        bandwidth: float,
        anchors: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> float:
        # The repair routes around the partition but cannot outrun a dead
        # control plane; *redundancy* is whole only once the partitioned
        # replica is reachable again.  Store recovery is what makes the
        # restart anchor the only control-plane term: nothing is replayed.
        restart_at = self._event_time(compiled, "restart", anchors)
        heal_at = self._event_time(compiled, "heal", anchors)
        return max(heal_at, restart_at + twin_repair_seconds(config, bandwidth))

    def runtime_axes(self) -> Dict[str, object]:
        # Transient outages under a moderately blind control plane.
        return {
            "detection_delay": 120.0,
            "transient_fraction": 1.0,
            "transient_duration_mean": 600.0,
        }


#: Scenario registry, keyed by name (sorted iteration order is canonical).
SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        KillMidChain(),
        LinkPartition(),
        LatencyStorm(),
        SlowHelper(),
        KillCoordinatorRestart(),
        KillHelperAutoRepair(),
        PartitionDuringCoordinatorRestart(),
    )
}


def compile_scenario(
    name: str, config: ChaosConfig, seed: int
) -> CompiledScenario:
    """Compile one scenario by name (deterministic in ``(name, seed)``)."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        ) from None
    return scenario.compile(config, seed)


__all__ = [
    "ACTIONS",
    "AUTO_REPAIR_LAG",
    "COORDINATOR",
    "RECOVERY_MODES",
    "ChaosConfig",
    "ChaosScenario",
    "CompiledScenario",
    "FaultEvent",
    "SCENARIOS",
    "SEED_NAMESPACE",
    "calibrate_bandwidth",
    "compile_scenario",
    "twin_repair_seconds",
]
