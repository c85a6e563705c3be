"""Measured-vs-simulated repair comparison.

The simulator predicts repair makespans for a modelled cluster; the live
service measures them on real sockets and processes.  This harness runs the
*same* repair configuration through both and reports the two side by side,
closing the loop the ROADMAP asks for: the simulator stops being the only
source of truth and becomes a falsifiable predictor.

The measured side boots a localhost deployment (OS processes by default, so
helper GF kernels genuinely run in parallel), stores one seeded stripe,
erases a block, and times degraded reads through each scheme while the
closed-loop :class:`~repro.service.loadgen.LoadGenerator` keeps foreground
reads flowing -- the paper's headline contention scenario.  The predicted
side is the deployment's simulated twin: :func:`twin_repair_seconds` -- the
one twin builder, shared with the chaos harness -- places the stripe exactly
as the live gateway does, adds the gateway as requestor node to
:meth:`~repro.cluster.DeploymentSpec.degraded_cluster` and asks a scheme for
its simulated makespan on the identical request.  :class:`TwinShape` is the
workload shape both harnesses' configurations extend.

Absolute seconds are not comparable across the two sides (the simulator is
calibrated to the paper's 1 Gb/s testbed, not to loopback TCP); the *ratio*
between schemes is the prediction under test, and both ratios land in the
report for exactly that comparison.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.deployment import DeploymentSpec, TwinDegradation
from repro.codes.rs import RSCode
from repro.core.request import RepairRequest, StripeInfo
from repro.obs.metrics import counter_samples, diff_samples
from repro.obs.trace import read_spans, trace_ids, validate_trace
from repro.runtime.runtime import make_scheme
from repro.service.deployment import LocalDeployment
from repro.service.client import ServiceClient
from repro.service.loadgen import LoadGenerator
from repro.service.placement import rotated_placement
from repro.service.protocol import Op, request

#: Repair traces attached to a comparison report (newest kept).
MAX_REPORT_TRACES = 8

#: Node name the simulation twin uses for the gateway/requestor.
GATEWAY_NODE = "gateway"


@dataclass(frozen=True)
class TwinShape:
    """Workload shape a live run and its simulated twin share.

    One ``(n, k)`` Reed-Solomon stripe of seeded bytes on a deployment,
    repaired slice by slice.  The measured-vs-simulated comparison and the
    chaos harness extend it with their own knobs.
    """

    n: int = 9
    k: int = 6
    block_size: int = 8 * 1024 * 1024
    slice_size: int = 512 * 1024
    #: Closed-loop foreground clients kept running during the timed window.
    load_concurrency: int = 2
    payload_seed: int = 13
    stripe_id: int = 1
    spec: DeploymentSpec = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n <= self.k or self.k <= 0:
            raise ValueError("need n > k > 0")
        if self.block_size <= 0 or self.slice_size <= 0:
            raise ValueError("block_size and slice_size must be positive")
        if self.spec is None:
            object.__setattr__(self, "spec", DeploymentSpec.local(self.n))

    def code_spec(self) -> Dict[str, object]:
        return {"family": "rs", "n": self.n, "k": self.k}

    def payload(self) -> bytes:
        """The seeded object stored for the run (fills ``k`` blocks)."""
        return random.Random(self.payload_seed).randbytes(self.k * self.block_size)

    def placement(self) -> Dict[int, str]:
        """Block index -> node, exactly as the live gateway places them."""
        return rotated_placement(self.stripe_id, self.n, self.spec.helpers)


@dataclass(frozen=True)
class CompareConfig(TwinShape):
    """One measured-vs-simulated comparison configuration."""

    schemes: Tuple[str, ...] = ("rp", "conventional")
    #: Timed repetitions per scheme (median reported).
    repeats: int = 3
    load_seed: int = 7

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        if self.spec.num_helpers < self.n:
            raise ValueError(
                f"deployment has {self.spec.num_helpers} helpers, "
                f"stripe needs {self.n}"
            )


def twin_repair_seconds(
    shape: TwinShape,
    scheme: str,
    bandwidth: Optional[float] = None,
    degradation: Optional[TwinDegradation] = None,
    failed: Tuple[int, ...] = (0,),
) -> float:
    """Simulated makespan of repairing ``failed`` on the deployment's twin.

    The twin is the spec's (optionally degraded, optionally re-based to
    ``bandwidth``) cluster plus the gateway as requestor node, holding the
    shape's stripe where the live gateway places it.
    """
    cluster = shape.spec.degraded_cluster(degradation, network_bandwidth=bandwidth)
    cluster.add_node(GATEWAY_NODE)
    stripe = StripeInfo(
        RSCode(shape.n, shape.k), shape.placement(), stripe_id=shape.stripe_id
    )
    request = RepairRequest(
        stripe, list(failed), GATEWAY_NODE, shape.block_size, shape.slice_size
    )
    return make_scheme(scheme).repair_time(request, cluster).makespan


def predicted_makespans(config: CompareConfig) -> Dict[str, float]:
    """Simulated repair makespans of the deployment's twin, per scheme."""
    return {scheme: twin_repair_seconds(config, scheme) for scheme in config.schemes}


async def measure_schemes(
    config: CompareConfig, gateway: Tuple[str, int]
) -> Dict[str, Dict[str, object]]:
    """Time degraded reads per scheme on a *booted* deployment.

    Stores the seeded stripe, erases block 0, then, for every scheme,
    repeats the timed degraded read with the load generator running and
    reports per-run seconds, the median, and the foreground load summary.
    """
    client = ServiceClient(gateway)
    payload = config.payload()
    await client.put(config.stripe_id, payload, config.code_spec())
    await client.erase(config.stripe_id, 0)
    results: Dict[str, Dict[str, object]] = {}
    for scheme in config.schemes:
        runs: List[float] = []
        load_reports: List[Dict[str, object]] = []
        for repeat in range(config.repeats):
            generator = LoadGenerator(
                gateway,
                {config.stripe_id: config.k},
                seed=config.load_seed + repeat,
                concurrency=config.load_concurrency,
                scheme="rp",
                slice_size=config.slice_size,
            )
            load_task = asyncio.create_task(generator.run())
            await asyncio.sleep(0.05)  # let the load ramp before timing
            begin = time.perf_counter()
            block, header = await client.read_block(
                config.stripe_id,
                0,
                scheme=scheme,
                slice_size=config.slice_size,
                force_repair=True,
            )
            runs.append(time.perf_counter() - begin)
            generator.stop()
            load_reports.append((await load_task).to_dict())
            if len(block) != config.block_size or not header.get("repaired"):
                raise RuntimeError(
                    f"scheme {scheme!r} returned {len(block)} bytes, "
                    f"repaired={header.get('repaired')}"
                )
        results[scheme] = {
            "runs": runs,
            "median_seconds": statistics.median(runs),
            "load": load_reports[-1],
        }
    # Leave the stripe whole: write the block back through a final repair.
    await client.repair(config.stripe_id, [0], scheme="rp", slice_size=config.slice_size)
    return results


async def gateway_counters(gateway: Tuple[str, int]) -> Dict[str, float]:
    """Monotone samples of the gateway's registry, via the METRICS op."""
    reply = await request(gateway[0], gateway[1], Op.METRICS, {})
    return counter_samples(reply.payload.decode("utf-8"))


def trace_summary(trace_dir: str) -> List[Dict[str, object]]:
    """JSON-safe digest of the pipelined repairs recorded under a trace dir.

    Only traces that actually ran a chain hop qualify (the load generator's
    healthy reads would swamp the report otherwise); each digest carries the
    structural problems :func:`validate_trace` found, which the chaos differ
    and tests can assert empty.
    """
    spans = read_spans(trace_dir)
    summary: List[Dict[str, object]] = []
    for trace_id, root_op, _start in trace_ids(spans):
        trace_spans = [s for s in spans if s.get("trace_id") == trace_id]
        hops = sum(1 for s in trace_spans if s.get("op") == "CHAIN")
        if hops == 0:
            continue
        summary.append(
            {
                "trace_id": trace_id,
                "root_op": root_op,
                "spans": len(trace_spans),
                "chain_hops": hops,
                "problems": validate_trace(trace_spans),
            }
        )
    return summary[-MAX_REPORT_TRACES:]


def run_comparison(
    config: Optional[CompareConfig] = None,
    mode: str = "process",
    deployment: Optional[LocalDeployment] = None,
) -> Dict[str, object]:
    """Full comparison: boot, measure, predict, report.

    Parameters
    ----------
    config:
        Comparison configuration (defaults to the (9, 6) 8 MiB setup).
    mode:
        ``"process"`` (default; real parallelism) or ``"inproc"`` (single
        event loop -- used by tests, where wall-clock is not the point).
    deployment:
        An already-booted deployment to reuse; when given, ``mode`` is
        ignored and the deployment is left running.
    """
    config = config if config is not None else CompareConfig()
    own_deployment = deployment is None

    async def _measure_with_obs(
        gateway: Tuple[str, int]
    ) -> Tuple[Dict[str, Dict[str, object]], Dict[str, float]]:
        before = await gateway_counters(gateway)
        measured = await measure_schemes(config, gateway)
        after = await gateway_counters(gateway)
        return measured, diff_samples(before, after)

    async def _measure_inproc(trace_dir: str):
        local = LocalDeployment(spec=config.spec, trace_dir=trace_dir)
        await local.start()
        try:
            return await _measure_with_obs(local.gateway_address)
        finally:
            await local.stop()

    traces: List[Dict[str, object]] = []
    if deployment is not None:
        measured, metrics_delta = asyncio.run(
            _measure_with_obs(deployment.gateway_address)
        )
        if deployment.trace_dir:
            traces = trace_summary(deployment.trace_dir)
    elif mode in ("inproc", "process"):
        trace_dir = tempfile.mkdtemp(prefix="ecpipe-compare-trace-")
        try:
            if mode == "inproc":
                measured, metrics_delta = asyncio.run(_measure_inproc(trace_dir))
            else:
                local = LocalDeployment(spec=config.spec, trace_dir=trace_dir)
                local.up()
                try:
                    measured, metrics_delta = asyncio.run(
                        _measure_with_obs(local.gateway_address)
                    )
                finally:
                    local.down()
            traces = trace_summary(trace_dir)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'process' or 'inproc'")

    predicted = predicted_makespans(config)
    report: Dict[str, object] = {
        "config": {
            "n": config.n,
            "k": config.k,
            "block_size": config.block_size,
            "slice_size": config.slice_size,
            "repeats": config.repeats,
            "load_concurrency": config.load_concurrency,
            "mode": "external" if not own_deployment else mode,
        },
        "measured": measured,
        "predicted": {scheme: predicted[scheme] for scheme in config.schemes},
        "metrics": {"gateway_delta": metrics_delta},
        "traces": traces,
    }
    if "rp" in config.schemes and "conventional" in config.schemes:
        measured_rp = measured["rp"]["median_seconds"]
        measured_conv = measured["conventional"]["median_seconds"]
        report["measured_ratio"] = measured_conv / measured_rp
        report["predicted_ratio"] = predicted["conventional"] / predicted["rp"]
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable table of a comparison report."""
    lines = []
    config = report["config"]
    lines.append(
        f"measured vs simulated -- ({config['n']}, {config['k']}), "
        f"block {config['block_size'] / 2**20:.1f} MiB, "
        f"slice {config['slice_size'] / 2**10:.0f} KiB, "
        f"{config['load_concurrency']} foreground clients"
    )
    lines.append(f"{'scheme':<14}{'measured (s)':>14}{'simulated (s)':>15}")
    for scheme, outcome in report["measured"].items():
        predicted = report["predicted"][scheme]
        lines.append(
            f"{scheme:<14}{outcome['median_seconds']:>14.3f}{predicted:>15.3f}"
        )
    if "measured_ratio" in report:
        lines.append(
            f"conventional/rp ratio: measured {report['measured_ratio']:.2f}x, "
            f"simulated {report['predicted_ratio']:.2f}x"
        )
    if report.get("traces"):
        problems = sum(len(t["problems"]) for t in report["traces"])
        lines.append(
            f"repair traces captured: {len(report['traces'])} "
            f"({problems} structural problem(s))"
        )
    return "\n".join(lines)
