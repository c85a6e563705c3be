"""The continuous cluster runtime.

:class:`ClusterRuntime` turns the per-figure, single-shot experiments into a
long-horizon simulator of a *running* erasure-coded cluster:

1. a failure trace (transient block outages + permanent node failures, the
   section 2.3 mix) is drawn over a configurable horizon of simulated
   wall-clock time;
2. permanent failures are detected after a delay and enqueued on a
   risk-prioritised repair queue (:mod:`repro.runtime.queue`);
3. up to ``max_concurrent_repairs`` repairs run at once, each planned by the
   :class:`~repro.ecpipe.coordinator.Coordinator` (greedy
   least-recently-selected helpers, section 3.3), compiled by the configured
   repair scheme (``conventional`` / ``ppr`` / ``rp`` / ...), optionally
   capped by the per-node repair throttle, and executed as a task graph on
   the shared :class:`~repro.sim.engine.DynamicSimulator` -- so repair
   traffic genuinely queues against foreground traffic on the same NIC and
   disk ports;
4. a Poisson foreground read workload runs throughout; reads that hit an
   unreadable block become degraded reads through the same repair scheme,
   which is where repair pipelining's tail-latency advantage shows up under
   load;
5. reconstructed blocks are relocated to replacement nodes (metadata
   follows), dead nodes rejoin empty after a provisioning delay, and a
   stripe that exceeds its fault tolerance before repair catches up is a
   recorded **data-loss event**.

Every stochastic choice derives from one master seed, and the event loops
(both the external injection loop here and the port-level loop in the
simulator) break ties deterministically -- two runs with the same seed and
configuration replay the identical month, metric for metric.

Simplifications versus a real cluster, chosen to keep the model at the
paper's level of abstraction: repairs in flight are not interrupted by new
failures (their helpers' ports keep serving), a lost stripe stays lost even
if a transient outage later heals, and repair writes at the replacement node
are folded into the final transfer rather than modelled as a separate disk
pass.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.core.conventional import ConventionalRepair
from repro.core.pipelining import RepairPipelining
from repro.core.planner import RepairScheme
from repro.core.ppr import PPRRepair
from repro.core.request import StripeInfo
from repro.core.templates import (
    PortResolver,
    RebindableGraphTemplate,
    role_pattern,
)
from repro.ecpipe.coordinator import Coordinator
from repro.runtime.foreground import (
    READ_DISTRIBUTIONS,
    ForegroundOp,
    ForegroundWorkload,
    build_read_graph,
)
from repro.runtime.metrics import MetricsCollector
from repro.runtime.queue import RepairJob, RepairQueue
from repro.runtime.state import PERMANENT, TRANSIENT, ClusterState
from repro.runtime.throttle import RepairThrottle
from repro.sim.engine import DynamicSimulator
from repro.workloads.failures import (
    FailureEvent,
    FailureGenerator,
    RackBurstFailureGenerator,
)

#: Repair schemes the runtime can dispatch.
SCHEMES = ("conventional", "ppr", "rp", "pipe_s", "pipe_b")

#: Failure models the runtime can draw traces from.
FAILURE_MODELS = ("independent", "rack_burst")

#: Seconds per simulated day (convenience for configs and reports).
DAY = 86400.0


def make_scheme(name: str) -> RepairScheme:
    """Instantiate a repair scheme by its benchmark name."""
    if name == "conventional":
        return ConventionalRepair()
    if name == "ppr":
        return PPRRepair()
    if name in ("rp", "pipe_s", "pipe_b"):
        return RepairPipelining(name)
    raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEMES}")


@dataclass(frozen=True)
class RuntimeConfig:
    """Configuration of a continuous runtime run.

    Attributes
    ----------
    horizon_seconds:
        Length of the failure/foreground injection window.  The run itself
        ends when the last in-flight work completes, so MTTR is never
        truncated.
    block_size, slice_size:
        Repair geometry (defaults mirror the scaled-down benchmarks).
    scheme:
        Repair scheme used for both background repairs and degraded reads.
    max_concurrent_repairs:
        Dispatch width of the repair manager.
    repair_bandwidth_cap:
        Per-node repair egress cap in bytes/second; ``None`` disables
        throttling.
    detection_delay:
        Seconds between a permanent failure and its jobs entering the queue
        (failure-detector timeout).
    node_rejoin_seconds:
        Seconds until a replacement node comes up (empty) under the failed
        node's name.
    mean_failure_interarrival, transient_fraction, transient_duration_mean:
        Failure-process parameters (see
        :class:`~repro.workloads.failures.FailureGenerator`).
    failure_model:
        ``"independent"`` (the default Poisson mix) or ``"rack_burst"``
        (correlated node failures via
        :class:`~repro.workloads.failures.RackBurstFailureGenerator`; the
        transient stream keeps its independent rate).
    racks:
        Failure domains for the rack-burst model, as tuples of node names;
        required when ``failure_model="rack_burst"``.
    burst_mean_interarrival, burst_size_mean, burst_span_seconds:
        Rack-burst parameters (burst arrival rate, mean nodes per burst,
        spread of one burst's failures over time).
    foreground_rate:
        Foreground read arrivals per second (0 disables the workload).
    foreground_read_size:
        Bytes per foreground read; defaults to ``block_size``.
    read_distribution, zipf_alpha:
        Stripe popularity of the foreground mix: ``"uniform"`` or ``"zipf"``
        hot spots (see :class:`~repro.runtime.foreground.ForegroundWorkload`).
    clients:
        Nodes issuing foreground reads; defaults to every cluster node.
    seed:
        Master seed; every stochastic component derives from it.

    The config is a frozen dataclass of primitives (tuples, floats,
    strings), so it pickles cleanly across process boundaries -- the
    parallel experiment engine (:mod:`repro.exp`) ships one per trial to its
    worker processes.
    """

    horizon_seconds: float
    block_size: int = 8 * 1024 * 1024
    slice_size: int = 1024 * 1024
    scheme: str = "rp"
    max_concurrent_repairs: int = 8
    repair_bandwidth_cap: Optional[float] = None
    detection_delay: float = 30.0
    node_rejoin_seconds: float = 3600.0
    mean_failure_interarrival: float = 6 * 3600.0
    transient_fraction: float = 0.9
    transient_duration_mean: float = 900.0
    failure_model: str = "independent"
    racks: Tuple[Tuple[str, ...], ...] = ()
    burst_mean_interarrival: float = 24 * 3600.0
    burst_size_mean: float = 2.0
    burst_span_seconds: float = 300.0
    foreground_rate: float = 0.0
    foreground_read_size: Optional[int] = None
    read_distribution: str = "uniform"
    zipf_alpha: float = 1.1
    clients: Tuple[str, ...] = ()
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if self.block_size <= 0 or self.slice_size <= 0:
            raise ValueError("block_size and slice_size must be positive")
        if self.slice_size > self.block_size:
            raise ValueError("slice_size cannot exceed block_size")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.max_concurrent_repairs <= 0:
            raise ValueError("max_concurrent_repairs must be positive")
        if self.detection_delay < 0 or self.node_rejoin_seconds < 0:
            raise ValueError("delays must be non-negative")
        if self.foreground_rate < 0:
            raise ValueError("foreground_rate must be non-negative")
        if self.foreground_read_size is not None and self.foreground_read_size <= 0:
            raise ValueError("foreground_read_size must be positive when set")
        if self.failure_model not in FAILURE_MODELS:
            raise ValueError(
                f"unknown failure_model {self.failure_model!r}; "
                f"expected one of {FAILURE_MODELS}"
            )
        if self.failure_model == "rack_burst":
            if not self.racks or any(not rack for rack in self.racks):
                raise ValueError(
                    "failure_model='rack_burst' requires non-empty racks"
                )
            if self.burst_mean_interarrival <= 0:
                raise ValueError("burst_mean_interarrival must be positive")
            if self.burst_size_mean < 1.0:
                raise ValueError("burst_size_mean must be at least 1")
            if self.burst_span_seconds < 0:
                raise ValueError("burst_span_seconds must be non-negative")
        if self.read_distribution not in READ_DISTRIBUTIONS:
            raise ValueError(
                f"unknown read_distribution {self.read_distribution!r}; "
                f"expected one of {READ_DISTRIBUTIONS}"
            )
        if self.read_distribution == "zipf" and self.zipf_alpha <= 0:
            raise ValueError("zipf_alpha must be positive")

    @property
    def read_size(self) -> int:
        """Effective foreground read size in bytes."""
        return (
            self.block_size
            if self.foreground_read_size is None
            else self.foreground_read_size
        )


@dataclass
class RuntimeReport:
    """Outcome of one runtime run.

    The report is serialisable: :meth:`to_dict` flattens it to plain
    primitives (dropping the raw collector) and :meth:`from_dict` restores
    it, which is how the parallel experiment engine transports per-trial
    results out of its worker processes and how same-seed replays are
    compared with ``==``.
    """

    #: Flat deterministic metric summary (see :meth:`MetricsCollector.summary`).
    summary: Dict[str, float]
    #: The raw collector, for custom reductions; ``None`` after a
    #: serialisation round trip.
    metrics: Optional[MetricsCollector] = field(repr=False, default=None)
    #: Simulated time at which the cluster went quiet.
    final_time: float = 0.0
    #: Total simulator tasks executed.
    tasks_completed: int = 0
    #: Wall-clock performance counters (cache hit rates etc.); intentionally
    #: excluded from :meth:`to_dict` -- they describe the implementation, not
    #: the simulated cluster, and must never leak into replay comparisons.
    perf: Dict[str, float] = field(repr=False, compare=False, default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-primitive form of the report (summary, final time, tasks).

        The raw collector is intentionally excluded: everything the
        aggregation layer consumes lives in ``summary``, whose key order is
        fixed, so two reports serialise identically iff their runs replayed
        identically.
        """
        return {
            "summary": dict(self.summary),
            "final_time": self.final_time,
            "tasks_completed": self.tasks_completed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RuntimeReport":
        """Rebuild a report (without its collector) from :meth:`to_dict`."""
        return cls(
            summary=dict(payload["summary"]),  # type: ignore[arg-type]
            metrics=None,
            final_time=float(payload["final_time"]),  # type: ignore[arg-type]
            tasks_completed=int(payload["tasks_completed"]),  # type: ignore[arg-type]
        )


class ClusterRuntime:
    """Event-driven continuous simulation of an erasure-coded cluster.

    Parameters
    ----------
    cluster:
        The cluster (its ports are shared by repairs and foreground reads).
    stripes:
        The stripes under management; placements are mutated in place as
        repairs relocate blocks.
    config:
        Run parameters.
    """

    def __init__(
        self,
        cluster: Cluster,
        stripes: Sequence[StripeInfo],
        config: RuntimeConfig,
        engine=None,
        use_templates: bool = True,
    ) -> None:
        if not stripes:
            raise ValueError("at least one stripe is required")
        self.cluster = cluster
        self.stripes = list(stripes)
        self.config = config
        self.scheme = make_scheme(config.scheme)
        self.coordinator = Coordinator(cluster=cluster)
        for stripe in self.stripes:
            self.coordinator.register_stripe(stripe)
        self.state = ClusterState(self.stripes, cluster.node_names())
        self.queue = RepairQueue()
        self.throttle = RepairThrottle(cluster, config.repair_bandwidth_cap)
        self.metrics = MetricsCollector()
        #: The discrete-event executor.  Injectable so the conformance
        #: harness (:mod:`repro.conformance`) can run the identical trial on
        #: the independent :class:`~repro.sim.reference.ReferenceSimulator`;
        #: any object with the ``DynamicSimulator`` submission API works.
        self.sim = DynamicSimulator() if engine is None else engine
        #: Whether graph/read templates may be used.  The conformance
        #: harness turns them off so every graph is compiled from scratch by
        #: the scheme layer, making the template cache one of the layers the
        #: differential comparison independently checks.
        self.use_templates = use_templates
        self._clients = list(config.clients) or cluster.node_names()
        self._active_repairs = 0
        self._inflight: set = set()
        self._deferred: Dict[int, List[RepairJob]] = {}
        self._events: List[tuple] = []
        self._event_seq = itertools.count()
        self._op_seq = itertools.count()
        self._placement_rng = random.Random()
        #: Rebindable graph templates keyed by (operation kind,
        #: node-coincidence pattern of the role vector): ``"repair"``
        #: (throttled) and ``"degraded"`` (not) over helper path +
        #: requestor, ``"read"`` over (source, client).  The greedy
        #: scheduler rotates helper *nodes* constantly but the structural
        #: pattern almost never changes, and a read has two patterns
        #: (``source == client`` drops the transfer), so the table converges
        #: to a handful of entries with a ~100% hit rate; a ``None`` value
        #: records a graph shape the resolver could not faithfully rebind
        #: (those keep building directly).
        self._templates: Dict[
            Tuple[str, Tuple[int, ...]], Optional[RebindableGraphTemplate]
        ] = {}
        self._template_hits = {"repair": 0, "degraded": 0, "read": 0}
        self._template_misses = {"repair": 0, "degraded": 0, "read": 0}
        self._port_resolver = PortResolver(cluster, self.throttle)

    # ------------------------------------------------------------ event loop
    def _push_event(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (time, next(self._event_seq), kind, payload))

    def run(self) -> RuntimeReport:
        """Simulate the configured horizon and return the metric report."""
        cfg = self.config
        # The engine's clock starts at zero: clear any scheduling state a
        # previous run left on the (reusable) cluster and throttle ports.
        # Statistics keep accumulating, as they always have.
        for port in self.cluster.all_ports():
            port.clear_schedule()
        for port in self.throttle.ports():
            port.clear_schedule()
        master = random.Random(cfg.seed)
        failure_rng = random.Random(master.randrange(2**63))
        foreground_rng = random.Random(master.randrange(2**63))
        self._placement_rng = random.Random(master.randrange(2**63))

        if cfg.failure_model == "rack_burst":
            # The transient stream keeps the independent model's effective
            # rate (fraction of the combined arrival process) so the two
            # models are comparable outage-for-outage.
            transient_mean = cfg.mean_failure_interarrival / max(
                cfg.transient_fraction, 1e-12
            )
            trace = RackBurstFailureGenerator(
                self.stripes,
                racks=cfg.racks,
                transient_mean_interarrival=transient_mean,
                burst_mean_interarrival=cfg.burst_mean_interarrival,
                burst_size_mean=cfg.burst_size_mean,
                burst_span_seconds=cfg.burst_span_seconds,
                rng=failure_rng,
                transient_duration_mean=cfg.transient_duration_mean,
            ).generate_until(cfg.horizon_seconds)
        else:
            trace = FailureGenerator(
                self.stripes,
                transient_fraction=cfg.transient_fraction,
                mean_interarrival=cfg.mean_failure_interarrival,
                rng=failure_rng,
                transient_duration_mean=cfg.transient_duration_mean,
            ).generate_until(cfg.horizon_seconds)
        # The full failure trace and foreground schedule are known up front:
        # keep them as one time-sorted list and merge with the (small) heap
        # of events scheduled during the run (detect/restore/rejoin), rather
        # than pushing tens of thousands of arrivals through the heap.  Tie
        # order is exactly the old single-heap order because the sequence
        # numbers are assigned in the same push order and comparisons never
        # reach the payload.
        seq = self._event_seq
        static: List[tuple] = [
            (event.time, next(seq), "failure", event) for event in trace
        ]
        if cfg.foreground_rate > 0:
            workload = ForegroundWorkload(
                num_stripes=len(self.stripes),
                blocks_per_stripe=max(s.code.n for s in self.stripes),
                clients=self._clients,
                rate_per_sec=cfg.foreground_rate,
                rng=foreground_rng,
                distribution=cfg.read_distribution,
                zipf_alpha=cfg.zipf_alpha,
            )
            static.extend(
                (op.time, next(seq), "op", op)
                for op in workload.arrivals(cfg.horizon_seconds)
            )
        static.sort()

        handlers = {
            "failure": self._handle_failure,
            "op": self._handle_op,
            "detect": self._handle_detect,
            "restore": self._handle_restore,
            "rejoin": self._handle_rejoin,
        }
        dynamic = self._events
        run_until = self.sim.run_until
        heappop = heapq.heappop
        index, count = 0, len(static)
        while index < count or dynamic:
            if index < count and (not dynamic or static[index] < dynamic[0]):
                event = static[index]
                index += 1
            else:
                event = heappop(dynamic)
            time, _, kind, payload = event
            run_until(time)
            handlers[kind](payload, time)

        self.sim.run_until(cfg.horizon_seconds)
        final_time = self.sim.drain()

        code = self.stripes[0].code
        summary = self.metrics.summary(
            n=code.n,
            k=code.k,
            num_nodes=len(self.cluster),
            horizon_seconds=cfg.horizon_seconds,
        )
        return RuntimeReport(
            summary=summary,
            metrics=self.metrics,
            final_time=final_time,
            tasks_completed=self.sim.tasks_completed,
            perf=self.perf_counters(),
        )

    def perf_counters(self) -> Dict[str, float]:
        """Implementation-side counters for the perf benchmarks.

        These describe how the run was *executed* (cache effectiveness), not
        what it simulated, and are deliberately absent from
        :meth:`RuntimeReport.to_dict`.
        """
        code = self.stripes[0].code
        hits, misses = self._template_hits, self._template_misses
        return {
            "plan_cache_hits": float(code.plan_cache_hits),
            "plan_cache_misses": float(code.plan_cache_misses),
            "graph_template_hits": float(hits["repair"] + hits["degraded"]),
            "graph_template_misses": float(misses["repair"] + misses["degraded"]),
            "graph_template_entries": float(
                sum(kind != "read" for kind, _ in self._templates)
            ),
            "read_template_hits": float(hits["read"]),
            "read_template_misses": float(misses["read"]),
            "tasks_completed": float(self.sim.tasks_completed),
        }

    # -------------------------------------------------------------- failures
    def _handle_failure(self, event: FailureEvent, now: float) -> None:
        # Effective failures are counted inside the handlers, after the
        # already-down checks, so absorbed no-op events (a failure drawn for
        # a node that is already dead, or a block already unreadable) do not
        # inflate the failure rate fed to the MTTDL model.
        if event.kind == "transient":
            self._handle_transient(event, now)
        else:
            self._handle_node_failure(event.node, now)

    def _handle_transient(self, event: FailureEvent, now: float) -> None:
        sid, block = event.stripe_id, event.block_index
        if self.state.is_lost(sid):
            return
        if not self.state.is_block_available(sid, block):
            return  # already down (overlapping outage)
        self.metrics.record_failure_event("transient")
        token = self.state.fail_block(sid, block, TRANSIENT, now)
        self._check_data_loss(sid, now)
        if not self.state.is_lost(sid):
            self.queue.reprioritise(sid, self.state.failed_count(sid))
        duration = (
            event.duration
            if event.duration is not None
            else self.config.transient_duration_mean
        )
        self._push_event(now + duration, "restore", (sid, block, token))

    def _handle_node_failure(self, node: str, now: float) -> None:
        if not self.state.is_node_alive(node):
            return  # already down; the replacement absorbs this event
        self.metrics.record_failure_event("node")
        self.state.kill_node(node)
        self._push_event(now + self.config.node_rejoin_seconds, "rejoin", node)
        for location in self.coordinator.blocks_on_node(node):
            sid, block = location.stripe_id, location.block_index
            if self.state.is_lost(sid):
                continue
            existing = self.state.block_failure(sid, block)
            if existing is not None and existing.kind == PERMANENT:
                continue  # already lost and queued/in flight
            self.state.fail_block(sid, block, PERMANENT, now)
            self._check_data_loss(sid, now)
            if self.state.is_lost(sid):
                continue
            self.queue.reprioritise(sid, self.state.failed_count(sid))
            self._push_event(
                now + self.config.detection_delay, "detect", (sid, block, now)
            )

    def _check_data_loss(self, sid: int, now: float) -> None:
        stripe = self.state.stripes[sid]
        if self.state.is_lost(sid):
            return
        if self.state.failed_count(sid) > stripe.code.fault_tolerance():
            self.state.mark_lost(sid)
            self.metrics.data_loss_events.append((now, sid))
            if self.queue.discard_stripe(sid):
                self.metrics.record_queue_depth(now, self.queue.depth())
            self._deferred.pop(sid, None)

    def _handle_restore(self, payload: Tuple[int, int, int], now: float) -> None:
        sid, block, token = payload
        self.state.heal_block(sid, block, token)
        # Helpers may have become decodable again; retry stalled dispatches.
        self._dispatch(now)

    def _handle_rejoin(self, node: str, now: float) -> None:
        self.state.revive_node(node)
        self._dispatch(now)

    # --------------------------------------------------------------- repairs
    def _handle_detect(self, payload: Tuple[int, int, float], now: float) -> None:
        sid, block, failed_time = payload
        if self.state.is_lost(sid):
            return
        failure = self.state.block_failure(sid, block)
        if failure is None or failure.kind != PERMANENT:
            return
        if (sid, block) in self.queue:
            return
        self.queue.push(
            RepairJob(
                sid,
                block,
                failed_time,
                now,
                risk=self.state.failed_count(sid),
            )
        )
        self.metrics.record_queue_depth(now, self.queue.depth())
        self._dispatch(now)

    def _choose_replacement(self, stripe: StripeInfo) -> Optional[str]:
        """A live node not hosting any block of the stripe, or ``None``."""
        occupied = set(stripe.block_locations.values())
        candidates = [n for n in self.state.live_nodes() if n not in occupied]
        if not candidates:
            return None
        return self._placement_rng.choice(candidates)

    def _dispatch(self, now: float) -> None:
        """Start queued repairs up to the concurrency limit.

        Jobs that cannot run *right now* (no replacement node, not enough
        readable helpers) are set aside for this pass and re-queued at the
        end, so one stuck stripe never head-of-line blocks the rest; a
        restore, rejoin or repair completion retriggers dispatch.
        """
        cfg = self.config
        blocked: List[RepairJob] = []
        while self._active_repairs < cfg.max_concurrent_repairs:
            job = self.queue.pop()
            if job is None:
                break
            self.metrics.record_queue_depth(now, self.queue.depth())
            sid = job.stripe_id
            if self.state.is_lost(sid):
                continue
            if sid in self._inflight:
                # One repair per stripe at a time: siblings wait for the
                # in-flight repair to land, then re-enter the queue.
                self._deferred.setdefault(sid, []).append(job)
                continue
            stripe = self.state.stripes[sid]
            target = self._choose_replacement(stripe)
            if target is None:
                blocked.append(job)
                continue
            unavailable = [
                i for i in self.state.failed_blocks(sid) if i != job.block_index
            ]
            try:
                request, path = self.coordinator.plan_repair(
                    sid,
                    [job.block_index],
                    [target],
                    cfg.block_size,
                    cfg.slice_size,
                    greedy=True,
                    exclude_nodes=self.state.dead_nodes(),
                    unavailable=unavailable,
                )
            except ValueError:
                blocked.append(job)
                continue
            graph, transfer_bytes, recycle = self._repair_graph(
                request, path, stripe, target, repair=True
            )
            self.metrics.record_repair_traffic(transfer_bytes)
            self._active_repairs += 1
            self._inflight.add(sid)
            self.sim.submit(
                graph,
                now,
                on_complete=partial(self._repair_done, job, now, target),
                recycle=recycle,
            )
        for job in blocked:
            self.queue.push(job)
        if blocked:
            self.metrics.record_queue_depth(now, self.queue.depth())

    def _templated(self, kind: str, roles: Tuple[str, ...], build):
        """Instantiate ``kind``'s template for ``roles``, capturing on a miss.

        Returns ``(graph, transfer_bytes, recycle)``.  A miss compiles with
        ``build()`` and captures the result once per key; a shape the
        resolver cannot rebind is remembered as ``None`` and keeps building
        (unpooled).
        """
        key = (kind, role_pattern(roles))
        templates = self._templates
        template = templates.get(key)
        if template is not None:
            self._template_hits[kind] += 1
            return template.instantiate(roles), template.transfer_bytes, template.release
        self._template_misses[kind] += 1
        graph = build()
        if key not in templates:
            template = templates[key] = RebindableGraphTemplate.capture(
                graph, roles, self._port_resolver
            )
        if template is None:
            return graph, graph.total_bytes("transfer"), None
        return graph, template.transfer_bytes, template.release

    def _repair_graph(self, request, path, stripe, requestor: str, repair: bool):
        """Compile (or template-instantiate) one repair/degraded-read graph.

        Returns ``(graph, transfer_bytes, recycle)``.  The template table is
        keyed by the node-coincidence pattern of the operation's role vector
        (ordered helper nodes, then the requestor); in the runtime every
        scheme's helper order equals the coordinator's sorted path, so the
        role binding is exact and repeated patterns skip the planner and
        scheme compile entirely.
        """

        def build():
            graph = self.scheme.build_graph(request, self.cluster, candidates=path)
            return self.throttle.apply(graph) if repair else graph

        # Templates are only sound when the scheme will build over exactly
        # the ordered path -- which holds whenever the (memoized) plan's
        # helper set is the path itself.  Solver fallbacks that drop a
        # zero-coefficient helper (LRC global repairs) build a smaller graph
        # than the path suggests; those ops bypass the table and compile
        # directly.
        if self.use_templates and stripe.code.repair_plan(
            request.failed, path
        ).helpers == tuple(path):
            roles = tuple(stripe.location(i) for i in path) + (requestor,)
            return self._templated("repair" if repair else "degraded", roles, build)
        graph = build()
        return graph, graph.total_bytes("transfer"), None

    def _requeue(self, job: RepairJob, now: float) -> None:
        self.queue.push(job)
        self.metrics.record_queue_depth(now, self.queue.depth())

    def _repair_done(
        self, job: RepairJob, dispatch_time: float, target: str, finish_time: float
    ) -> None:
        sid = job.stripe_id
        self._active_repairs -= 1
        self._inflight.discard(sid)
        if not self.state.is_lost(sid):
            if self.state.is_node_alive(target):
                if self.state.heal_block(sid, job.block_index):
                    self.coordinator.relocate_block(sid, job.block_index, target)
                    self.metrics.record_repair(
                        job.failed_time, dispatch_time, finish_time
                    )
            else:
                # The replacement died while the repair was in flight; the
                # reconstructed block is gone with it -- repair again.
                self._requeue(
                    RepairJob(
                        sid,
                        job.block_index,
                        job.failed_time,
                        finish_time,
                        risk=self.state.failed_count(sid),
                    ),
                    finish_time,
                )
        for deferred in self._deferred.pop(sid, []):
            # Parked jobs were invisible to reprioritise while the sibling
            # repair ran; refresh their risk before they re-enter the queue.
            deferred.risk = max(deferred.risk, self.state.failed_count(sid))
            self._requeue(deferred, finish_time)
        self._dispatch(finish_time)

    # ------------------------------------------------------------ foreground
    def _handle_op(self, op: ForegroundOp, now: float) -> None:
        stripe = self.stripes[op.stripe_pos]
        sid = stripe.stripe_id
        block = op.block_index % stripe.code.n
        state = self.state
        if state.is_lost(sid):
            self.metrics.record_failed_read()
            return
        client = op.client
        if not state.is_node_alive(client):
            live = state.live_nodes()
            if not live:
                self.metrics.record_failed_read()
                return
            client = live[0]
        source = stripe.block_locations[block]
        if state.is_block_available(sid, block) and state.is_node_alive(source):
            def build():
                return build_read_graph(
                    self.cluster,
                    source,
                    client,
                    self.config.read_size,
                    name=f"fg{next(self._op_seq)}",
                )

            if self.use_templates:
                graph, _, recycle = self._templated("read", (source, client), build)
            else:
                graph, recycle = build(), None
            self.sim.submit(
                graph,
                now,
                on_complete=partial(self._read_done, now, False),
                recycle=recycle,
            )
            return
        # Degraded read: reconstruct the requested block at the client
        # through the configured repair scheme.
        unavailable = [i for i in self.state.failed_blocks(sid) if i != block]
        read_size = self.config.read_size
        try:
            request, path = self.coordinator.plan_repair(
                sid,
                [block],
                [client],
                read_size,
                min(self.config.slice_size, read_size),
                greedy=True,
                exclude_nodes=self.state.dead_nodes(),
                unavailable=unavailable,
            )
        except ValueError:
            self.metrics.record_failed_read()
            return
        graph, _, recycle = self._repair_graph(
            request, path, stripe, client, repair=False
        )
        self.sim.submit(
            graph,
            now,
            on_complete=partial(self._read_done, now, True),
            recycle=recycle,
        )

    def _read_done(self, issue_time: float, degraded: bool, finish_time: float) -> None:
        self.metrics.record_read(finish_time - issue_time, degraded)
