"""The live coordinator server.

The control plane of the deployment: it owns stripe metadata (code, block
placement, block/object sizes), knows every helper agent's address, and
plans repairs.  All *decisions* are delegated verbatim to the in-process
:class:`repro.ecpipe.Coordinator` -- the same greedy least-recently-selected
helper scheduling, the same path ordering, the same locality-aware plan
fallbacks -- so the live service and the in-process data plane are steered
by one brain and their repairs stay byte-comparable.

``PLAN_REPAIR`` answers with everything the data plane needs and nothing it
does not: for pipelined schemes, a serialised
:class:`~repro.ecpipe.pipeline.SliceChainPlan` plus the hop address map; for
conventional repair, the helper set with coefficients, keys and addresses.
Helpers never see the code object -- coefficients travel as plain integers.

Since the durable-control-plane work the coordinator is also the cluster's
*host storage system* in the paper's sense:

* every REGISTER_STRIPE / RELOCATE / endpoint registration is written
  through a :class:`~repro.service.store.MetadataStore` before the OK frame
  goes out, and boot rebuilds the full in-memory state from the store, so a
  killed-and-restarted coordinator recovers without any re-registration;
* helper ``HEARTBEAT`` frames (address + stored-block inventory) feed a
  :class:`~repro.service.detector.PhiFailureDetector`;
* an optional :class:`~repro.service.scanner.RepairScanner` closes the
  detect -> schedule -> repair loop against the registered gateway.

``REGISTER_STRIPE`` is idempotent for an identical spec (same code and
sizes): after a store recovery, clients replaying their registrations get
``OK`` instead of a duplicate error.  The *placement* of an existing stripe
is deliberately not overwritten -- the store's view survives relocations
the client never saw.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.codes.registry import code_from_spec
from repro.core.request import RepairRequest, StripeInfo
from repro.ecpipe.coordinator import Coordinator, block_key
from repro.ecpipe.pipeline import SliceChainPlan
from repro.service.detector import ALIVE, detector_from_env
from repro.service.protocol import Frame, FrameChannel, Op, write_frame
from repro.service.scanner import RepairScanner
from repro.service.server import FrameServer
from repro.service.store import MetadataStore

#: Repair schemes the service plane executes over real sockets.  ``rp`` and
#: ``pipe_s`` pipeline at slice granularity, ``pipe_b`` degenerates to one
#: block-sized slice (the naive hop-by-hop push), ``conventional`` fans
#: whole helper blocks into the requestor.
SERVICE_SCHEMES = ("rp", "pipe_s", "pipe_b", "conventional")

#: Floor of a modelled slice: one segment of the GF(2^8) kernel, below
#: which a hop's combine gains nothing and only the per-slice cost grows.
MIN_SLICE_SIZE = 64 * 1024

#: ``beta = c_slice / c_byte`` of a chain hop, in bytes: the fixed cost of
#: one slice (two JSON heads, the frame's syscalls, two event-loop wake-ups,
#: the kernel's set-up) expressed as the payload bytes that cost as much to
#: receive, combine and forward.  Measured from the helpers' CPU per hop at
#: two slice sizes: 40-52 KiB over five runs (EXPERIMENTS.md, "the slice
#: model"; ``examples/degraded_read_cost.py`` repeats it).
SLICE_BETA = 48 * 1024


def model_slice_size(block_size: int, hops: int) -> int:
    """The slice size that minimises the paper's pipeline time for one block.

    ``s`` slices through ``h`` hops take ``s + h - 1`` slots (section 3.2);
    with a slot costing its bytes plus a fixed per-slice term,
    ``T(s) = (s + h - 1) * (B / s * c_byte + c_slice)``, which is minimal at
    a slice of ``sqrt(B * beta / (h - 1))`` bytes (Fig. 8(a)'s U-curve).  The
    result is rounded to the nearest power of two and clamped to
    ``[MIN_SLICE_SIZE, block_size]``; a chain too short to pipeline, or a
    block no larger than the floor, travels as one slice.
    """
    if hops < 2 or block_size <= MIN_SLICE_SIZE:
        return block_size
    ideal = math.sqrt(block_size * SLICE_BETA / (hops - 1))
    return max(MIN_SLICE_SIZE, min(1 << round(math.log2(ideal)), block_size))


class CoordinatorServer(FrameServer):
    """Stripe metadata, helper registry and repair planning over TCP.

    Parameters
    ----------
    host, port:
        Bind address (``port=0`` for ephemeral).
    store_path:
        sqlite database of the :class:`MetadataStore`; ``None`` keeps the
        store in memory (tests and throwaway deployments).
    scan:
        Run the background :class:`RepairScanner` (self-healing).  Off by
        default in-process so unit tests stay deterministic; the process
        entry point (``run-role``) turns it on.
    """

    role = "coordinator"

    #: Control-plane decisions traced when the caller sent a context (the
    #: gateway's repair/read paths propagate theirs).
    TRACE_OPS = frozenset({Op.PLAN_REPAIR, Op.LOCATE, Op.RELOCATE, Op.REGISTER_STRIPE})

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_path: Optional[str] = None,
        scan: bool = False,
        scan_interval: Optional[float] = None,
        scan_grace: Optional[float] = None,
        metrics_port: Optional[int] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        super().__init__(host, port, metrics_port=metrics_port, trace_dir=trace_dir)
        self.coordinator = Coordinator()
        self._helper_addresses: Dict[str, Tuple[str, int]] = {}
        #: Per-stripe service metadata (JSON-safe).
        self._stripe_meta: Dict[int, Dict[str, object]] = {}
        #: Latest heartbeat inventory per helper node.
        self._inventory: Dict[str, Set[str]] = {}
        #: Registered gateways, by name (``host:port`` by default).  Several
        #: gateways may serve one deployment; the scanner round-robins over
        #: them and clients learn the set through the ``GATEWAYS`` op.
        self._gateway_addresses: Dict[str, Tuple[str, int]] = {}
        self._gateway_rr = 0
        self.store = MetadataStore(store_path)
        self.detector = detector_from_env()
        self._scan_enabled = bool(scan)
        self.scanner = RepairScanner(
            self.detector,
            self.store,
            placement=self._placement_map,
            inventory=lambda: self._inventory,
            gateway=self._next_gateway,
            scan_interval=scan_interval,
            grace=scan_grace,
            registry=self.registry,
        )
        self._plans_total = self.registry.counter(
            "coordinator_plans_total",
            "Repair plans served, by requested and executed scheme.",
            labels=("requested", "executed"),
        )
        self._heartbeats_received = self.registry.counter(
            "coordinator_heartbeats_total",
            "Heartbeat frames received, by helper node.",
            labels=("node",),
        )
        self._helpers_gauge = self.registry.gauge(
            "coordinator_helpers", "Helper nodes currently registered."
        )
        self._gateways_gauge = self.registry.gauge(
            "coordinator_gateways", "Gateways currently registered."
        )
        self._stripes_gauge = self.registry.gauge(
            "coordinator_stripes", "Stripes currently registered."
        )
        self._phi_gauge = self.registry.gauge(
            "detector_phi",
            "Current phi suspicion level per helper node.",
            labels=("node",),
        )
        self._state_gauge = self.registry.gauge(
            "detector_state",
            "Detector state per node: 0 alive, 1 suspect, 2 dead.",
            labels=("node",),
        )
        self._transitions_total = self.registry.counter(
            "detector_transitions_total",
            "Detector state changes, by node and destination state.",
            labels=("node", "to"),
        )
        #: Last state published per node (transition-edge detection).
        self._last_states: Dict[str, str] = {}
        self._recover()

    def _next_gateway(self) -> Optional[Tuple[str, int]]:
        """Round-robin over the registered gateways (``None`` when empty)."""
        if not self._gateway_addresses:
            return None
        names = sorted(self._gateway_addresses)
        name = names[self._gateway_rr % len(names)]
        self._gateway_rr += 1
        return self._gateway_addresses[name]

    # ------------------------------------------------------------- durability
    def _recover(self) -> None:
        """Rebuild the full in-memory control-plane state from the store."""
        self._helper_addresses.update(self.store.endpoints("helper"))
        self._gateway_addresses.update(self.store.endpoints("gateway"))
        for entry in self.store.stripes():
            stripe_id = int(entry["stripe_id"])
            code = code_from_spec(entry["code"])
            locations = {int(i): str(n) for i, n in entry["locations"].items()}
            self.coordinator.register_stripe(
                StripeInfo(code, locations, stripe_id=stripe_id)
            )
            self._stripe_meta[stripe_id] = {
                "stripe_id": stripe_id,
                "code": dict(entry["code"]),
                "block_size": int(entry["block_size"]),
                "object_size": int(entry["object_size"]),
            }
        if self._stripe_meta or self._helper_addresses:
            self.store.journal_append(
                "boot",
                detail=(
                    f"recovered {len(self._stripe_meta)} stripes, "
                    f"{len(self._helper_addresses)} helpers, "
                    f"{len(self._gateway_addresses)} gateways"
                ),
            )

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> "CoordinatorServer":
        await super().start()
        if self._scan_enabled:
            self.scanner.start()
        return self

    async def stop(self) -> None:
        await self.scanner.stop()
        await super().stop()
        self.store.close()

    async def abort(self) -> None:
        await self.scanner.stop()
        await super().abort()
        self.store.close()

    # -------------------------------------------------------------- dispatch
    async def handle(self, frame: Frame, channel: FrameChannel) -> None:
        if frame.op == Op.REGISTER_HELPER:
            node = str(frame.header["node"])
            address = (str(frame.header["host"]), int(frame.header["port"]))
            self._helper_addresses[node] = address
            self.store.register_endpoint("helper", node, *address)
            await write_frame(channel, Op.OK, {"helpers": len(self._helper_addresses)})
        elif frame.op == Op.HEARTBEAT:
            node = str(frame.header["node"])
            self._heartbeats_received.inc(node=node)
            self.detector.beat(node)
            self._observe_states()
            self._inventory[node] = {str(k) for k in frame.header.get("blocks", [])}
            if node not in self._helper_addresses:
                # First contact wins only when the registry has never heard
                # of the node: an explicit REGISTER_HELPER (possibly a chaos
                # proxy interposed in front of the real agent) is never
                # overwritten by the agent's own beats.
                address = (str(frame.header["host"]), int(frame.header["port"]))
                self._helper_addresses[node] = address
                self.store.register_endpoint("helper", node, *address)
            await write_frame(channel, Op.OK, {"state": self.detector.state(node)})
        elif frame.op == Op.REGISTER_GATEWAY:
            address = (str(frame.header["host"]), int(frame.header["port"]))
            name = str(frame.header.get("name", f"{address[0]}:{address[1]}"))
            if self._gateway_addresses.get(name) != address:
                # Gateways periodically re-announce themselves (to survive
                # coordinator restarts); only a genuinely new or moved
                # gateway is worth a store write.
                self._gateway_addresses[name] = address
                self.store.register_endpoint("gateway", name, *address)
            await write_frame(
                channel, Op.OK, {"gateways": len(self._gateway_addresses)}
            )
        elif frame.op == Op.GATEWAYS:
            await write_frame(
                channel,
                Op.OK,
                {
                    "gateways": {
                        name: list(addr)
                        for name, addr in sorted(self._gateway_addresses.items())
                    }
                },
            )
        elif frame.op == Op.DETECTOR:
            await write_frame(
                channel,
                Op.OK,
                {
                    "detector": self.detector.report(),
                    "scanner": self.scanner.stats(),
                    "scanning": self._scan_enabled,
                    "store": self.store.path or ":memory:",
                    "journal": self.store.journal(limit=20),
                },
            )
        elif frame.op == Op.HELPERS:
            await write_frame(
                channel,
                Op.OK,
                {
                    "helpers": {
                        node: list(addr)
                        for node, addr in sorted(self._helper_addresses.items())
                    }
                },
            )
        elif frame.op == Op.REGISTER_STRIPE:
            await self._register_stripe(frame, channel)
        elif frame.op == Op.STRIPES:
            stripe_id = frame.header.get("stripe_id")
            if stripe_id is None:
                await write_frame(
                    channel, Op.OK, {"stripes": sorted(self._stripe_meta)}
                )
            else:
                await write_frame(channel, Op.OK, self._stripe_info(int(stripe_id)))
        elif frame.op == Op.LOCATE:
            location = self.coordinator.locate(
                int(frame.header["stripe_id"]), int(frame.header["block"])
            )
            await write_frame(
                channel,
                Op.OK,
                {
                    "node": location.node,
                    "key": location.key,
                    "address": self._helper_address(location.node),
                },
            )
        elif frame.op == Op.RELOCATE:
            stripe_id = int(frame.header["stripe_id"])
            block = int(frame.header["block"])
            node = str(frame.header["node"])
            self.coordinator.relocate_block(stripe_id, block, node)
            self.store.relocate(stripe_id, block, node)
            self.store.journal_append("relocate", stripe_id, block, detail=node)
            await write_frame(channel, Op.OK, {})
        elif frame.op == Op.PLAN_REPAIR:
            decision = self._plan_repair(frame.header)
            self._plans_total.inc(
                requested=str(decision.get("requested_scheme", "")),
                executed=str(decision.get("scheme", "")),
            )
            await write_frame(channel, Op.OK, decision)
        else:
            await super().handle(frame, channel)

    # -------------------------------------------------------- observability
    _STATE_VALUES = {"alive": 0, "suspect": 1, "dead": 2}

    def _observe_states(self) -> None:
        """Publish detector phi/state gauges and count state transitions.

        Both the DETECTOR op and the metrics exposition derive from
        :meth:`PhiFailureDetector.report` state, so the two views can never
        disagree -- the single-source-of-truth contract.
        """
        for node in self.detector.nodes():
            phi = self.detector.phi(node)
            state = self.detector.state(node)
            self._phi_gauge.set(phi, node=node)
            self._state_gauge.set(self._STATE_VALUES.get(state, -1), node=node)
            previous = self._last_states.get(node)
            if previous != state and not (previous is None and state == ALIVE):
                # A node's first observation counts as a transition only
                # when it starts somewhere *other* than alive.
                self._transitions_total.inc(node=node, to=state)
            self._last_states[node] = state

    def _refresh_metrics(self) -> None:
        self._helpers_gauge.set(len(self._helper_addresses))
        self._gateways_gauge.set(len(self._gateway_addresses))
        self._stripes_gauge.set(len(self._stripe_meta))
        self._observe_states()
        self.scanner.refresh_gauges()

    def stat(self) -> Dict[str, object]:
        base = super().stat()
        base.update(
            helpers=len(self._helper_addresses),
            gateways=len(self._gateway_addresses),
            stripes=len(self._stripe_meta),
            store=self.store.path or ":memory:",
            scanning=self._scan_enabled,
            dead=self.detector.dead(),
            repairs_completed=self.scanner.repairs_completed,
        )
        return base

    # ------------------------------------------------------------- metadata
    def _helper_address(self, node: str) -> List[object]:
        try:
            return list(self._helper_addresses[node])
        except KeyError:
            raise KeyError(f"no helper registered for node {node!r}") from None

    def _placement_map(self) -> Dict[Tuple[int, int], str]:
        """``(stripe_id, block_index) -> node`` for every registered block."""
        placement: Dict[Tuple[int, int], str] = {}
        for stripe_id in self._stripe_meta:
            stripe = self.coordinator.stripe(stripe_id)
            for i in range(stripe.code.n):
                placement[(stripe_id, i)] = stripe.location(i)
        return placement

    async def _register_stripe(self, frame: Frame, channel: FrameChannel) -> None:
        header = frame.header
        stripe_id = int(header["stripe_id"])
        code = code_from_spec(header["code"])
        block_size = int(header["block_size"])
        object_size = int(header["object_size"])
        existing = self._stripe_meta.get(stripe_id)
        if existing is not None:
            # Idempotent re-registration: after a store recovery, clients
            # replaying their REGISTER_STRIPEs must get OK, not a duplicate
            # error.  Only the spec has to match; the placement the client
            # remembers may be stale (relocations it never saw), so the
            # store's placement is kept.
            if (
                existing["code"] == dict(header["code"])
                and existing["block_size"] == block_size
                and existing["object_size"] == object_size
            ):
                await write_frame(
                    channel,
                    Op.OK,
                    {"stripe_id": stripe_id, "n": code.n, "k": code.k, "known": True},
                )
                return
            raise ValueError(
                f"stripe {stripe_id} is already registered with a different spec"
            )
        locations = {int(i): str(node) for i, node in header["locations"].items()}
        for node in locations.values():
            if node not in self._helper_addresses:
                raise KeyError(f"stripe places a block on unknown node {node!r}")
        stripe = StripeInfo(code, locations, stripe_id=stripe_id)
        self.store.register_stripe(
            stripe_id, dict(header["code"]), block_size, object_size, locations
        )
        self.coordinator.register_stripe(stripe)
        self._stripe_meta[stripe_id] = {
            "stripe_id": stripe_id,
            "code": dict(header["code"]),
            "block_size": block_size,
            "object_size": object_size,
        }
        await write_frame(channel, Op.OK, {"stripe_id": stripe_id, "n": code.n, "k": code.k})

    def _stripe_info(self, stripe_id: int) -> Dict[str, object]:
        try:
            meta = dict(self._stripe_meta[stripe_id])
        except KeyError:
            raise KeyError(f"unknown stripe {stripe_id}") from None
        stripe = self.coordinator.stripe(stripe_id)
        meta["locations"] = {
            str(i): stripe.location(i) for i in range(stripe.code.n)
        }
        return meta

    # -------------------------------------------------------------- planning
    def _plan_repair(self, header: Dict[str, object]) -> Dict[str, object]:
        """Serve one ``PLAN_REPAIR``: the full control-plane decision."""
        stripe_id = int(header["stripe_id"])
        failed = [int(i) for i in header["failed"]]
        scheme = str(header.get("scheme", "rp"))
        if scheme not in SERVICE_SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected one of {SERVICE_SCHEMES}"
            )
        greedy = bool(header.get("greedy", True))
        requestors = [str(r) for r in header.get("requestors", ["requestor"])]
        exclude_nodes = [str(node) for node in header.get("exclude_nodes", [])]
        meta = self._stripe_meta.get(stripe_id)
        if meta is None:
            raise KeyError(f"unknown stripe {stripe_id}")
        block_size = int(meta["block_size"])
        stripe = self.coordinator.stripe(stripe_id)

        if scheme == "conventional":
            # Conventional repair ignores path order: the requestor fans the
            # plan's whole helper blocks into itself and decodes locally.
            # Excluded (dead/partitioned) nodes shrink the usable block set.
            usable = None
            if exclude_nodes:
                excluded = set(exclude_nodes)
                usable = [
                    i
                    for i in range(stripe.code.n)
                    if i not in failed and stripe.location(i) not in excluded
                ]
            plan = stripe.code.repair_plan(failed, usable)
            return self._conventional_decision(stripe_id, stripe, block_size, plan, scheme)

        # Pipelined schemes share the chain plan.  The path comes first:
        # the slice size depends on its length, never the other way round.
        _, path = self.coordinator.plan_repair(
            stripe_id,
            failed,
            requestors,
            block_size,
            block_size,
            greedy=greedy,
            exclude_nodes=exclude_nodes,
        )
        plan = stripe.code.repair_plan(failed, path)
        if len(path) < 2:
            # A one-hop "chain" is a plain block push with chain overhead;
            # override to conventional over the same helper set (the
            # coefficients are identical, so the repaired bytes are too).
            # The requested scheme is echoed so the gateway can account for
            # both what was asked and what actually ran.
            return self._conventional_decision(
                stripe_id, stripe, block_size, plan, scheme
            )
        # The one place a repair's slice size is decided: pipe_b is a single
        # block-sized slice (section 3.2's naive baseline), a caller's value
        # is taken as given (clamped to the block), and everyone else -- the
        # scanner, the GET fallback, a client that names none -- gets the
        # pipeline model's.
        if scheme == "pipe_b":
            slice_size = block_size
        elif "slice_size" in header:
            slice_size = max(1, min(int(header["slice_size"]), block_size))
        else:
            slice_size = model_slice_size(block_size, len(path))
        request = RepairRequest(stripe, failed, requestors, block_size, slice_size)
        chain = SliceChainPlan.build(request, path, plan)
        addresses = {
            hop.node: self._helper_address(hop.node) for hop in chain.hops
        }
        return {
            "scheme": scheme,
            "requested_scheme": scheme,
            "stripe_id": stripe_id,
            "block_size": block_size,
            "plan": chain.to_dict(),
            "addresses": addresses,
        }

    def _conventional_decision(
        self,
        stripe_id: int,
        stripe: StripeInfo,
        block_size: int,
        plan,
        requested_scheme: str,
    ) -> Dict[str, object]:
        """The conventional-repair decision for an already-computed plan."""
        return {
            "scheme": "conventional",
            "requested_scheme": requested_scheme,
            "stripe_id": stripe_id,
            "block_size": block_size,
            "failed": list(plan.failed),
            "helpers": [
                {
                    "block": i,
                    "node": stripe.location(i),
                    "key": block_key(stripe_id, i),
                    "address": self._helper_address(stripe.location(i)),
                }
                for i in plan.helpers
            ],
            "coefficients": [list(row) for row in plan.coefficients],
        }
