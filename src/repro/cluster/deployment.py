"""Mapping a cluster specification onto live localhost processes.

The simulator describes a cluster abstractly (:class:`ClusterSpec` plus a
topology); the live service plane (:mod:`repro.service`) needs the same
cluster as *addressable processes*: one coordinator, one gateway and one
helper agent per storage node, each listening on a TCP port.
:class:`DeploymentSpec` is the bridge -- it names the processes and ports of
a deployment, keeps the :class:`ClusterSpec` the simulator would use for the
same hardware, and can build the matching simulated
:class:`~repro.cluster.cluster.Cluster` twin so measured wall-clock numbers
can be compared against the simulator's prediction for an identically shaped
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.spec import ClusterSpec

#: Port value meaning "let the OS pick an ephemeral port at bind time".
EPHEMERAL = 0


@dataclass(frozen=True)
class TwinDegradation:
    """Simulator-side counterpart of one live fault configuration.

    The chaos harness (:mod:`repro.chaos`) injects faults into a live
    deployment through TCP proxies and process signals; this object is the
    same degradation expressed in the simulator's vocabulary, so
    :meth:`DeploymentSpec.degraded_cluster` can build the twin the live run
    is compared against.

    Attributes
    ----------
    node_bandwidth:
        Per-node network-port throttles, bytes/second (a rate-limited
        ingress proxy maps here).
    link_bandwidth:
        Dedicated directed-link caps, ``(src, dst) -> bytes/second``.
    extra_transfer_overhead:
        Seconds added to every transfer's fixed cost (an injected per-chunk
        latency maps here).
    exclude:
        Helper nodes unusable for the whole window (killed or partitioned);
        plans over the twin must exclude them, exactly as the live planner
        is told to via ``exclude_nodes``.
    """

    node_bandwidth: Mapping[str, float] = field(default_factory=dict)
    link_bandwidth: Mapping[Tuple[str, str], float] = field(default_factory=dict)
    extra_transfer_overhead: float = 0.0
    exclude: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for node, bandwidth in self.node_bandwidth.items():
            if bandwidth <= 0:
                raise ValueError(f"throttle for {node!r} must be positive")
        for (src, dst), bandwidth in self.link_bandwidth.items():
            if bandwidth <= 0:
                raise ValueError(f"link cap for {src}->{dst} must be positive")
        if self.extra_transfer_overhead < 0:
            raise ValueError("extra_transfer_overhead must be non-negative")


@dataclass(frozen=True)
class DeploymentSpec:
    """Shape of one live ECPipe deployment.

    Attributes
    ----------
    helpers:
        Names of the storage nodes, each served by one helper agent.  Names
        double as the simulated node names of :meth:`degraded_cluster`.
    host:
        Interface every server binds (localhost deployments by default).
    base_port:
        First port of the deployment's contiguous port plan, or
        :data:`EPHEMERAL` to let the OS pick every port (the default --
        collision-free for tests and CI).  With a concrete base port, the
        coordinator takes ``base_port``, gateway ``g`` takes
        ``base_port + 1 + g`` and helper ``i`` takes
        ``base_port + 1 + gateways + i``.
    cluster_spec:
        Hardware parameters of the machine(s) the deployment runs on; used
        by :meth:`degraded_cluster` to build the simulator's twin of this
        deployment.
    gateways:
        Number of gateway front ends (>= 1).  Clients load balance over all
        of them; one is the default and matches the historic single-gateway
        port plan exactly.
    """

    helpers: Tuple[str, ...]
    host: str = "127.0.0.1"
    base_port: int = EPHEMERAL
    cluster_spec: ClusterSpec = field(default_factory=ClusterSpec)
    gateways: int = 1

    def __init__(
        self,
        helpers,
        host: str = "127.0.0.1",
        base_port: int = EPHEMERAL,
        cluster_spec: Optional[ClusterSpec] = None,
        gateways: int = 1,
    ) -> None:
        object.__setattr__(self, "helpers", tuple(helpers))
        object.__setattr__(self, "host", str(host))
        object.__setattr__(self, "base_port", int(base_port))
        object.__setattr__(
            self,
            "cluster_spec",
            cluster_spec if cluster_spec is not None else ClusterSpec(),
        )
        object.__setattr__(self, "gateways", int(gateways))
        self._validate()

    def _validate(self) -> None:
        if not self.helpers:
            raise ValueError("at least one helper node is required")
        if len(set(self.helpers)) != len(self.helpers):
            duplicates = sorted(
                {name for name in self.helpers if self.helpers.count(name) > 1}
            )
            raise ValueError(f"duplicate helper names: {duplicates}")
        if not self.host:
            raise ValueError("host must be non-empty")
        if self.base_port != EPHEMERAL and not 1 <= self.base_port <= 65535:
            raise ValueError(
                f"base_port must be 0 (ephemeral) or in [1, 65535], "
                f"got {self.base_port}"
            )
        if self.gateways < 1:
            raise ValueError(f"gateways must be >= 1, got {self.gateways}")
        last_port = self.base_port + self.gateways + len(self.helpers)
        if self.base_port != EPHEMERAL and last_port > 65535:
            raise ValueError(
                f"port plan {self.base_port}..{last_port} "
                f"exceeds the valid port range"
            )

    # ------------------------------------------------------------- factories
    @classmethod
    def local(
        cls,
        num_helpers: int,
        base_port: int = EPHEMERAL,
        cluster_spec: Optional[ClusterSpec] = None,
        name_prefix: str = "node",
        gateways: int = 1,
    ) -> "DeploymentSpec":
        """A localhost deployment of ``num_helpers`` helper agents."""
        if num_helpers <= 0:
            raise ValueError("num_helpers must be positive")
        return cls(
            helpers=[f"{name_prefix}{i}" for i in range(num_helpers)],
            base_port=base_port,
            cluster_spec=cluster_spec,
            gateways=gateways,
        )

    # ------------------------------------------------------------ port plan
    @property
    def num_helpers(self) -> int:
        """Number of helper agents (storage nodes)."""
        return len(self.helpers)

    def coordinator_port(self) -> int:
        """Planned coordinator port (0 when ephemeral)."""
        return self.base_port

    def gateway_port(self, index: int = 0) -> int:
        """Planned port of gateway ``index`` (0 when ephemeral)."""
        if not 0 <= index < self.gateways:
            raise ValueError(f"gateway index {index} outside [0, {self.gateways})")
        return EPHEMERAL if self.base_port == EPHEMERAL else self.base_port + 1 + index

    def helper_port(self, index: int) -> int:
        """Planned port of helper ``index`` (0 when ephemeral)."""
        if not 0 <= index < len(self.helpers):
            raise ValueError(f"helper index {index} outside [0, {len(self.helpers)})")
        if self.base_port == EPHEMERAL:
            return EPHEMERAL
        return self.base_port + 1 + self.gateways + index

    # ------------------------------------------------------- simulator twin
    def degraded_cluster(
        self,
        degradation: Optional[TwinDegradation] = None,
        network_bandwidth: Optional[float] = None,
    ) -> Cluster:
        """The simulator's model of this deployment, optionally degraded.

        A flat cluster with one node per helper, using this deployment's
        :class:`ClusterSpec`; node names match :attr:`helpers`, so the same
        :class:`~repro.core.request.RepairRequest` can be simulated and
        served live, and the predicted/measured repair times compared.

        Parameters
        ----------
        degradation:
            The fault window, in simulator vocabulary (``None`` for a
            healthy twin).  ``exclude`` nodes stay *in* the cluster -- the
            planner is expected to avoid them via ``exclude_nodes``, the
            same contract the live coordinator honours.
        network_bandwidth:
            Optional override of every node's healthy bandwidth -- the
            calibration hook: the chaos runner measures a healthy baseline
            repair on loopback and solves for the bandwidth that makes the
            twin reproduce it, so faulted predictions are in live units.
        """
        spec = self.cluster_spec
        if network_bandwidth is not None:
            spec = replace(spec, network_bandwidth=float(network_bandwidth))
        if degradation is not None and degradation.extra_transfer_overhead > 0:
            spec = replace(
                spec,
                transfer_overhead=spec.transfer_overhead
                + degradation.extra_transfer_overhead,
            )
        cluster = Cluster(spec)
        for name in self.helpers:
            cluster.add_node(name)
        if degradation is not None:
            if degradation.node_bandwidth:
                for node, bandwidth in degradation.node_bandwidth.items():
                    cluster.throttle_nodes([node], bandwidth)
            for (src, dst), bandwidth in degradation.link_bandwidth.items():
                cluster.set_link_bandwidth(src, dst, bandwidth)
        return cluster

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (cluster spec flattened to its field values)."""
        spec = self.cluster_spec
        return {
            "helpers": list(self.helpers),
            "host": self.host,
            "base_port": self.base_port,
            "gateways": self.gateways,
            "cluster_spec": {
                "network_bandwidth": spec.network_bandwidth,
                "disk_bandwidth": spec.disk_bandwidth,
                "cpu_bandwidth": spec.cpu_bandwidth,
                "transfer_overhead": spec.transfer_overhead,
                "disk_overhead": spec.disk_overhead,
                "compute_overhead": spec.compute_overhead,
                "cross_rack_bandwidth": spec.cross_rack_bandwidth,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DeploymentSpec":
        return cls(
            helpers=[str(name) for name in data["helpers"]],
            host=str(data["host"]),
            base_port=int(data["base_port"]),
            cluster_spec=ClusterSpec(**data["cluster_spec"]),
            # Older state files predate multi-gateway deployments.
            gateways=int(data.get("gateways", 1)),
        )


__all__ = ["DeploymentSpec", "TwinDegradation", "EPHEMERAL"]
