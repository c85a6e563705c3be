"""The live ECPipe service plane.

Everything below :mod:`repro.service` in the stack *models* the paper's
middleware; this package *runs* it.  An asyncio deployment has three roles,
mirroring the architecture of section 5.2:

* :class:`~repro.service.coordinator.CoordinatorServer` -- owns stripe
  metadata and helper selection.  It wraps the in-process
  :class:`repro.ecpipe.Coordinator` verbatim (same greedy
  least-recently-selected scheduling, same path ordering), serialising its
  decisions into :class:`repro.ecpipe.SliceChainPlan` wire plans.
* :class:`~repro.service.helper.HelperAgent` -- one per storage node.
  Stores that node's block replicas (backed by
  :class:`repro.ecpipe.Helper` + its slice store) and executes the
  pipelined partial-slice chain ``N1 -> N2 -> ... -> Nk -> R``: each hop
  streams packed partial slices to the next over a length-prefixed binary
  protocol, accumulating its scaled local slice zero-copy.
* :class:`~repro.service.gateway.Gateway` -- the client-facing front end:
  put / get / degraded read / repair.  Its
  :class:`~repro.service.requestor.ChainRequestor` plays the requestor ``R``
  of the chain; :class:`~repro.service.client.ServiceClient` is the client
  side of its API, and a seeded closed-loop
  :class:`~repro.service.loadgen.LoadGenerator` drives foreground traffic
  through it while repairs run.

:class:`~repro.service.deployment.LocalDeployment` boots a whole cluster --
in-process (one event loop, real TCP sockets) for tests, or as supervised
OS processes for benchmarks and the CLI.  Both modes read one role table;
:func:`~repro.service.deployment.build_server` is the only place a role's
server is constructed, in either mode and inside a role process.  ``python -m repro.service`` offers
``up`` / ``repair`` / ``bench`` / ``down`` (and more); see the README
quickstart.

Because every byte moved by this plane is produced by the same
transport-agnostic state machines the in-process data plane uses
(:mod:`repro.ecpipe.pipeline`), a block repaired through the live service is
bit-identical to the in-process repair of the same stripe -- the parity the
service test suite pins for every scheme and code shape.  The simulator, in
turn, becomes a *predictor*: :mod:`repro.service.compare` measures live
repair wall-clock against the simulated makespan of the deployment's twin
(:func:`~repro.service.compare.twin_repair_seconds`, the builder the chaos
harness uses too).
"""

from repro.service.client import ServiceClient
from repro.service.coordinator import CoordinatorServer
from repro.service.deployment import LocalDeployment, ServiceError
from repro.service.detector import PhiFailureDetector
from repro.service.gateway import Gateway
from repro.service.helper import HelperAgent
from repro.service.loadgen import LoadGenerator, LoadReport
from repro.service.scanner import RepairScanner
from repro.service.store import MetadataStore, StoreError

__all__ = [
    "CoordinatorServer",
    "HelperAgent",
    "Gateway",
    "MetadataStore",
    "PhiFailureDetector",
    "RepairScanner",
    "ServiceClient",
    "LocalDeployment",
    "LoadGenerator",
    "LoadReport",
    "ServiceError",
    "StoreError",
]
