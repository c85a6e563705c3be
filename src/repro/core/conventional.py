"""Conventional repair and the normal-read baseline.

Conventional repair (section 2.2) is what stock Reed-Solomon deployments do:
the requestor fetches ``k`` available blocks from ``k`` helpers and decodes
the failed block locally.  All ``k`` block transfers traverse the requestor's
downlink, so a single-block repair takes ``k`` timeslots; a multi-block repair
of ``f`` blocks uses a dedicated requestor and takes ``k + f - 1`` timeslots.

:class:`DirectRead` is the "direct send" baseline of Figure 8(a): the normal
read time of a single available block, which repair pipelining approaches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.core.planner import RepairScheme, TaskEmitter
from repro.core.request import RepairRequest
from repro.sim.tasks import Task, TaskGraph


class ConventionalRepair(RepairScheme):
    """Classical repair: the requestor reads ``k`` whole blocks and decodes.

    Parameters
    ----------
    helper_selector:
        Optional selector restricting *which* helpers are read (the order is
        irrelevant for conventional repair).  Defaults to the code's own
        choice (the lowest-indexed available blocks).
    dss_read_overhead:
        Seconds added to every helper read; models reading a block through a
        storage system's own read routine instead of the native file system.
    connection_overhead:
        Seconds the requestor spends opening the stream to each helper, one
        helper after the other, before that helper's read starts.  At 0.0
        (ECPipe's own conventional repair) no connection task is emitted.
    """

    name = "conventional"

    def __init__(
        self,
        helper_selector=None,
        dss_read_overhead: float = 0.0,
        connection_overhead: float = 0.0,
    ) -> None:
        if dss_read_overhead < 0 or connection_overhead < 0:
            raise ValueError("overheads must be non-negative")
        self._helper_selector = helper_selector
        self.dss_read_overhead = dss_read_overhead
        self.connection_overhead = connection_overhead

    def build_graph(
        self,
        request: RepairRequest,
        cluster: Cluster,
        graph: Optional[TaskGraph] = None,
        candidates: Optional[Sequence[int]] = None,
    ) -> TaskGraph:
        graph = graph if graph is not None else TaskGraph()
        emit = TaskEmitter(cluster, graph)
        code = request.stripe.code

        available = list(candidates) if candidates is not None else request.available_blocks()
        plan = code.repair_plan(request.failed, available)
        helpers: List[int] = list(plan.helpers)
        if self._helper_selector is not None:
            helpers = list(
                self._helper_selector(request, cluster, available, len(plan.helpers))
            )
            plan = code.repair_plan(request.failed, helpers)
            helpers = list(plan.helpers)

        # The dedicated requestor reconstructs every failed block, then ships
        # the other reconstructed blocks to their requestors (section 2.2).
        dedicated = request.requestor_for(request.failed[0])
        sid = request.stripe.stripe_id
        slice_sizes = request.slice_sizes()

        fetch_tasks = []
        connected: List[Task] = []  # the latest connection task, if any
        for block_index in helpers:
            helper_node = request.stripe.location(block_index)
            if self.connection_overhead:
                connection = emit.compute(
                    dedicated,
                    0.0,
                    name=f"s{sid}.connect.b{block_index}",
                    deps=connected,
                )
                connection.overhead += self.connection_overhead
                connected = [connection]
            read = emit.disk_read(
                helper_node,
                request.block_size,
                name=f"s{sid}.read.b{block_index}",
                deps=connected,
            )
            read.overhead += self.dss_read_overhead
            for slice_index, slice_bytes in enumerate(slice_sizes):
                transfer = emit.transfer(
                    helper_node,
                    dedicated,
                    slice_bytes,
                    name=f"s{sid}.fetch.b{block_index}.{slice_index}",
                    deps=[read],
                )
                if transfer is not None:
                    fetch_tasks.append(transfer)

        decode = emit.compute(
            dedicated,
            request.block_size * len(helpers) * request.num_failed,
            name=f"s{sid}.decode",
            deps=fetch_tasks,
        )

        for failed_index in request.failed[0:]:
            target = request.requestor_for(failed_index)
            if target == dedicated:
                continue
            for slice_index, slice_bytes in enumerate(slice_sizes):
                emit.transfer(
                    dedicated,
                    target,
                    slice_bytes,
                    name=f"s{sid}.forward.b{failed_index}.{slice_index}",
                    deps=[decode],
                )
        return graph


class DirectRead(RepairScheme):
    """Normal read of a single available block (the "direct send" baseline).

    The block is read from its node's disk and streamed to the requestor in
    slice-sized transfers.  Repair pipelining's goal is to bring the degraded
    read time down to this normal read time.
    """

    name = "direct-read"

    def __init__(self, block_index: int = 0) -> None:
        #: Which available block to read; defaults to the first one.
        self._block_index = block_index

    def build_graph(
        self,
        request: RepairRequest,
        cluster: Cluster,
        graph: Optional[TaskGraph] = None,
        candidates: Optional[Sequence[int]] = None,
    ) -> TaskGraph:
        graph = graph if graph is not None else TaskGraph()
        emit = TaskEmitter(cluster, graph)
        available = list(candidates) if candidates is not None else request.available_blocks()
        if self._block_index in available:
            block_index = self._block_index
        else:
            block_index = available[0]
        node = request.stripe.location(block_index)
        requestor = request.requestors[0]
        sid = request.stripe.stripe_id
        read = emit.disk_read(node, request.block_size, name=f"s{sid}.read.b{block_index}")
        for slice_index, slice_bytes in enumerate(request.slice_sizes()):
            emit.transfer(
                node,
                requestor,
                slice_bytes,
                name=f"s{sid}.send.b{block_index}.{slice_index}",
                deps=[read],
            )
        return graph
