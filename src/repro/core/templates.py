"""Compiled task-graph templates.

Building a repair (or read) task graph runs the planner, the scheme compiler
and per-slice task-chain construction -- hundreds of Python object
allocations per operation.  Over a month-long trace the same *structural*
graphs recur constantly: the same scheme over the same node-coincidence
pattern differs only in which nodes it touches and in its task names.  A
:class:`RebindableGraphTemplate` captures the compiled structure of one such
graph over *role indices* (task sizes, overheads, kinds, abstract port slots
and dependency wiring) and re-instantiates it by cloning tasks and resolving
the slots against the nodes at hand through a :class:`PortResolver` -- no
planner, no scheme compile, no per-slice loop.  It is the only template
class: repairs, degraded reads and normal foreground reads all go through
it.

Two properties make this exact rather than approximate:

* the engine's schedule depends only on task sizes/overheads, port identity
  and dependency shape -- sizes and wiring are captured verbatim, and every
  port slot is verified at capture to resolve back to the built graph's own
  ports (task *names* are reused from the template's first build and are
  debug-only);
* instantiation preserves task order, so engine tie-breaking (submission
  order) is identical to a freshly built graph.

Normal reads rebind rather than replaying one concrete graph per
``(source, client)`` pair because a read graph has only two shapes --
``source != client`` (disk read, then one transfer) and ``source == client``
(disk read only) -- so two templates, each with one graph pool, serve every
node pair of a run where a concrete template per pair needs hundreds.

Clones are marked ``prebound``/``validated``, letting
:meth:`DynamicSimulator.submit <repro.sim.engine.DynamicSimulator.submit>`
skip cycle validation and per-task re-initialisation, and share the
resolver's memoized port tuples.  Completed graphs can be returned to the
template's pool (via the engine's ``recycle`` hook) and are reused wholesale
-- the steady-state cost of one more operation is then a port swap and a
handful of attribute resets instead of a graph build.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sim.tasks import Task, TaskGraph


def role_pattern(names: Sequence[str]) -> Tuple[int, ...]:
    """Canonical node-coincidence pattern of an ordered node sequence.

    ``("b", "c", "a", "b")`` and ``("x", "y", "z", "x")`` both map to
    ``(0, 1, 2, 0)``: the same graph *structure* results whenever the same
    positions name the same nodes, because the scheme compilers depend on
    node identity only through coincidence (a transfer between co-located
    endpoints is elided).  This is the key of the rebindable template cache.
    """
    first: dict = {}
    out = []
    for name in names:
        index = first.setdefault(name, len(first))
        out.append(index)
    return tuple(out)


class PortResolver:
    """Resolves abstract port slots (disk/cpu/hop) against a cluster.

    The resolver memoizes every resolved slot -- per-node disk/CPU tuples
    and per-``(src, dst, throttled)`` transfer-port tuples -- so rebinding a
    template is a handful of dictionary hits.  It also owns the reverse maps
    (port identity -> owning node) that template capture uses to classify a
    built graph's ports.

    Parameters
    ----------
    cluster:
        The cluster whose ports are resolved.
    throttle:
        Optional :class:`repro.runtime.throttle.RepairThrottle`; required to
        resolve hops of throttled repair transfers.
    """

    def __init__(self, cluster, throttle=None) -> None:
        self._cluster = cluster
        self._throttle = throttle
        self._disk: dict = {}
        self._cpu: dict = {}
        self._hops: dict = {}
        self._uplink_owner: dict = {}
        self._downlink_owner: dict = {}
        self._single_owner: dict = {}
        for node in cluster.nodes():
            name = node.name
            self._disk[name] = (node.disk,)
            self._cpu[name] = (node.cpu,)
            self._uplink_owner[id(node.uplink)] = name
            self._downlink_owner[id(node.downlink)] = name
            self._single_owner[id(node.disk)] = ("d", name)
            self._single_owner[id(node.cpu)] = ("c", name)

    def disk(self, name: str) -> Tuple:
        """The 1-tuple holding a node's disk port."""
        return self._disk[name]

    def cpu(self, name: str) -> Tuple:
        """The 1-tuple holding a node's CPU port."""
        return self._cpu[name]

    def hop(self, src: str, dst: str, throttled: bool) -> Tuple:
        """Ports of one ``src -> dst`` transfer (plus throttle when asked)."""
        key = (src, dst, throttled)
        ports = self._hops.get(key)
        if ports is None:
            plist = self._cluster.transfer_ports(src, dst)
            if throttled:
                plist.append(self._throttle.port_for(src))
            ports = self._hops[key] = tuple(plist)
        return ports

    # ------------------------------------------------------- capture support
    def classify(self, task: Task, role_index: dict) -> Optional[Tuple]:
        """Port-slot spec of a built task, or ``None`` if not rebindable.

        Classification is *verified*: the spec, resolved against the task's
        own nodes, must reproduce the task's port list exactly.
        """
        ports = task.ports
        if not ports:
            return ("n",)
        if task.kind == "transfer":
            src = self._uplink_owner.get(id(ports[0]))
            dst = self._downlink_owner.get(id(ports[1])) if len(ports) > 1 else None
            if src is None or dst is None:
                return None
            src_role = role_index.get(src)
            dst_role = role_index.get(dst)
            if src_role is None or dst_role is None:
                return None
            for throttled in (False, True):
                if throttled and (
                    self._throttle is None or not self._throttle.enabled
                ):
                    break
                if self.hop(src, dst, throttled) == tuple(ports):
                    return ("x", src_role, dst_role, throttled)
            return None
        if len(ports) != 1:
            return None
        owner = self._single_owner.get(id(ports[0]))
        if owner is None:
            return None
        kind, name = owner
        role = role_index.get(name)
        if role is None:
            return None
        return (kind, role)


class RebindableGraphTemplate:
    """A compiled graph abstracted over the nodes it runs on.

    The template records the graph's structure over *role indices* (path
    positions plus requestor; source plus client for a read) and rebinds
    ports per instantiation via a :class:`PortResolver` -- so one template
    serves every operation with the same scheme and node-coincidence
    pattern, regardless of which nodes the greedy scheduler rotated in or
    the workload drew.  Capture verifies port classification
    against the built graph and returns ``None`` for graphs it cannot
    faithfully rebind (callers then simply keep building those directly).
    """

    __slots__ = (
        "_resolver",
        "_specs",
        "_port_specs",
        "_task_slots",
        "_pool",
        "transfer_bytes",
    )

    def __init__(self, resolver, specs, port_specs, task_slots, transfer_bytes) -> None:
        self._resolver = resolver
        self._specs = specs
        #: Deduplicated port-slot specs; many tasks (all slices of one hop)
        #: share a slot, so rebinding resolves each distinct slot once.
        self._port_specs = port_specs
        #: Per-task index into the resolved slot list.
        self._task_slots = task_slots
        self._pool: List[TaskGraph] = []
        self.transfer_bytes = transfer_bytes

    @classmethod
    def capture(
        cls,
        graph: TaskGraph,
        roles: Sequence[str],
        resolver: PortResolver,
    ) -> Optional["RebindableGraphTemplate"]:
        """Capture a built graph over its role nodes; ``None`` if unfit.

        ``roles`` is the ordered node vector the graph was built for
        (helper path order, then requestor).  Duplicate names are allowed --
        co-location is part of the structure -- and every node the graph
        touches must appear in it.
        """
        graph.validate_acyclic()
        role_index: dict = {}
        for i, name in enumerate(roles):
            role_index.setdefault(name, i)
        tasks = graph.tasks
        index = {id(task): i for i, task in enumerate(tasks)}
        specs = []
        port_specs: List[Tuple] = []
        slot_of: dict = {}
        task_slots = []
        for task in tasks:
            port_spec = resolver.classify(task, role_index)
            if port_spec is None:
                return None
            specs.append(
                (
                    task.name,
                    task.size_bytes,
                    task.overhead,
                    task.kind,
                    tuple(index[id(dep)] for dep in task.deps),
                )
            )
            slot = slot_of.get(port_spec)
            if slot is None:
                slot = slot_of[port_spec] = len(port_specs)
                port_specs.append(port_spec)
            task_slots.append(slot)
        return cls(
            resolver, specs, port_specs, task_slots, graph.total_bytes("transfer")
        )

    def _portsets(self, roles: Sequence[str]) -> List[Tuple]:
        resolver = self._resolver
        out = []
        for spec in self._port_specs:
            tag = spec[0]
            if tag == "x":
                out.append(resolver.hop(roles[spec[1]], roles[spec[2]], spec[3]))
            elif tag == "d":
                out.append(resolver.disk(roles[spec[1]]))
            elif tag == "c":
                out.append(resolver.cpu(roles[spec[1]]))
            else:
                out.append(())
        return out

    def instantiate(self, roles: Sequence[str]) -> TaskGraph:
        """Return a ready-to-submit graph bound to the given role nodes.

        Pooled graphs are rebound in place (ports swapped, scheduling state
        reset); otherwise a fresh clone is built.  Either way the result is
        ``prebound`` for the engine's fast submit path; pass
        :meth:`release` as the engine's ``recycle`` hook.
        """
        slots = self._portsets(roles)
        task_slots = self._task_slots
        pool = self._pool
        if pool:
            graph = pool.pop()
            for task, slot in zip(graph._tasks, task_slots):
                task.ports = slots[slot]
                task.unresolved_deps = len(task.deps)
                task.start_time = None
            graph.prebound = True
            return graph
        graph = TaskGraph.__new__(TaskGraph)
        tasks: List[Task] = []
        graph._tasks = tasks
        graph.validated = True
        graph.prebound = True
        for (name, size_bytes, overhead, kind, dep_indices), slot in zip(
            self._specs, task_slots
        ):
            ports = slots[slot]
            task = Task.__new__(Task)
            task.task_id = len(tasks)
            task.name = name
            task.ports = ports
            task.size_bytes = size_bytes
            task.overhead = overhead
            task.kind = kind
            deps = [tasks[i] for i in dep_indices]
            task.deps = deps
            task.dependents = []
            task.unresolved_deps = len(deps)
            task.ready_time = None
            task.start_time = None
            task.finish_time = None
            task.batch = None
            task.wait_ports = []
            for dep in deps:
                dep.dependents.append(task)
            tasks.append(task)
        return graph

    def release(self, graph: TaskGraph) -> None:
        """Return a completed instance to the pool for rebinding."""
        self._pool.append(graph)
