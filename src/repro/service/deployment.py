"""Booting and supervising a live deployment.

Two execution modes cover the two consumers:

* **In-process** (:meth:`LocalDeployment.start` / :meth:`LocalDeployment.stop`):
  every role runs in the caller's event loop, on real localhost TCP sockets.
  Fast and leak-proof -- the mode the test suite uses.
* **Processes** (:meth:`LocalDeployment.up` / :meth:`LocalDeployment.down`):
  every role is an OS process started with ``python -m repro.service
  run-role ...`` via :mod:`subprocess`, so the GF kernels of different
  helpers genuinely run in parallel -- the mode the CLI and the
  measured-vs-simulated benchmark use.  Children outlive the parent (an
  ``up`` CLI invocation exits immediately); a JSON state file records pids
  and ports so a later ``down`` can find them.

Every boot path reads one **role table**: :meth:`LocalDeployment._plan`
yields the deployment's roles as unbooted :class:`RoleHandle` rows (role,
node, host, planned port, metrics port) in boot order, and two module-level
functions are the only code that knows what a row means --
:func:`build_server` turns a row into a server object (in-process boot and
restart, and the ``run-role`` entry point of a role process) and
:func:`role_argv` renders the same row as ``run-role`` arguments (process
boot and restart).  A new fact about a role is one field on the row and
one line in each of the two.

Shutdown is graceful-first: every server gets a ``SHUTDOWN`` frame and a
grace period to exit on its own; stragglers are SIGTERMed, then SIGKILLed.
:meth:`LocalDeployment.down` reports what it had to do -- the service smoke
test fails if anything needed more than the frame.

Both modes expose *supervisor-level fault hooks* for the chaos harness
(:mod:`repro.chaos`): :meth:`~LocalDeployment.crash_role` (``kill -9`` /
abrupt in-process stop), :meth:`~LocalDeployment.pause_role` /
:meth:`~LocalDeployment.resume_role` (``SIGSTOP`` / ``SIGCONT``, process
mode only) and :meth:`~LocalDeployment.restart_role`, which boots a fresh
process (or in-process server) for a dead role on its *old* port, so peers
holding the address reconnect without relearning it.  A crashed role loses
its in-memory state -- blocks for helpers, metadata for the coordinator --
exactly like a real machine failure; recovery is the caller's job.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster.deployment import DeploymentSpec
from repro.service.coordinator import CoordinatorServer
from repro.service.gateway import Gateway
from repro.service.helper import HelperAgent
from repro.service.protocol import Op, request

#: Default deployment state file of the CLI.
DEFAULT_STATE_PATH = ".ecpipe-service.json"

#: Seconds a process gets to exit after a SHUTDOWN frame before escalation.
SHUTDOWN_GRACE = 10.0


class ServiceError(RuntimeError):
    """A deployment-level failure (boot, supervision, or shutdown)."""


@dataclass
class RoleHandle:
    """One supervised role: its address and (in process mode) its pid."""

    role: str
    node: str
    host: str
    port: int
    pid: Optional[int] = None
    #: Port of the role's plain-HTTP ``/metrics`` listener (``None`` = off).
    metrics_port: Optional[int] = None
    #: The Popen object when *this* process spawned the role (needed to reap
    #: the child -- a pid probe alone sees exited-but-unreaped zombies as
    #: alive).  Absent when rehydrated from a state file.
    process: Optional[subprocess.Popen] = field(default=None, compare=False, repr=False)

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def label(self) -> str:
        """``role`` or ``role:node`` -- how reports and the CLI name a role."""
        return self.role if not self.node else f"{self.role}:{self.node}"

    def alive(self) -> bool:
        """Is the role's process running (reaping our own children)?"""
        if self.pid is None:
            return False
        if self.process is not None:
            return self.process.poll() is None
        return pid_alive(self.pid)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "role": self.role,
            "node": self.node,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
        }
        if self.metrics_port is not None:
            data["metrics_port"] = self.metrics_port
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RoleHandle":
        metrics_port = data.get("metrics_port")
        return cls(
            role=str(data["role"]),
            node=str(data["node"]),
            host=str(data["host"]),
            port=int(data["port"]),
            pid=None if data.get("pid") is None else int(data["pid"]),
            metrics_port=None if metrics_port is None else int(metrics_port),
        )


def pid_alive(pid: int) -> bool:
    """True if a process with this pid exists and is not a zombie.

    The signal-0 probe alone counts exited-but-unreaped children as alive,
    which wedges a state-file ``down`` run in the same process that booted
    the roles (their Popen objects are gone, so nothing reaps them); where
    /proc exists, the state letter settles it.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but not ours
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
        # The state letter follows the parenthesised command name.
        return stat[stat.rindex(b")") + 2 : stat.rindex(b")") + 3] != b"Z"
    except (OSError, ValueError):  # pragma: no cover - no procfs
        return True


def build_server(
    handle: RoleHandle,
    coordinator_address: Optional[Tuple[str, int]] = None,
    store_path: Optional[str] = None,
    scan: bool = False,
    trace_dir: Optional[str] = None,
):
    """The server object of one role-table row -- the only constructor site.

    ``handle.port`` is the port to bind (0 = ephemeral).  ``store_path`` and
    ``scan`` configure the coordinator; the other roles are told where the
    coordinator listens.
    """
    common = {"metrics_port": handle.metrics_port, "trace_dir": trace_dir}
    if handle.role == "coordinator":
        return CoordinatorServer(
            handle.host, handle.port, store_path=store_path, scan=scan, **common
        )
    if handle.role == "helper":
        return HelperAgent(
            handle.node, handle.host, handle.port, coordinator=coordinator_address, **common
        )
    if handle.role == "gateway":
        return Gateway(
            coordinator_address, handle.host, handle.port, node=handle.node, **common
        )
    raise ServiceError(f"unknown role {handle.role!r}")


def role_argv(
    handle: RoleHandle,
    coordinator_address: Optional[Tuple[str, int]] = None,
    store_path: Optional[str] = None,
    scan: bool = False,
    trace_dir: Optional[str] = None,
) -> List[str]:
    """``run-role`` arguments that make a process call :func:`build_server`
    with this row and these values -- the only argv site.

    Every value rides every role's argv, also the ones that role ignores
    (``--store`` on a helper): a role process then builds its server from
    exactly what the in-process path passes.
    """
    argv = ["--role", handle.role, "--host", handle.host, "--port", str(handle.port)]
    if handle.node:
        argv += ["--node", handle.node]
    if coordinator_address is not None:
        argv += ["--coordinator", "{}:{}".format(*coordinator_address)]
    # --store rides every (re)boot, so a restarted coordinator recovers its
    # metadata instead of coming back empty.
    if store_path:
        argv += ["--store", store_path]
    if not scan:
        argv += ["--no-scan"]
    if handle.metrics_port is not None:
        argv += ["--metrics-port", str(handle.metrics_port)]
    if trace_dir:
        argv += ["--trace-dir", str(trace_dir)]
    return argv


def _await_exit(pending: List[RoleHandle]) -> List[RoleHandle]:
    """Poll until the processes exit or ``SHUTDOWN_GRACE`` runs out;
    returns the handles still alive."""
    deadline = time.monotonic() + SHUTDOWN_GRACE
    while pending and time.monotonic() < deadline:
        pending = [entry for entry in pending if entry.alive()]
        if pending:
            time.sleep(0.05)
    return pending


@dataclass
class LocalDeployment:
    """A booted deployment: one coordinator, N helpers, one or more gateways.

    Gateway handles are labelled ``node=""`` in a single-gateway deployment
    (the historic shape every state file and chaos scenario knows) and
    ``g0..gN-1`` when the spec asks for several.
    """

    spec: DeploymentSpec
    #: Role handles, in boot order (coordinator, helpers..., gateway).
    handles: List[RoleHandle] = field(default_factory=list)
    #: sqlite path of the coordinator's metadata store.  ``None`` keeps the
    #: control plane in memory -- a restarted coordinator then comes back
    #: empty, exactly like the pre-durability service plane.
    store_path: Optional[str] = None
    #: Run the coordinator's self-healing repair scanner.  ``None`` picks
    #: the mode default: off in-process (deterministic tests), on for
    #: process deployments (a real DFS heals itself).
    scan: Optional[bool] = None
    #: Extra environment for spawned role processes (chaos deployments use
    #: this to shrink heartbeat/detector timeouts).
    role_env: Dict[str, str] = field(default_factory=dict)
    #: Base port of the per-role ``/metrics`` HTTP listeners.  ``None``
    #: disables them; otherwise the coordinator scrapes at the base, helpers
    #: at base+1.., gateways after the helpers -- boot order, stable.
    metrics_base_port: Optional[int] = None
    #: Directory for per-role span logs (``None`` = tracing without files).
    trace_dir: Optional[str] = None
    # In-process servers, index-aligned with ``handles`` (empty in process
    # mode).
    _servers: List[object] = field(default_factory=list)
    # Interpreter used by up(); restart_role respawns with it.
    _interpreter: Optional[str] = field(default=None, repr=False)
    # Pids the last down() could not kill.
    _orphans: List[int] = field(default_factory=list, repr=False)

    # ---------------------------------------------------------- introspection
    def handle(self, role: str, node: str = "") -> RoleHandle:
        for entry in self.handles:
            if entry.role == role and (not node or entry.node == node):
                return entry
        raise KeyError(f"no handle for role {role!r} node {node!r}")

    @property
    def coordinator_address(self) -> Tuple[str, int]:
        return self.handle("coordinator").address

    @property
    def gateway_address(self) -> Tuple[str, int]:
        """First gateway's address (single-gateway compatibility)."""
        return self.handle("gateway").address

    def gateway_addresses(self) -> List[Tuple[str, int]]:
        """Every gateway's address, in boot order (client load balancing)."""
        return [
            entry.address for entry in self.handles if entry.role == "gateway"
        ]

    def helper_addresses(self) -> Dict[str, Tuple[str, int]]:
        return {
            entry.node: entry.address
            for entry in self.handles
            if entry.role == "helper"
        }

    # -------------------------------------------------------------- role table
    def _plan(self) -> Iterator[RoleHandle]:
        """The deployment's roles as unbooted handles, in boot order.

        The coordinator boots first (helpers register with it), gateways
        last.  Ports are the spec's plan (0 = ephemeral); the metrics port
        is ``metrics_base_port`` plus the row's boot index.
        """
        spec = self.spec
        rows = [("coordinator", "", spec.coordinator_port())]
        rows += [
            ("helper", node, spec.helper_port(index))
            for index, node in enumerate(spec.helpers)
        ]
        rows += [
            ("gateway", "" if spec.gateways == 1 else f"g{index}", spec.gateway_port(index))
            for index in range(spec.gateways)
        ]
        for boot_index, (role, node, port) in enumerate(rows):
            metrics_port = (
                self.metrics_base_port + boot_index if self.metrics_base_port else None
            )
            yield RoleHandle(role, node, spec.host, port, metrics_port=metrics_port)

    def _role_settings(self, row: RoleHandle, process_mode: bool) -> Dict[str, object]:
        """What :func:`build_server` / :func:`role_argv` take beside ``row``."""
        return {
            "coordinator_address": (
                None if row.role == "coordinator" else self.coordinator_address
            ),
            "store_path": self.store_path,
            "scan": process_mode if self.scan is None else self.scan,
            "trace_dir": self.trace_dir,
        }

    # -------------------------------------------------------- in-process mode
    async def start(self) -> "LocalDeployment":
        """Boot every role into the current event loop (test mode)."""
        if self.handles:
            raise ServiceError("deployment already started")
        for row in self._plan():
            server, handle = await self._start_server(row)
            self._servers.append(server)
            self.handles.append(handle)
        return self

    async def _start_server(self, row: RoleHandle) -> Tuple[object, RoleHandle]:
        """Boot ``row`` in-process: its server and the handle it bound."""
        server = build_server(row, **self._role_settings(row, process_mode=False))
        await server.start()
        host, port = server.address
        return server, replace(row, host=host, port=port)

    async def stop(self) -> None:
        """Stop every in-process server (reverse boot order)."""
        for server in reversed(self._servers):
            await server.stop()
        self._servers.clear()
        self.handles.clear()

    # ----------------------------------------------------------- process mode
    def up(self, python: Optional[str] = None) -> "LocalDeployment":
        """Boot every role as a supervised OS process.

        Each child binds its (possibly ephemeral) port and prints one
        ``ADDRESS <host> <port>`` line on stdout.  The coordinator boots
        first and alone -- every other role registers with it on start --
        then all the others are started before any of their addresses is
        read, so their interpreters start side by side.  Handles stay in
        boot order.  A role that fails to report takes every child down
        with it, those still waiting to be read included.
        """
        if self.handles:
            raise ServiceError("deployment already started")
        self._interpreter = python or sys.executable
        coordinator, *others = self._plan()
        #: Started, address not read yet.
        waiting: List[Tuple[RoleHandle, subprocess.Popen]] = []
        try:
            self.handles.append(self._spawn_role(coordinator))
            for row in others:
                waiting.append((row, self._popen_role(row)))
            while waiting:
                self.handles.append(self._reported(*waiting[0]))
                del waiting[0]
        except Exception:
            for _, process in waiting:
                process.kill()
                process.wait()
            self.down()
            raise
        return self

    def _popen_role(self, row: RoleHandle) -> subprocess.Popen:
        """Start ``row`` as a role process (its address is still to be read)."""
        argv = [
            self._interpreter or sys.executable,
            "-m",
            "repro.service",
            "run-role",
            *role_argv(row, **self._role_settings(row, process_mode=True)),
        ]
        env = dict(os.environ)
        env.update(self.role_env)
        return subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=None,
            text=True,
            env=env,
            start_new_session=True,
        )

    @staticmethod
    def _reported(row: RoleHandle, process: subprocess.Popen) -> RoleHandle:
        """Wait for a started role's ``ADDRESS`` line; the handle with its bound address."""
        assert process.stdout is not None
        line = process.stdout.readline().strip()
        if not line.startswith("ADDRESS "):
            process.kill()
            raise ServiceError(
                f"role process {row.label} failed to report its address "
                f"(got {line!r})"
            )
        _, host, bound_port = line.split()
        return replace(
            row, host=host, port=int(bound_port), pid=process.pid, process=process
        )

    def _spawn_role(self, row: RoleHandle) -> RoleHandle:
        """Start ``row`` as a role process and wait for its bound address."""
        return self._reported(row, self._popen_role(row))

    def down(self) -> Dict[str, List[str]]:
        """Shut the process deployment down; returns what each step caught.

        The report maps ``graceful`` / ``sigterm`` / ``sigkill`` to the role
        labels handled at that escalation level.  A clean deployment ends
        with everything under ``graceful`` and nothing alive -- the property
        the service smoke test asserts.
        """
        report: Dict[str, List[str]] = {"graceful": [], "sigterm": [], "sigkill": []}
        # Gateway first, coordinator last, so nothing plans against a dead
        # control plane while draining.
        for entry in reversed(self.handles):
            try:
                asyncio.run(
                    asyncio.wait_for(
                        request(entry.host, entry.port, Op.SHUTDOWN, {}), timeout=5.0
                    )
                )
                report["graceful"].append(entry.label)
            except Exception:
                pass  # escalation below handles it
        pending = _await_exit([e for e in self.handles if e.pid is not None])
        # SIGKILL is asynchronous too: the wait after it gives the kernel a
        # bounded window to actually reap before anything counts as an orphan.
        for level, signum in (("sigterm", signal.SIGTERM), ("sigkill", signal.SIGKILL)):
            for entry in pending:
                try:
                    os.kill(entry.pid, signum)
                    report[level].append(entry.label)
                except ProcessLookupError:
                    continue
            pending = _await_exit(pending)
        self._orphans = [entry.pid for entry in pending]
        self.handles = []
        return report

    def orphans(self) -> List[int]:
        """Role pids still alive (empty after a clean lifecycle).

        Before :meth:`down` this reports on the current handles; afterwards
        it reports what ``down`` could not kill.
        """
        if self.handles:
            return [entry.pid for entry in self.handles if entry.alive()]
        return list(self._orphans)

    # ------------------------------------------------------------ fault hooks
    async def crash_role(self, role: str, node: str = "") -> RoleHandle:
        """Kill one role ungracefully (``kill -9`` / abrupt in-process stop).

        The role's in-memory state dies with it: a crashed helper loses its
        stored blocks, a crashed coordinator its metadata.  The handle stays
        in :attr:`handles` so :meth:`restart_role` knows the old address.
        """
        entry = self.handle(role, node)
        if entry.pid is not None:
            os.kill(entry.pid, signal.SIGKILL)
            if entry.process is not None:
                await asyncio.to_thread(entry.process.wait)
            elif await asyncio.to_thread(_await_exit, [entry]):
                # A rehydrated handle has no Popen to wait on: poll, bounded.
                raise ServiceError(f"pid {entry.pid} survived SIGKILL")
        else:
            await self._servers[self.handles.index(entry)].abort()
        return entry

    def pause_role(self, role: str, node: str = "") -> RoleHandle:
        """``SIGSTOP`` one role process (wedged-but-alive fault)."""
        entry = self.handle(role, node)
        if entry.pid is None:
            raise ServiceError("pause_role requires a process deployment")
        os.kill(entry.pid, signal.SIGSTOP)
        return entry

    def resume_role(self, role: str, node: str = "") -> RoleHandle:
        """``SIGCONT`` a paused role process."""
        entry = self.handle(role, node)
        if entry.pid is None:
            raise ServiceError("resume_role requires a process deployment")
        os.kill(entry.pid, signal.SIGCONT)
        return entry

    async def restart_role(self, role: str, node: str = "") -> RoleHandle:
        """Boot a fresh process/server for a dead role on its old port.

        Rebinding the old port means peers that cached the address (the
        gateway's coordinator address, proxies, state files) reconnect
        without relearning anything.  The restarted role comes back *empty*;
        helpers re-register with the coordinator on start, everything else
        is the caller's recovery procedure.
        """
        old = self.handle(role, node)
        index = self.handles.index(old)
        if old.alive():
            raise ServiceError(f"{role}:{node or '-'} is still alive; crash it first")
        if old.pid is not None:
            self.handles[index] = await asyncio.to_thread(self._spawn_role, old)
        else:
            self._servers[index], self.handles[index] = await self._start_server(old)
        return self.handles[index]

    # ------------------------------------------------------------- state file
    def save_state(self, path: str = DEFAULT_STATE_PATH) -> str:
        """Persist spec + handles so a later CLI invocation can manage us.

        The write is atomic (temp file + ``os.replace`` in the same
        directory): a crash mid-write leaves the previous state intact
        instead of a truncated JSON that ``load_state`` would reject.
        """
        state = {
            "spec": self.spec.to_dict(),
            "handles": [entry.to_dict() for entry in self.handles],
        }
        if self.store_path:
            state["store"] = self.store_path
        if self.trace_dir:
            state["trace_dir"] = self.trace_dir
        target = Path(path)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(state, indent=2) + "\n")
        os.replace(tmp, target)
        return path

    @classmethod
    def load_state(cls, path: str = DEFAULT_STATE_PATH) -> "LocalDeployment":
        """Rehydrate a process deployment from its state file."""
        try:
            state = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ServiceError(f"no deployment state at {path!r} (is it up?)") from None
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"deployment state at {path!r} is corrupt ({exc}); "
                f"remove it and re-run `up`"
            ) from None
        try:
            deployment = cls(spec=DeploymentSpec.from_dict(state["spec"]))
            deployment.handles = [RoleHandle.from_dict(h) for h in state["handles"]]
            store = state.get("store")
            deployment.store_path = str(store) if store else None
            trace_dir = state.get("trace_dir")
            deployment.trace_dir = str(trace_dir) if trace_dir else None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ServiceError(
                f"deployment state at {path!r} is stale or malformed "
                f"({type(exc).__name__}: {exc}); remove it and re-run `up`"
            ) from None
        return deployment
