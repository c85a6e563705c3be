"""Supervision edges of :class:`repro.service.deployment.LocalDeployment`.

The happy paths (boot, serve, graceful stop) live in ``test_service.py``;
this file covers what the chaos harness leans on: the fault hooks
(crash/pause/resume/restart in both modes), idempotent teardown, recovery
after a role dies during boot, and state-file rehydration with corrupt or
stale JSON -- and the role table both boot modes read.
"""

import asyncio
import json
import os
import socket
import stat
import sys

import pytest

from repro.cluster import DeploymentSpec
from repro.service import LocalDeployment, ServiceClient
from repro.service import __main__ as cli
from repro.service import deployment as deployment_module
from repro.service.deployment import RoleHandle, ServiceError, pid_alive, role_argv
from repro.service.protocol import Op, request


def run(coro):
    return asyncio.run(coro)


def spec(num_helpers=2):
    return DeploymentSpec.local(num_helpers)


def free_port_base(count):
    """A base port with ``count`` consecutive ports free right now."""
    for base in range(41000, 60000, 97):
        held = []
        try:
            for port in range(base, base + count):
                held.append(socket.socket())
                held[-1].bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
    raise RuntimeError("no free port range")


# ----------------------------------------------------------------- role table
class FakeServer:
    """What ``build_server`` is replaced with: records the call, binds nothing."""

    def __init__(self, calls, handle, **settings):
        calls.append((handle, settings))
        self.address = (handle.host, handle.port or 7000 + len(calls))

    async def start(self):
        return self

    async def stop(self):
        pass

    def request_shutdown(self):
        pass

    async def serve_until_shutdown(self):
        pass


TABLE_CASES = [
    dict(gateways=1),
    dict(gateways=2),
    dict(gateways=1, base_port=9100),
    dict(gateways=2, metrics_base_port=9300, scan=True, store_path="meta.db"),
    dict(gateways=2, base_port=9100, metrics_base_port=9300, scan=False, trace_dir="spans"),
]


class TestRoleTable:
    @staticmethod
    def deployment(gateways, base_port=0, **settings):
        return LocalDeployment(
            spec=DeploymentSpec.local(3, base_port=base_port, gateways=gateways),
            **settings,
        )

    @pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_start_boots_the_planned_rows(self, case, monkeypatch):
        calls = []
        monkeypatch.setattr(
            deployment_module, "build_server", lambda h, **kw: FakeServer(calls, h, **kw)
        )
        deployment = self.deployment(**case)
        planned = list(deployment._plan())
        run(deployment.start())

        def shape(rows):
            return [(h.role, h.node, h.metrics_port) for h in rows]

        assert shape(planned) == shape(deployment.handles)
        assert [handle for handle, _ in calls] == planned
        assert len(deployment._servers) == len(deployment.handles)
        # Boot order and names: coordinator, helpers, gateways ("" alone, else gN).
        names = ["g0", "g1"] if case["gateways"] == 2 else [""]
        assert shape(planned) == [
            (role, node, None if "metrics_base_port" not in case else 9300 + index)
            for index, (role, node) in enumerate(
                [("coordinator", "")]
                + [("helper", f"node{i}") for i in range(3)]
                + [("gateway", name) for name in names]
            )
        ]
        if case.get("base_port"):
            helper_ports = [9100 + 1 + case["gateways"] + i for i in range(3)]
            gateway_ports = [9100 + 1 + g for g in range(case["gateways"])]
            assert [h.port for h in planned] == [9100] + helper_ports + gateway_ports

    @pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_run_role_argv_reaches_build_server_like_start_does(self, case, monkeypatch, capsys):
        inproc, process = [], []
        monkeypatch.setattr(
            deployment_module, "build_server", lambda h, **kw: FakeServer(inproc, h, **kw)
        )
        monkeypatch.setattr(
            cli, "build_server", lambda h, **kw: FakeServer(process, h, **kw)
        )
        run(self.deployment(**case).start())
        for handle, settings in inproc:
            argv = role_argv(handle, **settings)
            assert cli.main(["run-role", *argv]) == 0
        assert process == inproc
        assert capsys.readouterr().out.count("ADDRESS ") == len(inproc)

    def test_scanner_default_follows_the_mode(self):
        deployment = self.deployment(gateways=1)
        row = next(deployment._plan())
        assert deployment._role_settings(row, process_mode=False)["scan"] is False
        assert deployment._role_settings(row, process_mode=True)["scan"] is True
        for explicit in (True, False):
            deployment.scan = explicit
            for mode in (True, False):
                assert deployment._role_settings(row, process_mode=mode)["scan"] is explicit
        assert "--no-scan" in role_argv(row, scan=False)
        assert "--no-scan" not in role_argv(row, scan=True)

    def test_run_role_still_refuses_incomplete_roles(self):
        with pytest.raises(ServiceError, match="helper roles need --node and --coordinator"):
            cli.main(["run-role", "--role", "helper", "--coordinator", "127.0.0.1:1"])
        with pytest.raises(ServiceError, match="gateway roles need --coordinator"):
            cli.main(["run-role", "--role", "gateway"])


# ------------------------------------------------------------ in-process hooks
class TestInProcessFaultHooks:
    def test_crash_then_restart_serves_again(self):
        async def scenario():
            deployment = LocalDeployment(spec=spec())
            await deployment.start()
            try:
                node = sorted(deployment.helper_addresses())[0]
                handle = await deployment.crash_role("helper", node)
                # An aborted server refuses its old address...
                with pytest.raises((ConnectionError, OSError)):
                    await request(handle.host, handle.port, Op.PING, {})
                # ...and restart_role brings it back on that same port.
                restarted = await deployment.restart_role("helper", node)
                assert restarted.address == handle.address
                reply = await request(handle.host, handle.port, Op.PING, {})
                assert reply.op == Op.OK
            finally:
                await deployment.stop()

        run(scenario())

    def test_restart_keeps_the_metrics_listener(self):
        base = free_port_base(4)

        async def scenario():
            deployment = LocalDeployment(spec=spec(), metrics_base_port=base)
            await deployment.start()
            try:
                node = sorted(deployment.helper_addresses())[0]
                before = deployment.handle("helper", node)
                await deployment.crash_role("helper", node)
                restarted = await deployment.restart_role("helper", node)
                assert restarted.metrics_port == before.metrics_port == base + 1
                assert deployment.handle("helper", node) is restarted
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", restarted.metrics_port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                assert b"200 OK" in response and b"helper_store_bytes" in response
            finally:
                await deployment.stop()

        run(scenario())

    def test_restart_of_a_live_role_is_refused(self):
        async def scenario():
            deployment = LocalDeployment(spec=spec())
            await deployment.start()
            try:
                # In-process handles have no pid, so alive() is False and the
                # guard cannot apply; crash the gateway and restart it twice
                # instead: the second restart must succeed too (idempotent
                # recovery), while a *process* deployment's guard is covered
                # in the process-mode test below.
                await deployment.crash_role("gateway")
                first = await deployment.restart_role("gateway")
                await deployment.crash_role("gateway")
                second = await deployment.restart_role("gateway")
                assert first.address == second.address
            finally:
                await deployment.stop()

        run(scenario())

    def test_pause_resume_require_processes(self):
        async def scenario():
            deployment = LocalDeployment(spec=spec())
            await deployment.start()
            try:
                with pytest.raises(ServiceError, match="process"):
                    deployment.pause_role("coordinator")
                with pytest.raises(ServiceError, match="process"):
                    deployment.resume_role("coordinator")
            finally:
                await deployment.stop()

        run(scenario())

    def test_unknown_role_raises_keyerror(self):
        async def scenario():
            deployment = LocalDeployment(spec=spec())
            await deployment.start()
            try:
                with pytest.raises(KeyError):
                    await deployment.crash_role("helper", "not-a-node")
            finally:
                await deployment.stop()

        run(scenario())

    def test_crashed_helper_loses_its_blocks(self):
        async def scenario():
            deployment = LocalDeployment(spec=spec(3))
            await deployment.start()
            try:
                client = ServiceClient(deployment.gateway_address)
                payload = bytes(range(256)) * 64
                await client.put(1, payload, {"family": "rs", "n": 3, "k": 2})
                node = sorted(deployment.helper_addresses())[0]
                await deployment.crash_role("helper", node)
                await deployment.restart_role("helper", node)
                address = deployment.helper_addresses()[node]
                probe = await request(
                    *address, Op.HAS_BLOCK, {"key": "stripe1.block0"}
                )
                assert not probe.header.get("present")  # real machine loss
            finally:
                await deployment.stop()

        run(scenario())


# ------------------------------------------------------------- process mode
class TestProcessSupervision:
    def test_full_fault_cycle_and_idempotent_down(self):
        deployment = LocalDeployment(spec=spec())
        deployment.up()
        try:
            node = sorted(deployment.helper_addresses())[0]
            handle = deployment.handle("helper", node)
            assert handle.alive()

            # SIGSTOP leaves the process alive but wedged; SIGCONT revives.
            deployment.pause_role("helper", node)
            assert handle.alive()
            deployment.resume_role("helper", node)
            assert run(request(handle.host, handle.port, Op.PING, {})).op == Op.OK

            # restart_role refuses while the role lives; kill -9 then works.
            with pytest.raises(ServiceError, match="still alive"):
                run(deployment.restart_role("helper", node))
            run(deployment.crash_role("helper", node))
            assert not handle.alive()
            restarted = run(deployment.restart_role("helper", node))
            assert restarted.address == handle.address
            assert restarted.pid != handle.pid
            assert restarted.alive()
        finally:
            report = deployment.down()
        assert deployment.orphans() == []
        assert not deployment.handles
        # down() again on an empty deployment is a no-op, not an error.
        second = deployment.down()
        assert second == {"graceful": [], "sigterm": [], "sigkill": []}
        assert report["sigkill"] == []

    def test_up_recovers_after_a_role_dies_during_boot(self, tmp_path):
        # A fake interpreter that boots real roles except helpers, which it
        # kills instantly: the helper dies during boot, before reporting an
        # address.
        fake = tmp_path / "flaky-python"
        fake.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do [ "$arg" = "--node" ] && exit 1; done\n'
            f'exec "{sys.executable}" "$@"\n'
        )
        fake.chmod(fake.stat().st_mode | stat.S_IXUSR)

        deployment = LocalDeployment(spec=spec())
        with pytest.raises(ServiceError, match="failed to report"):
            deployment.up(python=str(fake))
        # The partial boot was torn down: nothing left alive or registered.
        assert deployment.handles == []
        assert deployment.orphans() == []

        # The same object boots cleanly afterwards.
        deployment.up()
        try:
            handle = deployment.handle("gateway")
            assert run(request(handle.host, handle.port, Op.PING, {})).op == Op.OK
        finally:
            deployment.down()
        assert deployment.orphans() == []


# -------------------------------------------------------------- state files
class TestStateFile:
    def test_round_trip(self, tmp_path):
        deployment = LocalDeployment(spec=spec())
        deployment.handles = [
            RoleHandle("coordinator", "", "127.0.0.1", 4000, pid=None)
        ]
        path = deployment.save_state(str(tmp_path / "state.json"))
        loaded = LocalDeployment.load_state(path)
        assert loaded.spec.helpers == deployment.spec.helpers
        assert loaded.handles[0].address == ("127.0.0.1", 4000)

    @pytest.mark.parametrize(
        "extras, handle_extras",
        [({}, {}), ({"store": "meta.db", "trace_dir": "spans"}, {"metrics_port": 9300})],
        ids=["oldest-shape", "every-key"],
    )
    def test_literal_state_file_loads_and_down_reports_labels(
        self, tmp_path, extras, handle_extras
    ):
        # The JSON `up` has always written, spelled out (only ports and pids
        # come from a live boot): a format change that strands a running
        # deployment's state file fails here.
        gateways = ["g0", "g1"] if extras else [""]
        booted = LocalDeployment(
            spec=DeploymentSpec.local(1, gateways=len(gateways)), scan=False
        )
        booted.up()
        try:
            spec_dict = {
                "helpers": ["node0"],
                "host": "127.0.0.1",
                "base_port": 0,
                "cluster_spec": DeploymentSpec.local(1).to_dict()["cluster_spec"],
            }
            if extras:
                spec_dict["gateways"] = 2
            roles = [("coordinator", ""), ("helper", "node0")]
            roles += [("gateway", name) for name in gateways]
            handles = [
                {
                    "role": role,
                    "node": node,
                    "host": "127.0.0.1",
                    "port": live.port,
                    "pid": live.pid,
                    **handle_extras,
                }
                for (role, node), live in zip(roles, booted.handles)
            ]
            path = tmp_path / "state.json"
            path.write_text(json.dumps({"spec": spec_dict, "handles": handles, **extras}))
            loaded = LocalDeployment.load_state(str(path))
            assert loaded.spec.gateways == len(gateways)
            assert loaded.store_path == extras.get("store")
            assert loaded.trace_dir == extras.get("trace_dir")
            assert {h.metrics_port for h in loaded.handles} == {
                handle_extras.get("metrics_port")
            }
            # What load_state read is what save_state writes back.
            written = json.loads(path.read_text())
            written["spec"].setdefault("gateways", 1)
            again = loaded.save_state(str(tmp_path / "again.json"))
            assert json.loads(open(again).read()) == written
            labels = ["coordinator", "helper:node0"]
            labels += ["gateway:g0", "gateway:g1"] if extras else ["gateway"]
            assert [h.label for h in loaded.handles] == labels
            report = loaded.down()
        finally:
            booted.down()
        assert report == {"graceful": labels[::-1], "sigterm": [], "sigkill": []}
        assert loaded.orphans() == [] and booted.orphans() == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(ServiceError, match="is it up"):
            LocalDeployment.load_state(str(tmp_path / "absent.json"))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{not json at all")
        with pytest.raises(ServiceError, match="corrupt"):
            LocalDeployment.load_state(str(path))

    @pytest.mark.parametrize(
        "state",
        [
            {},  # no keys at all
            {"spec": {}, "handles": []},  # spec missing fields
            {"spec": None, "handles": []},  # wrong types
            {"spec": {"helpers": ["a"], "host": "h"}, "handles": [{"role": "x"}]},
        ],
        ids=["empty", "spec-empty", "spec-null", "handle-missing-fields"],
    )
    def test_stale_or_malformed_state(self, tmp_path, state):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ServiceError, match="stale or malformed"):
            LocalDeployment.load_state(str(path))

    def test_rehydrated_pids_probe_liveness(self, tmp_path):
        # A rehydrated handle has no Popen; alive() falls back to signal-0.
        dead = RoleHandle("helper", "n", "127.0.0.1", 4001, pid=2**22 + 12345)
        assert not dead.alive()
        assert not pid_alive(dead.pid)
        ours = RoleHandle("helper", "n", "127.0.0.1", 4001, pid=os.getpid())
        assert ours.alive()
