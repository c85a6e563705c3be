"""Supervision edges of :class:`repro.service.deployment.LocalDeployment`.

The happy paths (boot, serve, graceful stop) live in ``test_service.py``;
this file covers what the chaos harness leans on: the fault hooks
(crash/pause/resume/restart in both modes), idempotent teardown, recovery
after a role dies during boot, and state-file rehydration with corrupt or
stale JSON -- and the role table both boot modes read.
"""

import asyncio
import gc
import json
import os
import socket
import stat
import sys
import time
import warnings

import pytest

from repro.cluster import DeploymentSpec
from repro.service import LocalDeployment, ServiceClient
from repro.service import __main__ as cli
from repro.service import deployment as deployment_module
from repro.service.deployment import RoleHandle, ServiceError, pid_alive, role_argv
from repro.service.protocol import (
    BLOCK_UPLOAD,
    ConnectionPool,
    Op,
    ProtocolError,
    RemoteError,
    expect_frame,
    request,
    write_frame,
)
from repro.service.server import FrameServer


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


# ------------------------------------------------------- pooled connections
CODE = {"family": "rs", "n": 5, "k": 3}


def role_server(deployment, role, node=""):
    """The in-process server object behind ``deployment.handle(role, node)``."""
    return deployment._servers[deployment.handles.index(deployment.handle(role, node))]


def connections(server, kind):
    """``{peer: count}`` of a role's ``connections_<kind>_total`` counter."""
    counter = server.registry.counter(
        f"connections_{kind}_total", "", labels=("peer",)
    )
    return {values[0]: int(count) for values, count in counter.items()}


class TestPooledConnections:
    """Every role keeps its connections to its peers open between calls."""

    def test_a_second_get_opens_no_connection(self):
        async def scenario():
            deployment = LocalDeployment(spec=spec(5))
            await deployment.start()
            try:
                client = ServiceClient(deployment.gateway_address)
                payload = os.urandom(3 * 5000)
                await client.put(1, payload, CODE)
                gateway = role_server(deployment, "gateway")
                assert await client.get(1) == payload
                opened, reused = connections(gateway, "opened"), connections(gateway, "reused")
                assert await client.get(1) == payload
                assert connections(gateway, "opened") == opened
                again = connections(gateway, "reused")
                assert again["coordinator"] > reused["coordinator"]
                assert again["helper"] >= reused["helper"] + 3  # k data blocks
                # METRICS serves the same counters to an operator.
                scraped = (await request(*gateway.address, Op.METRICS)).payload.decode()
                assert 'connections_reused_total{role="gateway",peer="helper"}' in scraped
            finally:
                await deployment.stop()

        run(scenario())

    def test_helper_crash_and_restart_surface_no_error(self):
        async def scenario():
            deployment = LocalDeployment(spec=spec(5))
            await deployment.start()
            try:
                client = ServiceClient(deployment.gateway_address)
                gateway = role_server(deployment, "gateway")
                payload = os.urandom(3 * 5000)
                await client.put(1, payload, CODE)
                assert await client.get(1) == payload  # parks a connection per helper
                stripes = await request(*deployment.coordinator_address, Op.STRIPES, {"stripe_id": 1})
                node = stripes.header["locations"]["0"]
                degraded = gateway._degraded_reads_total.value()

                # Down: the pooled connection is dead, and attempts=1 still
                # means one fast failure followed by the degraded-read path.
                await deployment.crash_role("helper", node)
                begin = time.perf_counter()
                assert await client.get(1) == payload
                assert time.perf_counter() - begin < 2.0
                assert gateway._degraded_reads_total.value() == degraded + 1

                # Back (empty, on its old port): no stale connection is
                # mistaken for a dead helper, nothing surfaces to the client.
                await deployment.restart_role("helper", node)
                assert await client.get(1) == payload
                await client.repair(1, [0])
                before = gateway._degraded_reads_total.value()
                assert await client.get(1) == payload
                assert gateway._degraded_reads_total.value() == before
            finally:
                await deployment.stop()

        run(scenario())

    def test_coordinator_restart_is_ridden_out_by_pooled_peers(self, tmp_path):
        async def scenario():
            deployment = LocalDeployment(spec=spec(5), store_path=str(tmp_path / "meta.db"))
            await deployment.start()
            try:
                client = ServiceClient(deployment.gateway_address)
                payload = os.urandom(3 * 5000)
                await client.put(1, payload, CODE)
                assert await client.get(1) == payload
                await deployment.crash_role("coordinator")
                await deployment.restart_role("coordinator")
                # The gateway's parked coordinator connection died with the
                # old coordinator; the next call replaces it without an error
                # and without spending the caller's attempts.
                assert await client.get(1) == payload
                helper = role_server(deployment, "helper", sorted(deployment.helper_addresses())[0])
                beats = helper.heartbeats_sent
                deadline = time.perf_counter() + 5.0
                while helper.heartbeats_sent < beats + 2 and time.perf_counter() < deadline:
                    await asyncio.sleep(0.05)
                assert helper.heartbeats_sent >= beats + 2
            finally:
                await deployment.stop()

        run(scenario())

    def test_only_a_clean_exchange_returns_its_connection(self):
        async def scenario():
            deployment = LocalDeployment(spec=spec())
            await deployment.start()
            pool = ConnectionPool()
            try:
                address = sorted(deployment.helper_addresses().values())[0]
                await pool.request(*address, Op.PING)
                (parked,) = pool._idle[address]
                # An ERROR *reply* is an answer: the helper serves on, and so
                # does the connection.
                with pytest.raises(RemoteError):
                    await pool.request(*address, Op.GET_BLOCK, {"key": "nope"})
                assert pool._idle[address] == [parked]
                # An ERROR on a stream op poisons the stream's connection:
                # the helper closes it, and the lease must not park it.
                with pytest.raises(RemoteError):
                    async with pool.lease(*address) as channel:
                        assert channel is parked
                        await write_frame(channel, BLOCK_UPLOAD.open, {"key": "k", "size": 0})
                        await expect_frame(channel, Op.OK)
                assert pool._idle[address] == []
                # So do a timeout and a cancellation, even mid-request.
                with pytest.raises(asyncio.TimeoutError):
                    await pool.request(
                        *address, Op.PUT_BLOCK_OPEN, {"key": "k", "size": 8}, timeout=0.05, attempts=1
                    )
                assert pool._idle[address] == []
                assert (await pool.request(*address, Op.PING)).op == Op.OK
                (parked,) = pool._idle[address]
                # A frame this end cannot encode says nothing about the
                # connection: it stays parked, and no other one is tried.
                with pytest.raises(ProtocolError, match="exceeds 64 KiB"):
                    await pool.request(*address, Op.PING, {"pad": "x" * 70_000})
                assert pool._idle[address] == [parked]
            finally:
                await pool.close()
                await deployment.stop()

        run(scenario())

    def test_a_lease_never_draws_a_connection_whose_peer_is_gone(self):
        # The peer hangs up while this task keeps the event loop to itself
        # (as a gateway does while it encodes), so the channel has not seen
        # the EOF yet; a lease writes before it reads and must ask the kernel.
        async def scenario():
            listener = socket.create_server(("127.0.0.1", 0))
            address = listener.getsockname()[:2]
            pool = ConnectionPool()
            try:
                async with pool.lease(*address) as parked:
                    pass
                accepted, _ = listener.accept()
                accepted.close()
                assert parked.reusable and not parked.quiet()
                async with pool.lease(*address) as channel:
                    assert channel is not parked and channel.quiet()
            finally:
                await pool.close()
                listener.close()

        run(scenario())

    def test_stop_after_traffic_is_prompt_and_leaves_nothing_open(self):
        # Every peer leaves idle connections parked on every server: stop()
        # must not spend its grace on those, and must close both ends.
        async def scenario():
            deployment = LocalDeployment(spec=spec(5))
            await deployment.start()
            client = ServiceClient(deployment.gateway_address)
            payload = os.urandom(3 * 5000)
            await client.put(1, payload, CODE)
            await client.erase(1, 0)
            assert await client.get(1) == payload  # a chain: helper -> helper -> gateway
            begin = time.perf_counter()
            await deployment.stop()
            return time.perf_counter() - begin

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            seconds = run(scenario())
            gc.collect()
        assert seconds < 1.0  # seven roles; one wasted grace period alone is 1 s
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_stop_waits_for_the_request_in_flight_and_no_longer(self):
        # A pooled connection that is mid-request at stop(): the grace covers
        # that request, not the wait for a next frame the peer never sends.
        entered, release = asyncio.Event(), asyncio.Event()

        class Slow(FrameServer):
            async def handle(self, frame, channel):
                entered.set()
                await release.wait()
                await write_frame(channel, Op.OK)

        async def scenario():
            server = await Slow().start()
            pool = ConnectionPool()
            try:
                call = asyncio.ensure_future(pool.request(*server.address, Op.LOCATE))
                await entered.wait()
                begin = time.perf_counter()
                stopping = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0.05)
                release.set()
                assert (await call).op == Op.OK  # the request was served out
                await stopping
                return time.perf_counter() - begin
            finally:
                await pool.close()

        assert run(scenario()) < 0.5


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
        children = []
        popen_role = deployment._popen_role
        deployment._popen_role = lambda row: children.append(popen_role(row)) or children[-1]
        with pytest.raises(ServiceError, match="failed to report"):
            deployment.up(python=str(fake))
        # The partial boot was torn down: nothing left alive or registered,
        # also not the roles started beside the one that died (the gateway
        # was running, its address not yet read).
        assert deployment.handles == []
        assert deployment.orphans() == []
        assert len(children) == len(list(deployment._plan()))
        assert all(child.poll() is not None for child in children)
        del deployment._popen_role

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
