"""The durable control plane: store, failure detector, repair scanner.

Three layers, tested bottom-up:

* :class:`~repro.service.store.MetadataStore` -- durability is the whole
  contract, so the tests close/reopen stores (byte-identical snapshots,
  hypothesis-driven), copy the db + WAL mid-flight to simulate ``kill -9``
  (committed transactions replay, uncommitted ones vanish), and pin the
  schema-version guard.
* :class:`~repro.service.detector.PhiFailureDetector` -- timing edges in
  virtual time: a beat landing exactly at the threshold gap must not flap,
  a paused-then-resumed helper must un-suspect on its first beat, and the
  priming interval must protect a node that has beaten only once.
* :class:`~repro.service.scanner.RepairScanner` -- driven through plain
  dictionaries and a stubbed gateway: loss signals (dead helpers now,
  inventory gaps only after grace), target selection (in place, spare,
  wait), and the repair dispatch including planner exclusions.

The live integration of all three (a SIGKILLed coordinator recovering from
sqlite, a killed helper auto-repaired with no client involvement) runs in
the chaos harness -- see ``tests/test_chaos_runner.py``.
"""

import asyncio
import json
import math
import shutil
import sqlite3
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecpipe.coordinator import block_key
from repro.service.coordinator import MIN_SLICE_SIZE, CoordinatorServer, model_slice_size
from repro.service.detector import (
    ALIVE,
    DEAD,
    LOG10E,
    SUSPECT,
    PhiFailureDetector,
    detector_from_env,
)
from repro.service.scanner import RepairScanner
from repro.service.store import SCHEMA_VERSION, MetadataStore, StoreError


def run(coro):
    return asyncio.run(coro)


# ------------------------------------------------------------------- store
node_names = st.sampled_from([f"n{i:02d}" for i in range(8)])
code_specs = st.fixed_dictionaries(
    {"family": st.just("rs"), "n": st.integers(4, 9), "k": st.integers(2, 3)}
)
stripe_entries = st.tuples(
    st.integers(1, 50),
    code_specs,
    st.integers(1, 1 << 20),
    st.integers(0, 1 << 22),
    st.lists(node_names, min_size=1, max_size=6, unique=True),
)


class TestStoreRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        stripes=st.lists(stripe_entries, max_size=5, unique_by=lambda e: e[0]),
        endpoints=st.lists(
            st.tuples(node_names, st.integers(1024, 65535)),
            max_size=5,
            unique_by=lambda e: e[0],
        ),
        events=st.lists(st.sampled_from(["enqueue", "repaired", "boot"]), max_size=6),
    )
    def test_snapshot_survives_close_and_reopen(
        self, tmp_path_factory, stripes, endpoints, events
    ):
        path = tmp_path_factory.mktemp("store") / "meta.db"
        with MetadataStore(str(path)) as store:
            for sid, code, block_size, object_size, nodes in stripes:
                store.register_stripe(
                    sid,
                    code,
                    block_size,
                    object_size,
                    {i: node for i, node in enumerate(nodes)},
                )
            for node, port in endpoints:
                store.register_endpoint("helper", node, "127.0.0.1", port)
            for event in events:
                store.journal_append(event, detail="x")
            before = json.dumps(store.snapshot(), sort_keys=True)
        with MetadataStore(str(path)) as reopened:
            after = json.dumps(reopened.snapshot(), sort_keys=True)
        assert after == before

    def test_registration_replaces_placement_atomically(self, tmp_path):
        with MetadataStore(str(tmp_path / "m.db")) as store:
            store.register_stripe(1, {"family": "rs"}, 10, 20, {0: "a", 1: "b"})
            store.register_stripe(1, {"family": "rs"}, 10, 20, {0: "c"})
            (entry,) = store.stripes()
            assert entry["locations"] == {0: "c"}  # old rows fully gone

    def test_relocate_updates_and_rejects_unknown(self, tmp_path):
        with MetadataStore(str(tmp_path / "m.db")) as store:
            store.register_stripe(1, {"family": "rs"}, 10, 20, {0: "a"})
            store.relocate(1, 0, "z")
            assert store.stripes()[0]["locations"] == {0: "z"}
            with pytest.raises(StoreError, match="relocate"):
                store.relocate(9, 9, "z")

    def test_endpoints_filter_by_role(self, tmp_path):
        with MetadataStore(str(tmp_path / "m.db")) as store:
            store.register_endpoint("helper", "n00", "127.0.0.1", 5000)
            store.register_endpoint("gateway", "gateway", "127.0.0.1", 6000)
            assert store.endpoints("helper") == {"n00": ("127.0.0.1", 5000)}
            assert sorted(store.endpoints()) == ["gateway", "n00"]

    def test_schema_version_guard(self, tmp_path):
        path = tmp_path / "m.db"
        MetadataStore(str(path)).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 7}")
        conn.close()
        with pytest.raises(StoreError, match="schema version"):
            MetadataStore(str(path))


def _crash_copy(path: Path, dest_dir: Path) -> Path:
    """What a ``kill -9`` leaves on disk: the db and WAL, mid-flight.

    Copying the live sqlite files without closing the connection is exactly
    the on-disk state a crashed coordinator's successor opens.  The ``-shm``
    index is deliberately not copied -- recovery rebuilds it from the WAL.
    """
    copy = dest_dir / path.name
    for suffix in ("", "-wal"):
        source = Path(str(path) + suffix)
        if source.exists():
            shutil.copy(source, str(copy) + suffix)
    return copy


class TestStoreCrashRecovery:
    def test_committed_transaction_survives_wal_replay(self, tmp_path):
        path = tmp_path / "live" / "m.db"
        path.parent.mkdir()
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        store = MetadataStore(str(path))
        store.register_stripe(1, {"family": "rs"}, 10, 20, {0: "a", 1: "b"})
        store.journal_append("enqueue", 1, 0, detail="risk=1")
        # No close(): the commits live in the WAL, not the main db file.
        copy = _crash_copy(path, crash_dir)
        with MetadataStore(str(copy)) as recovered:
            (entry,) = recovered.stripes()
            assert entry["locations"] == {0: "a", 1: "b"}
            assert recovered.journal()[-1]["event"] == "enqueue"
        store.close()

    def test_uncommitted_transaction_vanishes(self, tmp_path):
        path = tmp_path / "live" / "m.db"
        path.parent.mkdir()
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        store = MetadataStore(str(path))
        store.register_stripe(1, {"family": "rs"}, 10, 20, {0: "a"})
        # Open a write transaction and *crash* (copy the files, never
        # commit): recovery must see the stripe exactly as last committed,
        # never the torn half-placement.
        cur = store._conn.cursor()
        cur.execute("BEGIN IMMEDIATE")
        cur.execute("DELETE FROM placement WHERE stripe_id=1")
        cur.execute("INSERT INTO placement VALUES (1, 0, 'torn')")
        copy = _crash_copy(path, crash_dir)
        cur.execute("ROLLBACK")
        with MetadataStore(str(copy)) as recovered:
            (entry,) = recovered.stripes()
            assert entry["locations"] == {0: "a"}
        store.close()

    def test_in_memory_store_supports_the_same_api(self):
        with MetadataStore() as store:
            store.register_stripe(1, {"family": "rs"}, 10, 20, {0: "a"})
            store.register_endpoint("helper", "a", "h", 1)
            assert store.path is None
            assert len(store.stripes()) == 1


# ---------------------------------------------------------------- detector
def beaten(detector, node, times):
    for t in times:
        detector.beat(node, now=t)


def largest_gap_within(detector, node, last, threshold):
    """The largest arrival gap whose phi does not exceed ``threshold``.

    ``last + threshold * mean / LOG10E`` is the exact edge in real
    arithmetic; the float round-trip can land one ulp past it, so step back
    until phi is within the threshold again.
    """
    at = last + threshold * detector.mean_interval(node) / LOG10E
    while detector.phi(node, now=at) > threshold:
        at = math.nextafter(at, last)
    return at


class TestDetectorEdges:
    def detector(self, **kw):
        kw.setdefault("clock", lambda: 0.0)
        return PhiFailureDetector(**kw)

    def test_steady_beats_stay_alive(self):
        d = self.detector()
        beaten(d, "a", [i * 0.25 for i in range(8)])
        assert d.state("a", now=2.0) == ALIVE

    def test_beat_exactly_at_the_threshold_gap_does_not_flap(self):
        d = self.detector()
        beaten(d, "a", [i * 0.25 for i in range(8)])
        last = 1.75
        # Exclusive thresholds: a gap landing exactly at the threshold
        # leaves the node in the lower state; one ulp beyond escalates.
        suspect_edge = largest_gap_within(d, "a", last, d.suspect_phi)
        assert d.state("a", now=suspect_edge) == ALIVE
        assert d.state("a", now=math.nextafter(suspect_edge, math.inf)) == SUSPECT
        dead_edge = largest_gap_within(d, "a", last, d.dead_phi)
        assert d.state("a", now=dead_edge) == SUSPECT
        assert d.state("a", now=math.nextafter(dead_edge, math.inf)) == DEAD

    def test_paused_then_resumed_node_unsuspects(self):
        d = self.detector()
        beaten(d, "a", [i * 0.25 for i in range(8)])
        assert d.state("a", now=10.0) == DEAD  # long GC pause / SIGSTOP
        d.beat("a", now=10.0)
        assert d.state("a", now=10.0) == ALIVE  # one beat resets suspicion
        assert "a" not in d.unusable(now=10.1)

    def test_priming_interval_protects_a_single_beat(self):
        d = self.detector(prime_interval=0.25, min_interval=0.05)
        d.beat("a", now=0.0)
        # With only the min-interval floor this gap would read as dead
        # (0.3 / 0.05 * log10(e) ~ 2.6); the priming interval keeps a node
        # alive between its first and second beats.
        assert d.phi("a", now=0.3) == pytest.approx(0.3 / 0.25 * LOG10E)
        assert d.state("a", now=0.3) == ALIVE

    def test_unknown_node_is_infinitely_suspect(self):
        d = self.detector()
        assert math.isinf(d.phi("ghost"))
        assert d.state("ghost") == DEAD
        assert d.nodes() == []

    def test_forget_drops_the_node(self):
        d = self.detector()
        d.beat("a", now=0.0)
        d.forget("a")
        assert d.nodes() == []
        assert math.isinf(d.phi("a", now=0.1))

    def test_window_bounds_the_mean(self):
        d = self.detector(window=4)
        # Early slow beats age out of the window; only the recent fast
        # cadence sets the mean.
        beaten(d, "a", [0.0, 2.0, 4.0, 6.0])
        beaten(d, "a", [6.1, 6.2, 6.3, 6.4])
        assert d.mean_interval("a") == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhiFailureDetector(suspect_phi=2.0, dead_phi=1.0)
        with pytest.raises(ValueError):
            PhiFailureDetector(min_interval=0.0)
        with pytest.raises(ValueError):
            PhiFailureDetector(prime_interval=0.0)
        with pytest.raises(ValueError):
            PhiFailureDetector(window=0)

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.1")
        d = detector_from_env()
        assert d.prime_interval == 0.1

    def test_report_shape(self):
        d = self.detector()
        beaten(d, "a", [0.0, 0.25])
        report = d.report(now=0.5)
        assert report["a"]["state"] == ALIVE
        assert set(report["a"]) == {"state", "phi", "age", "mean_interval"}


# ----------------------------------------------------------------- scanner
class ScannerHarness:
    """A scanner wired to plain dictionaries and a recording stub gateway.

    The detector's clock reads ``self.now``; :meth:`beat` and :meth:`scan`
    advance it, so the repair workers (which consult the detector through
    the clock, not an explicit ``now``) see the same virtual time as the
    scan that scheduled them.
    """

    def __init__(self, fail_attempts=0, attempts=3):
        self.now = 0.0
        self.detector = PhiFailureDetector(clock=lambda: self.now)
        self.placement = {}
        self.inventory = {}
        self.requests = []
        self.fail_attempts = fail_attempts
        self.store = MetadataStore()
        self.scanner = RepairScanner(
            self.detector,
            self.store,
            lambda: dict(self.placement),
            lambda: {n: set(keys) for n, keys in self.inventory.items()},
            lambda: ("gw", 1),
            scan_interval=0.25,
            grace=0.75,
            concurrency=2,
            attempts=attempts,
            backoff=0.0,
        )

    def beat(self, node, at):
        self.now = at
        self.detector.beat(node, now=at)

    def scan(self, at):
        self.now = at
        return self.scanner.scan_once(now=at)

    async def fake_request(self, host, port, op, header=None, payload=b"", **kw):
        self.requests.append(dict(header))
        if len(self.requests) <= self.fail_attempts:
            raise ConnectionError("stubbed failure")

        class Reply:
            header = {"sha256": {}}

        return Reply()

    async def settle(self):
        while self.scanner._tasks:
            await asyncio.gather(*list(self.scanner._tasks), return_exceptions=True)


@pytest.fixture
def harness(monkeypatch):
    def build(**kw):
        h = ScannerHarness(**kw)
        monkeypatch.setattr("repro.service.scanner.request", h.fake_request)
        return h

    return build


class TestScannerSignals:
    def test_never_beaten_nodes_are_skipped(self, harness):
        h = harness()
        h.placement = {(1, 0): "a", (1, 1): "b"}

        async def scenario():
            # Nobody has beaten: a store-recovered coordinator must not
            # declare the whole cluster dead before the first heartbeats.
            return h.scan(100.0)

        assert run(scenario()) == []

    def test_dead_node_blocks_are_lost_immediately(self, harness):
        h = harness()
        h.placement = {(1, 0): "a", (1, 1): "b"}
        h.beat("a", 0.0)
        h.beat("a", 0.25)
        for t in (9.0, 9.25, 9.5, 9.75, 10.0):
            h.beat("b", t)
        h.inventory = {"b": {block_key(1, 1)}}

        async def scenario():
            return h.scan(10.0)

        # a is dead: its block is lost with no grace; b is alive and holds
        # its block.
        assert run(scenario()) == [(1, 0)]

    def test_inventory_gap_needs_grace(self, harness):
        h = harness()
        h.placement = {(1, 0): "a"}
        for t in (0.0, 0.25, 0.5):
            h.beat("a", t)
        h.inventory = {"a": set()}  # alive, but the block is gone

        async def scenario():
            assert h.scan(0.6) == []  # gap seen, not yet loss
            assert h.scan(0.7) == []  # still inside grace
            h.beat("a", 1.3)
            assert h.scan(1.4) == [(1, 0)]  # grace elapsed
            await h.settle()

        run(scenario())
        assert h.requests and h.requests[0]["blocks"] == [0]

    def test_gap_clears_when_the_block_returns(self, harness):
        h = harness()
        h.placement = {(1, 0): "a"}
        for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5):
            h.beat("a", t)
        h.inventory = {"a": set()}

        async def scenario():
            assert h.scan(0.6) == []
            h.inventory = {"a": {block_key(1, 0)}}  # a client repaired it
            assert h.scan(0.7) == []
            h.inventory = {"a": set()}
            # The grace clock restarted: the old gap must not leak through.
            assert h.scan(1.0) == []
            assert h.scan(1.8) == [(1, 0)]
            await h.settle()

        run(scenario())

    def test_suspect_nodes_are_left_alone(self, harness):
        h = harness()
        h.placement = {(1, 0): "a"}
        h.beat("a", 0.0)
        h.beat("a", 0.25)
        suspect_at = 0.25 + 1.5 * h.detector.mean_interval("a") / LOG10E
        assert h.detector.state("a", now=suspect_at) == SUSPECT

        async def scenario():
            # Suspect is the planner's signal, not the scanner's: the node
            # may come back with its data.
            return h.scan(suspect_at)

        assert run(scenario()) == []


class TestScannerDispatch:
    def test_repair_in_place_with_exclusions(self, harness):
        h = harness()
        h.placement = {(1, 0): "a", (1, 1): "b"}
        h.beat("b", 0.0)  # b goes silent after one beat -> dead
        for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25):
            h.beat("a", t)
        h.inventory = {"a": set()}

        async def scenario():
            h.beat("a", 10.0)
            h.scan(10.0)
            h.beat("a", 11.0)
            h.scan(11.0)
            await h.settle()

        run(scenario())
        in_place = [r for r in h.requests if r["blocks"] == [0]]
        assert in_place and "to" not in in_place[0]  # a is alive: writeback
        assert "b" in in_place[0]["exclude_nodes"]  # dead helper excluded

    def test_dead_node_with_spare_relocates(self, harness):
        h = harness()
        h.placement = {(1, 0): "a"}
        h.beat("a", 0.0)
        for t in (0.0, 0.25, 0.5, 9.9, 10.15):
            h.beat("spare", t)

        async def scenario():
            h.scan(10.2)  # a is dead, spare is alive and holds nothing
            await h.settle()

        run(scenario())
        assert h.requests and h.requests[0]["to"] == "spare"

    def test_dead_node_without_spare_waits(self, harness):
        h = harness()
        h.placement = {(1, 0): "a", (1, 1): "b"}
        h.beat("a", 0.0)
        h.beat("b", 9.9)
        h.beat("b", 10.15)  # b is alive but holds a stripe block: no spare

        async def scenario():
            h.scan(10.2)
            await h.settle()

        run(scenario())
        assert h.requests == []  # no relocation target: wait for the node
        events = [row["event"] for row in h.store.journal()]
        assert "no-target" in events

    def test_failed_attempts_retry_then_succeed(self, harness):
        h = harness(fail_attempts=2, attempts=3)
        h.placement = {(1, 0): "a"}
        for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25):
            h.beat("a", t)
        h.inventory = {"a": set()}

        async def scenario():
            h.beat("a", 10.0)
            h.scan(10.0)
            h.beat("a", 11.0)
            h.scan(11.0)
            await h.settle()

        run(scenario())
        assert len(h.requests) == 3  # two stubbed failures, then success
        assert h.scanner.repair_failures == 2
        assert h.scanner.repairs_completed == 1
        events = [row["event"] for row in h.store.journal()]
        assert events.count("repair-attempt") == 2
        assert "repaired" in events

    def test_risk_first_ordering(self, harness):
        h = harness()
        h.placement = {(1, 0): "a", (2, 0): "a", (2, 1): "b"}
        for node in ("a", "b"):
            for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25):
                h.beat(node, t)
        h.inventory = {"a": set(), "b": set()}
        # Cap concurrency at 1 so the dispatch order is observable.
        h.scanner.concurrency = 1

        async def scenario():
            h.beat("a", 10.0)
            h.beat("b", 10.0)
            h.scan(10.0)
            h.beat("a", 11.0)
            h.beat("b", 11.0)
            h.scan(11.0)
            await h.settle()
            while h.scanner.queue.depth() or h.scanner._tasks:
                h.scanner._dispatch()
                await h.settle()

        run(scenario())
        # Stripe 2 lost two blocks; its repairs must dispatch first.
        assert [r["stripe_id"] for r in h.requests] == [2, 2, 1]

    def test_stats_shape(self, harness):
        h = harness()
        stats = h.scanner.stats()
        assert {
            "scans",
            "queue_depth",
            "in_flight",
            "repairs_completed",
            "repair_failures",
            "last_lost",
            "scan_interval",
            "grace",
            "concurrency",
        } <= set(stats)


# ------------------------------------------------------------- integration
BLOCK_SIZE = 8192


def nodes_for(n):
    return [f"n{i:02d}" for i in range(n)]


# --------------------------------------------------------------- slice model
KIB, MIB = 1024, 1024 * 1024


class TestSliceModel:
    """One slice default, in the coordinator: ``sqrt(B * beta / (h - 1))``."""

    BLOCKS = [1, 4 * KIB, 64 * KIB, 64 * KIB + 1, 100 * KIB, MIB, 2 * MIB, 3 * MIB + 5,
              8 * MIB, 64 * MIB, 1024 * MIB]
    HOPS = [1, 2, 3, 6, 10, 14, 40]

    def test_expected_sizes(self):
        assert model_slice_size(8 * MIB, 6) == 256 * KIB
        assert model_slice_size(2 * MIB, 6) == 128 * KIB

    def test_a_power_of_two_within_the_floor_and_the_block(self):
        for hops in self.HOPS[1:]:
            for block in self.BLOCKS:
                size = model_slice_size(block, hops)
                if block <= MIN_SLICE_SIZE:
                    assert size == block
                else:
                    assert MIN_SLICE_SIZE <= size <= block
                    assert size & (size - 1) == 0, (block, hops, size)

    def test_monotone_in_block_size_and_hop_count(self):
        for hops in self.HOPS:
            sizes = [model_slice_size(block, hops) for block in self.BLOCKS]
            assert sizes == sorted(sizes), hops
        for block in self.BLOCKS:
            sizes = [model_slice_size(block, hops) for hops in self.HOPS]
            assert sizes == sorted(sizes, reverse=True), block

    def test_a_chain_too_short_to_pipeline_is_one_slice(self):
        assert model_slice_size(8 * MIB, 1) == 8 * MIB

    def test_plan_repair_defaults_to_the_model_and_obeys_the_caller(self):
        from repro.service.protocol import Op, request

        n, k = 9, 6
        blocks = {1: 8 * MIB, 2: 2 * MIB, 3: 20000}

        async def scenario():
            coordinator = CoordinatorServer()
            await coordinator.start()
            try:
                ask = lambda op, header: request(*coordinator.address, op, header)
                for i, node in enumerate(nodes_for(n)):
                    await ask(Op.REGISTER_HELPER, {"node": node, "host": "127.0.0.1", "port": 7000 + i})
                for stripe_id, block_size in blocks.items():
                    await ask(
                        Op.REGISTER_STRIPE,
                        {
                            "stripe_id": stripe_id,
                            "code": {"family": "rs", "n": n, "k": k},
                            "locations": {str(i): node for i, node in enumerate(nodes_for(n))},
                            "block_size": block_size,
                            "object_size": k * block_size,
                        },
                    )

                async def slices(stripe_id, **options):
                    reply = await ask(
                        Op.PLAN_REPAIR, {"stripe_id": stripe_id, "failed": [0], **options}
                    )
                    assert len(reply.header["plan"]["hops"]) == k
                    return reply.header["plan"]["slice_sizes"]

                # Absent: the model's, per plan (block size and hop count).
                assert await slices(1) == [256 * KIB] * 32
                assert await slices(2) == [128 * KIB] * 16
                assert await slices(3) == [20000]
                assert await slices(1, scheme="pipe_s") == [256 * KIB] * 32
                # Present: the caller's, clamped to the block as ever.
                assert await slices(1, slice_size=64 * KIB) == [64 * KIB] * 128
                assert await slices(3, slice_size=4096) == [4096] * 4 + [20000 - 4 * 4096]
                assert await slices(3, slice_size=10**9) == [20000]
                assert await slices(1, scheme="pipe_b", slice_size=4096) == [8 * MIB]
            finally:
                await coordinator.stop()

        run(scenario())


class TestDurableControlPlane:
    """The layers together, on a live in-process deployment."""

    def test_coordinator_restart_recovers_from_store(self, rng, tmp_path):
        """Crash + restart the coordinator mid-life: nothing re-registers,
        yet reads, degraded reads and repairs all still work, because the
        restarted coordinator rebuilt its state from sqlite."""
        from repro.cluster import DeploymentSpec
        from repro.service import LocalDeployment, ServiceClient
        from conftest import random_payload

        n, k = 5, 3
        payload = random_payload(rng, k * BLOCK_SIZE)

        async def scenario():
            deployment = LocalDeployment(
                spec=DeploymentSpec(helpers=nodes_for(n)),
                store_path=str(tmp_path / "meta.db"),
            )
            await deployment.start()
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, payload, {"family": "rs", "n": n, "k": k})
                await deployment.crash_role("coordinator")
                await deployment.restart_role("coordinator")
                # No re-registration of stripes or helpers happened: every
                # bit of the coordinator's knowledge came from the store.
                assert await client.get(1) == payload
                await client.erase(1, 2)
                block, header = await client.read_block(1, 2, force_repair=True)
                assert header["repaired"]
                return block
            finally:
                await deployment.stop()

        assert len(run(scenario())) == BLOCK_SIZE

    def test_scanner_converges_after_an_erased_block(self, rng, tmp_path):
        """Erase a replica and touch nothing: the heartbeat inventory gap
        alone must drive the scanner to restore the block, byte-identical,
        with no client repair call."""
        from repro.cluster import DeploymentSpec
        from repro.service import LocalDeployment, ServiceClient
        from repro.service.protocol import Op, request
        from conftest import random_payload

        n, k = 5, 3
        target = 3
        payload = random_payload(rng, k * BLOCK_SIZE)

        async def has_block(coordinator):
            locate = await request(
                coordinator[0],
                coordinator[1],
                Op.LOCATE,
                {"stripe_id": 1, "block": target},
            )
            host, port = locate.header["address"]
            probe = await request(
                host, port, Op.HAS_BLOCK, {"key": block_key(1, target)}
            )
            return bool(probe.header.get("present"))

        async def scenario():
            deployment = LocalDeployment(
                spec=DeploymentSpec(helpers=nodes_for(n)),
                store_path=str(tmp_path / "meta.db"),
                scan=True,
            )
            await deployment.start()
            try:
                client = ServiceClient(deployment.gateway_address)
                await client.put(1, payload, {"family": "rs", "n": n, "k": k})
                before, _ = await client.read_block(1, target)
                await client.erase(1, target)
                coordinator = deployment.coordinator_address
                deadline = asyncio.get_running_loop().time() + 30.0
                while not await has_block(coordinator):
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "scanner did not restore the erased block"
                    await asyncio.sleep(0.1)
                after, header = await client.read_block(1, target)
                assert not header.get("repaired")  # served from storage
                return before, after
            finally:
                await deployment.stop()

        before, after = run(scenario())
        assert after == before
