"""Unit tests for the storage-system facades and their metadata/placement."""

import pytest

from repro.cluster import KiB, MiB, build_flat_cluster, build_rack_cluster, mbps
from repro.codes import RSCode
from repro.core import RepairRequest, StripeInfo
from repro.storage import HDFS3, QFS, FlatPlacement, HDFSRaid, RackAwarePlacement
from repro.storage.placement import PlacementError
from repro.storage.systems import OriginalStorageRepair
from conftest import random_payload

NODES = [f"node{i}" for i in range(16)]


class TestMetadataService:
    """The NameNode role of a facade: file -> stripes, the stripe catalogue
    (the ECPipe coordinator's) and the failed-block set."""

    @pytest.fixture
    def system(self, rng):
        system = QFS(NODES, block_size=256)
        system.write_file("f", random_payload(rng, 256 * 6))
        return system

    def test_file_lifecycle(self, system):
        assert system.files == {"f": [0]}
        with pytest.raises(ValueError):
            system.write_file("f", b"again")
        with pytest.raises(KeyError):
            system.stripes("missing")

    def test_stripe_registration(self, system, rng):
        (stripe,) = system.stripes("f")
        assert stripe.stripe_id == 0
        assert stripe is system.stripe(0) is system.ecpipe.coordinator.stripe(0)
        assert system.stripe(0).location(3) == "node3"
        (second,) = system.write_file("g", random_payload(rng, 256))
        assert second.stripe_id == 1 and system.files["g"] == [1]
        assert [s.stripe_id for s in system.stripes()] == [0, 1]
        on_node3 = system.ecpipe.coordinator.blocks_on_node("node3")
        assert [(b.stripe_id, b.block_index) for b in on_node3] == [(0, 3), (1, 2)]
        with pytest.raises(KeyError):
            system.stripe(9)

    def test_failure_tracking(self, system):
        system.fail_block(0, 2)
        assert system.failed_blocks() == [(0, 2)]
        system.repair_block(0, 2, "node15", slice_size=64)
        assert system.failed_blocks() == []
        with pytest.raises(KeyError):
            system.fail_block(9, 0)

    def test_node_failure_marks_all_blocks(self, system, rng):
        system.write_file("g", random_payload(rng, 256 * 6))
        lost = system.fail_node("node3")
        assert lost == [(0, 3), (1, 2)]
        assert system.failed_blocks() == lost


class TestPlacement:
    def test_flat_placement_distinct_nodes(self):
        placement = FlatPlacement(NODES)
        layout = placement.place(0, 14)
        assert len(set(layout.values())) == 14
        rotated = placement.place(1, 14)
        assert rotated[0] == "node1"

    def test_flat_placement_too_few_nodes(self):
        with pytest.raises(PlacementError):
            FlatPlacement(["a", "b"]).place(0, 3)
        with pytest.raises(PlacementError):
            FlatPlacement([])

    def test_rack_aware_placement_respects_cap(self):
        cluster = build_rack_cluster(3, 6, mbps(400))
        placement = RackAwarePlacement(cluster, blocks_per_rack=3)
        layout = placement.place(0, 9)
        racks = {}
        for node in layout.values():
            racks.setdefault(cluster.node(node).rack, 0)
            racks[cluster.node(node).rack] += 1
        assert all(count <= 3 for count in racks.values())

    def test_rack_aware_placement_capacity_check(self):
        cluster = build_rack_cluster(2, 2, mbps(400))
        placement = RackAwarePlacement(cluster, blocks_per_rack=2)
        with pytest.raises(PlacementError):
            placement.place(0, 9)

    def test_rack_aware_requires_racks(self):
        with pytest.raises(PlacementError):
            RackAwarePlacement(build_flat_cluster(4), 2)
        cluster = build_rack_cluster(2, 2, mbps(400))
        with pytest.raises(PlacementError):
            RackAwarePlacement(cluster, 0)


class TestStorageSystems:
    def test_defaults_match_paper(self):
        assert HDFSRaid.default_code_params == (14, 10)
        assert HDFSRaid.encoding_mode == "offline"
        assert HDFS3.encoding_mode == "online"
        assert QFS.default_code_params == (9, 6)

    def test_write_read_roundtrip(self, rng):
        system = QFS(NODES, block_size=1024)
        data = random_payload(rng, 6 * 1024)
        stripes = system.write_file("file", data)
        assert len(stripes) == 1
        assert system.read_block(0, 0) == data[:1024]
        assert len(system.stripes("file")) == 1

    def test_multi_stripe_file(self, rng):
        system = QFS(NODES, block_size=512)
        data = random_payload(rng, 512 * 6 * 2 + 100)
        stripes = system.write_file("big", data)
        assert len(stripes) == 3  # two full stripes plus a padded tail

    def test_degraded_read_returns_lost_data(self, rng):
        system = HDFSRaid(NODES, block_size=2048)
        data = random_payload(rng, 2048 * 10)
        system.write_file("file", data)
        system.fail_block(0, 4)
        recovered = system.degraded_read(0, 4, "node15", slice_size=256)
        assert recovered == data[4 * 2048:5 * 2048]

    def test_repair_block_writes_back(self, rng):
        system = HDFS3(NODES, block_size=1024)
        data = random_payload(rng, 1024 * 6)
        system.write_file("file", data)
        system.fail_block(0, 2)
        system.repair_block(0, 2, "node15", slice_size=128)
        assert system.failed_blocks() == []
        assert system.read_block(0, 2) == data[2 * 1024:3 * 1024]

    def test_fail_node_marks_and_erases(self, rng):
        system = QFS(NODES, block_size=512)
        data = random_payload(rng, 512 * 6)
        system.write_file("file", data)
        victim = system.stripe(0).location(0)
        lost = system.fail_node(victim)
        assert lost == [(0, 0)]
        assert system.failed_blocks() == [(0, 0)]

    def test_repair_schemes_dictionary(self):
        system = QFS(NODES)
        schemes = system.repair_schemes()
        assert set(schemes) == {"qfs", "ecpipe-conventional", "ecpipe-rp"}

    def test_write_requires_nodes(self):
        with pytest.raises(ValueError):
            QFS([])


class TestOriginalRepairTiming:
    def test_original_repair_slower_than_ecpipe_conventional(self, flat_cluster):
        code = RSCode(14, 10)
        stripe = StripeInfo(code, {i: f"node{i}" for i in range(14)})
        request = RepairRequest(stripe, [0], "node16", 8 * MiB, 32 * KiB)
        system = HDFSRaid(NODES)
        original = system.original_repair_scheme().repair_time(request, flat_cluster)
        ecpipe = system.ecpipe_conventional_scheme().repair_time(request, flat_cluster)
        rp = system.ecpipe_pipelining_scheme().repair_time(request, flat_cluster)
        assert rp.makespan < ecpipe.makespan < original.makespan

    def test_connection_overhead_grows_with_k(self, flat_cluster):
        scheme = OriginalStorageRepair(dss_read_overhead=0.0, connection_overhead=0.05)
        times = []
        for n, k in [(9, 6), (16, 12)]:
            code = RSCode(n, k)
            stripe = StripeInfo(code, {i: f"node{i}" for i in range(n)})
            request = RepairRequest(stripe, [0], "node16", 1 * MiB, 32 * KiB)
            times.append(scheme.repair_time(request, flat_cluster).makespan)
        conventional = []
        for n, k in [(9, 6), (16, 12)]:
            code = RSCode(n, k)
            stripe = StripeInfo(code, {i: f"node{i}" for i in range(n)})
            request = RepairRequest(stripe, [0], "node16", 1 * MiB, 32 * KiB)
            from repro.core import ConventionalRepair

            conventional.append(
                ConventionalRepair().repair_time(request, flat_cluster).makespan
            )
        # the gap between original and ECPipe conventional repair widens with k
        assert (times[1] - conventional[1]) > (times[0] - conventional[0])

    def test_invalid_overheads(self):
        with pytest.raises(ValueError):
            OriginalStorageRepair(-1, 0)
        with pytest.raises(ValueError):
            OriginalStorageRepair(0, -1)
