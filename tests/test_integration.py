"""End-to-end integration tests across the whole stack.

These tests exercise the same flows as the examples: write files through a
storage-system facade, inject failures, repair through ECPipe, and check both
the recovered bytes and the simulated timing relationships.
"""

import pathlib
import subprocess
import sys

import pytest

from repro.analysis import mttdl_years
from repro.cluster import KiB, MiB, build_rack_cluster, mbps
from repro.codes import RSCode
from repro.core import (
    ConventionalRepair,
    FullNodeRecovery,
    RepairPipelining,
    RepairRequest,
    StripeInfo,
)
from repro.core.paths import RackAwarePathSelector
from repro.sim import Simulator
from repro.storage import HDFS3, QFS, HDFSRaid, RackAwarePlacement
from repro.workloads import FailureGenerator, random_stripes
from conftest import random_payload

NODES = [f"node{i}" for i in range(16)]


class TestStorageEndToEnd:
    @pytest.mark.parametrize("system_class", [HDFSRaid, HDFS3, QFS])
    def test_write_fail_repair_cycle(self, rng, system_class):
        system = system_class(NODES, block_size=2048)
        payload = random_payload(rng, 2048 * system.code.k)
        system.write_file("data", payload)

        # degraded read of a failed block returns the original bytes
        system.fail_block(0, 1)
        block = system.degraded_read(0, 1, "node15", slice_size=256)
        assert block == payload[2048:4096]

        # repairing writes the block back and clears the failure
        system.repair_block(0, 1, "node15", slice_size=256)
        assert system.failed_blocks() == []
        assert system.read_block(0, 1) == payload[2048:4096]

    def test_node_failure_then_full_recovery(self, rng):
        system = QFS(NODES, block_size=1024)
        payloads = {}
        for index in range(3):
            payload = random_payload(rng, 1024 * 6)
            system.write_file(f"f{index}", payload)
            payloads[index] = payload
        victim = system.stripe(0).location(2)
        lost = system.fail_node(victim)
        assert lost

        recovered = system.ecpipe.recover_node(victim, ["node14", "node15"], 256)
        for (stripe_id, block_index), data in recovered.items():
            expected = system.code.encode(
                [payloads[stripe_id][i * 1024:(i + 1) * 1024] for i in range(6)]
            )[block_index].tobytes()
            assert data == expected

    def test_failure_trace_driven_degraded_reads(self, rng):
        system = HDFSRaid(NODES, code=RSCode(9, 6), block_size=1024)
        payload = random_payload(rng, 1024 * 6)
        system.write_file("hot-object", payload)
        stripes = system.stripes()
        generator = FailureGenerator(stripes, transient_fraction=1.0, seed=13)
        for event in generator.generate(10):
            block = system.degraded_read(
                event.stripe_id, event.block_index, "node15", slice_size=128
            )
            expected = system.code.encode(
                [payload[i * 1024:(i + 1) * 1024] for i in range(6)]
            )[event.block_index].tobytes()
            assert block == expected


class TestRackAwareEndToEnd:
    def test_rack_placement_plus_rack_aware_repair(self):
        cluster = build_rack_cluster(3, 6, mbps(800))
        code = RSCode(9, 6)
        placement = RackAwarePlacement(cluster, blocks_per_rack=3)
        stripe = StripeInfo(code, placement.place(0, code.n))
        requestor = next(
            node.name for node in cluster.nodes()
            if node.name not in stripe.block_locations.values()
        )
        request = RepairRequest(stripe, [0], requestor, 4 * MiB, 64 * KiB)

        conventional = ConventionalRepair().repair_time(request, cluster).makespan
        rack_aware = RepairPipelining(
            "rp", path_selector=RackAwarePathSelector()
        ).repair_time(request, cluster).makespan
        assert rack_aware < conventional * 0.5

    def test_rack_aware_path_minimises_core_traffic(self):
        cluster = build_rack_cluster(3, 6, mbps(400))
        code = RSCode(9, 6)
        placement = RackAwarePlacement(cluster, blocks_per_rack=3)
        stripe = StripeInfo(code, placement.place(0, code.n))
        requestor = next(
            node.name for node in cluster.nodes()
            if node.name not in stripe.block_locations.values()
            and node.rack == cluster.node(stripe.location(0)).rack
        )
        request = RepairRequest(stripe, [0], requestor, 4 * MiB, 64 * KiB)
        rack_ports = {
            port.name for pair in cluster.rack_core_ports().values() for port in pair
        }

        def core_bytes(scheme):
            graph = scheme.build_graph(request, cluster)
            return sum(
                task.size_bytes
                for task in graph.tasks
                if task.kind == "transfer"
                and any(p.name in rack_ports for p in task.ports)
            )

        aware = core_bytes(RepairPipelining("rp", path_selector=RackAwarePathSelector()))
        naive = core_bytes(ConventionalRepair())
        assert aware < naive

    def test_faster_repair_improves_durability(self, flat_cluster, single_repair):
        conventional = ConventionalRepair().repair_time(single_repair, flat_cluster).makespan
        rp = RepairPipelining("rp").repair_time(single_repair, flat_cluster).makespan
        assert mttdl_years(14, 10, 0.25, rp) > mttdl_years(14, 10, 0.25, conventional)


class TestRecoveryConsistency:
    def test_timing_and_data_plane_agree_on_helper_counts(self, flat_cluster, rng):
        """The planner's traffic matches what the data plane actually reads."""
        code = RSCode(9, 6)
        stripe = StripeInfo(code, {i: f"node{i}" for i in range(9)})
        request = RepairRequest(stripe, [4], "node16", 4096, 512)
        graph = RepairPipelining("rp").build_graph(request, flat_cluster)
        planned_reads = graph.total_bytes("disk")

        from repro.ecpipe import ECPipe

        ecpipe = ECPipe([f"node{i}" for i in range(17)])
        data = [random_payload(rng, 4096) for _ in range(6)]
        coded = [b.tobytes() for b in code.encode(data)]
        ecpipe.add_stripe(stripe, dict(enumerate(coded)))
        ecpipe.erase_block(0, 4)
        ecpipe.repair_pipelined(0, [4], "node16", 512)
        actual_reads = sum(
            ecpipe.helper(f"node{i}").bytes_read for i in range(9) if i != 4
        )
        # the data plane additionally probes one block to learn the block size
        assert actual_reads - 4096 <= planned_reads <= actual_reads

    def test_full_node_recovery_simulation_runs_for_every_scheme(self, flat_cluster):
        code = RSCode(9, 6)
        stripes = random_stripes(code, NODES, 6, seed=3, pin_node="node1")
        for scheme in (ConventionalRepair(), RepairPipelining("rp")):
            recovery = FullNodeRecovery(scheme)
            result = recovery.run(
                stripes, "node1", ["node14", "node15"], 2 * MiB, 256 * KiB, flat_cluster
            )
            assert result.num_stripes == 6
            assert result.recovery_rate > 0


class TestExamples:
    def test_quickstart_example_runs(self):
        script = pathlib.Path(__file__).resolve().parent.parent / "examples" / "quickstart.py"
        completed = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=300
        )
        assert completed.returncode == 0, completed.stderr
        assert "repair pipelining cuts the repair time" in completed.stdout
