"""Tests for the continuous cluster runtime (repro.runtime).

Covers the issue's required cases -- deterministic same-seed replay,
repair-queue priority ordering, and the bandwidth-cap contention guarantee
-- plus the dynamic simulator, health state and failure-generator seeding
the runtime relies on.
"""

import math
import random

import pytest

from repro.cluster import MiB, build_flat_cluster
from repro.codes import RSCode
from repro.runtime import (
    ClusterRuntime,
    ClusterState,
    MetricsCollector,
    RepairJob,
    RepairQueue,
    RepairThrottle,
    RuntimeConfig,
    percentile,
)
from repro.runtime.runtime import DAY, make_scheme
from repro.sim import DynamicSimulator, Port, TaskGraph
from repro.workloads import FailureGenerator, random_stripes

NODES = [f"node{i}" for i in range(20)]


def build_runtime(
    scheme="rp",
    cap=None,
    seed=42,
    horizon=2 * DAY,
    foreground_rate=0.01,
    num_stripes=60,
    mean_interarrival=3600.0,
    use_templates=True,
):
    cluster = build_flat_cluster(len(NODES))
    stripes = random_stripes(RSCode(9, 6), NODES, num_stripes, seed=7)
    config = RuntimeConfig(
        horizon_seconds=horizon,
        block_size=2 * MiB,
        slice_size=512 * 1024,
        scheme=scheme,
        mean_failure_interarrival=mean_interarrival,
        foreground_rate=foreground_rate,
        repair_bandwidth_cap=cap,
        seed=seed,
    )
    return ClusterRuntime(cluster, stripes, config, use_templates=use_templates)


class TestDynamicSimulator:
    def test_batches_contend_fifo_on_shared_port(self):
        sim = DynamicSimulator()
        shared = Port("shared", 100.0)
        done = []
        first = TaskGraph()
        a = first.add_task("a", [shared], size_bytes=1000)  # 10 s
        first.add_task("b", [shared], size_bytes=500, deps=[a])  # 5 s
        sim.submit(first, 0.0, on_complete=lambda t: done.append(("first", t)))
        second = TaskGraph()
        second.add_task("c", [shared], size_bytes=200)  # queues behind a
        sim.submit(second, 3.0, on_complete=lambda t: done.append(("second", t)))
        sim.drain()
        # c waits for a (finishes at 10), runs 10-12; b then runs 12-17.
        assert done == [("second", 12.0), ("first", 17.0)]

    def test_submit_in_past_rejected(self):
        sim = DynamicSimulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.submit(TaskGraph(), 5.0)

    def test_resubmitting_pending_task_rejected(self):
        sim = DynamicSimulator()
        graph = TaskGraph()
        graph.add_task("t", [], overhead=1.0)
        sim.submit(graph, 100.0)
        with pytest.raises(ValueError):
            sim.submit(graph, 200.0)

    def test_empty_graph_completes_at_submit_time(self):
        sim = DynamicSimulator()
        done = []
        sim.submit(TaskGraph(), 4.0, on_complete=done.append)
        sim.drain()
        assert done == [4.0]

    def test_completion_callback_can_chain_submissions(self):
        sim = DynamicSimulator()
        port = Port("p", 10.0)
        finishes = []

        def chain(t):
            follow = TaskGraph()
            follow.add_task("second", [port], size_bytes=10)
            sim.submit(follow, t, on_complete=finishes.append)

        graph = TaskGraph()
        graph.add_task("first", [port], size_bytes=10)
        sim.submit(graph, 0.0, on_complete=chain)
        sim.drain()
        assert finishes == [2.0]

    def test_port_stats_accumulate_across_batches(self):
        sim = DynamicSimulator()
        port = Port("p", 10.0)
        for when in (0.0, 100.0):
            graph = TaskGraph()
            graph.add_task("t", [port], size_bytes=50)
            sim.submit(graph, when)
        sim.drain()
        assert port.busy_bytes == 100.0
        assert port.busy_seconds == pytest.approx(10.0)


class TestRepairQueue:
    def test_higher_risk_pops_first(self):
        queue = RepairQueue()
        queue.push(RepairJob(1, 0, 0.0, 0.0, risk=1))
        queue.push(RepairJob(2, 0, 1.0, 1.0, risk=3))
        queue.push(RepairJob(3, 0, 2.0, 2.0, risk=2))
        assert [queue.pop().stripe_id for _ in range(3)] == [2, 3, 1]

    def test_fifo_within_risk_level(self):
        queue = RepairQueue()
        for sid in range(5):
            queue.push(RepairJob(sid, 0, float(sid), float(sid), risk=1))
        assert [queue.pop().stripe_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_reprioritise_jumps_ahead(self):
        queue = RepairQueue()
        queue.push(RepairJob(1, 0, 0.0, 0.0, risk=1))
        queue.push(RepairJob(2, 0, 1.0, 1.0, risk=1))
        assert queue.reprioritise(2, 2) == 1
        assert queue.pop().stripe_id == 2
        assert queue.pop().stripe_id == 1
        assert queue.pop() is None

    def test_reprioritise_never_demotes(self):
        queue = RepairQueue()
        queue.push(RepairJob(1, 0, 0.0, 0.0, risk=3))
        assert queue.reprioritise(1, 1) == 0
        assert queue.pop().risk == 3

    def test_duplicate_block_rejected(self):
        queue = RepairQueue()
        queue.push(RepairJob(1, 4, 0.0, 0.0))
        with pytest.raises(ValueError):
            queue.push(RepairJob(1, 4, 5.0, 5.0))

    def test_discard_stripe_drops_all_its_jobs(self):
        queue = RepairQueue()
        queue.push(RepairJob(1, 0, 0.0, 0.0, risk=2))
        queue.push(RepairJob(1, 3, 0.0, 0.0, risk=2))
        queue.push(RepairJob(2, 0, 0.0, 0.0, risk=1))
        assert queue.discard_stripe(1) == 2
        assert queue.depth() == 1
        assert queue.pop().stripe_id == 2


class TestClusterState:
    def test_transient_restore_token_cannot_undo_node_death(self):
        stripes = random_stripes(RSCode(9, 6), NODES, 2, seed=3)
        state = ClusterState(stripes, NODES)
        token = state.fail_block(0, 1, "transient", 10.0)
        state.fail_block(0, 1, "permanent", 20.0)  # node died meanwhile
        assert not state.heal_block(0, 1, token)
        assert state.failed_blocks(0) == [1]
        assert state.permanently_failed_blocks(0) == [1]
        assert state.heal_block(0, 1)  # the repair itself heals
        assert state.failed_blocks(0) == []

    def test_at_risk_tracks_fault_tolerance(self):
        stripes = random_stripes(RSCode(9, 6), NODES, 1, seed=3)
        state = ClusterState(stripes, NODES)
        for block in range(3):
            assert not state.is_lost(0)
            state.fail_block(0, block, "permanent", 0.0)
        assert state.at_risk(0)


class TestRuntimeReplay:
    def test_same_seed_identical_metrics(self):
        first = build_runtime(seed=11).run()
        second = build_runtime(seed=11).run()
        assert first.summary == second.summary
        assert first.final_time == second.final_time
        assert first.tasks_completed == second.tasks_completed

    def test_different_seed_different_trace(self):
        first = build_runtime(seed=11).run()
        second = build_runtime(seed=12).run()
        assert first.summary != second.summary

    def test_repairs_happen_and_feed_mttdl(self):
        report = build_runtime(seed=11).run()
        assert report.summary["blocks_repaired"] > 0
        assert report.summary["mttr_mean_seconds"] > 0
        assert report.summary["mttdl_years"] > 0
        assert report.summary["data_loss_events"] == 0

    def test_foreground_reads_served(self):
        report = build_runtime(seed=11).run()
        assert report.summary["normal_reads"] > 0
        assert report.summary["normal_read_p99_seconds"] > 0


class TestTemplateCounters:
    """What the run's caches did, in exact integers (no clock involved)."""

    def test_two_read_templates_serve_every_normal_read(self):
        report = build_runtime(seed=11).run()
        perf = report.perf
        # One template per read shape: source != client, source == client.
        assert 1 <= perf["read_template_misses"] <= 2
        assert (
            perf["read_template_hits"] + perf["read_template_misses"]
            == report.summary["normal_reads"]
        )
        # Repairs and degraded reads are counted apart from normal reads.
        assert perf["graph_template_hits"] > perf["graph_template_misses"] > 0
        assert perf["graph_template_entries"] <= perf["graph_template_misses"]
        assert perf["plan_cache_hits"] > 0

    def test_templates_off_is_the_same_run_compiled_every_time(self):
        templated = build_runtime(seed=11).run()
        compiled = build_runtime(seed=11, use_templates=False).run()
        assert compiled.to_dict() == templated.to_dict()
        template_counters = {
            key: value for key, value in compiled.perf.items() if "template" in key
        }
        assert len(template_counters) == 5
        assert set(template_counters.values()) == {0.0}


class TestForegroundDistributions:
    def test_zipf_concentrates_on_hot_stripes(self):
        from repro.runtime import ForegroundWorkload

        uniform = ForegroundWorkload(
            num_stripes=100,
            blocks_per_stripe=9,
            clients=NODES,
            rate_per_sec=0.5,
            rng=random.Random(3),
        )
        zipf = ForegroundWorkload(
            num_stripes=100,
            blocks_per_stripe=9,
            clients=NODES,
            rate_per_sec=0.5,
            rng=random.Random(3),
            distribution="zipf",
            zipf_alpha=1.2,
        )
        horizon = 5 * DAY
        uniform_hot = sum(1 for op in uniform.arrivals(horizon) if op.stripe_pos < 10)
        zipf_ops = zipf.arrivals(horizon)
        zipf_hot = sum(1 for op in zipf_ops if op.stripe_pos < 10)
        # The hottest 10% of stripes draw far more than 10% of a Zipf mix.
        assert zipf_hot > 2 * uniform_hot
        assert zipf_hot > 0.4 * len(zipf_ops)
        assert all(0 <= op.stripe_pos < 100 for op in zipf_ops)

    def test_zipf_validation(self):
        from repro.runtime import ForegroundWorkload

        with pytest.raises(ValueError):
            ForegroundWorkload(10, 9, NODES, 0.1, distribution="pareto")
        with pytest.raises(ValueError):
            ForegroundWorkload(10, 9, NODES, 0.1, distribution="zipf", zipf_alpha=0)

    def test_zipf_runtime_replays_identically(self):
        def run():
            cluster = build_flat_cluster(len(NODES))
            stripes = random_stripes(RSCode(9, 6), NODES, 60, seed=7)
            config = RuntimeConfig(
                horizon_seconds=DAY,
                block_size=2 * MiB,
                slice_size=512 * 1024,
                foreground_rate=0.02,
                read_distribution="zipf",
                zipf_alpha=1.1,
                seed=21,
            )
            return ClusterRuntime(cluster, stripes, config).run()

        import json

        # JSON form: NaN-tolerant comparison of the serialised metrics.
        assert json.dumps(run().to_dict(), sort_keys=True) == json.dumps(
            run().to_dict(), sort_keys=True
        )


class TestRackBurstRuntime:
    def test_rack_burst_config_requires_racks(self):
        with pytest.raises(ValueError, match="racks"):
            RuntimeConfig(horizon_seconds=DAY, failure_model="rack_burst")
        with pytest.raises(ValueError):
            RuntimeConfig(horizon_seconds=DAY, failure_model="correlated")

    def test_rack_burst_runtime_runs_and_replays(self):
        racks = tuple(
            tuple(NODES[i * 5 : (i + 1) * 5]) for i in range(4)
        )

        def run():
            cluster = build_flat_cluster(len(NODES))
            stripes = random_stripes(RSCode(9, 6), NODES, 60, seed=7)
            config = RuntimeConfig(
                horizon_seconds=2 * DAY,
                block_size=2 * MiB,
                slice_size=512 * 1024,
                failure_model="rack_burst",
                racks=racks,
                burst_mean_interarrival=6 * 3600.0,
                burst_size_mean=2.0,
                foreground_rate=0.01,
                seed=23,
            )
            return ClusterRuntime(cluster, stripes, config).run()

        first = run()
        assert first.summary["node_failures"] > 0
        assert first.summary["blocks_repaired"] > 0
        import json

        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            run().to_dict(), sort_keys=True
        )


class TestThrottleContention:
    def test_repair_egress_never_exceeds_cap(self):
        cap = 20e6
        runtime = build_runtime(cap=cap, mean_interarrival=1800.0)
        report = runtime.run()
        assert report.summary["blocks_repaired"] > 0
        ports = runtime.throttle.ports()
        assert ports, "throttle ports should have been created"
        for port in ports:
            # The throttle port serves one repair transfer at a time at the
            # cap rate, so bytes served can never exceed cap * busy time --
            # i.e. repair egress from the node never exceeds the cap over
            # any window it is active.
            assert port.busy_bytes <= cap * port.busy_seconds + 1e-6
            assert port.busy_seconds <= report.final_time

    def test_throttling_slows_repairs_not_correctness(self):
        unthrottled = build_runtime(seed=9, mean_interarrival=1800.0).run()
        throttled = build_runtime(seed=9, cap=5e6, mean_interarrival=1800.0).run()
        assert throttled.summary["blocks_repaired"] == unthrottled.summary["blocks_repaired"]
        assert (
            throttled.summary["mttr_mean_seconds"]
            > unthrottled.summary["mttr_mean_seconds"]
        )

    def test_throttle_untouched_graph_without_cap(self):
        cluster = build_flat_cluster(3)
        throttle = RepairThrottle(cluster, None)
        graph = TaskGraph()
        graph.add_task("send", cluster.transfer_ports("node0", "node1"), 100, kind="transfer")
        throttle.apply(graph)
        assert len(graph.tasks[0].ports) == 2
        assert throttle.ports() == []

    def test_throttle_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            RepairThrottle(build_flat_cluster(2), 0)


class TestCoordinatorOutages:
    def test_plan_repair_lrc_falls_back_when_local_helper_down(self):
        from repro.codes import LRCCode
        from repro.ecpipe import Coordinator
        from repro.core import StripeInfo

        code = LRCCode(4, 2, 2)  # n=8; block 0 repairs locally from {1, 4}
        stripe = StripeInfo(code, {i: f"node{i}" for i in range(8)})
        coordinator = Coordinator()
        coordinator.register_stripe(stripe)
        local = code.repair_plan([0]).helpers
        # With a local-group helper's node dead, the plan must not use it.
        request, path = coordinator.plan_repair(
            0, [0], ["node9"], 1024, 256, exclude_nodes=[f"node{local[0]}"]
        )
        assert local[0] not in path
        # Same for a transiently unreadable local helper.
        request, path = coordinator.plan_repair(
            0, [0], ["node9"], 1024, 256, unavailable=[local[1]]
        )
        assert local[1] not in path

    def test_runtime_runs_lrc_stripes(self):
        from repro.codes import LRCCode

        cluster = build_flat_cluster(len(NODES))
        stripes = random_stripes(LRCCode(4, 2, 2), NODES, 30, seed=7)
        config = RuntimeConfig(
            horizon_seconds=2 * DAY,
            block_size=1 * MiB,
            slice_size=256 * 1024,
            scheme="rp",
            mean_failure_interarrival=1800.0,
            foreground_rate=0.01,
            seed=5,
        )
        report = ClusterRuntime(cluster, stripes, config).run()
        assert report.summary["blocks_repaired"] > 0


class TestSchemeComparison:
    def test_pipelining_beats_conventional_degraded_tail(self):
        results = {}
        for scheme in ("conventional", "rp"):
            report = build_runtime(scheme=scheme, seed=21, foreground_rate=0.02).run()
            results[scheme] = report.summary
        assert results["rp"]["degraded_reads"] == results["conventional"]["degraded_reads"]
        if results["rp"]["degraded_reads"] > 0:
            assert (
                results["rp"]["degraded_read_p99_seconds"]
                < results["conventional"]["degraded_read_p99_seconds"]
            )

    def test_make_scheme_names(self):
        assert make_scheme("conventional").name == "conventional"
        assert make_scheme("rp").name == "repair-pipelining"
        with pytest.raises(ValueError):
            make_scheme("bogus")


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.5) == 2.0
        assert percentile(samples, 0.99) == 4.0
        assert math.isnan(percentile([], 0.5))

    def test_mean_queue_depth_time_weighted(self):
        metrics = MetricsCollector()
        metrics.record_queue_depth(0.0, 2)
        metrics.record_queue_depth(5.0, 0)
        assert metrics.mean_queue_depth(10.0) == pytest.approx(1.0)


class TestFailureGeneratorSeeding:
    def test_explicit_rng_replays(self):
        stripes = random_stripes(RSCode(9, 6), NODES, 4, seed=3)
        first = FailureGenerator(stripes, rng=random.Random(5)).generate_until(3600.0)
        second = FailureGenerator(stripes, rng=random.Random(5)).generate_until(3600.0)
        assert first == second
        assert all(e.time < 3600.0 for e in first)

    def test_rng_overrides_seed(self):
        stripes = random_stripes(RSCode(9, 6), NODES, 4, seed=3)
        a = FailureGenerator(stripes, seed=1, rng=random.Random(5)).generate(10)
        b = FailureGenerator(stripes, seed=2, rng=random.Random(5)).generate(10)
        assert a == b

    def test_transient_durations_sampled_when_configured(self):
        stripes = random_stripes(RSCode(9, 6), NODES, 4, seed=3)
        events = FailureGenerator(
            stripes, transient_fraction=1.0, seed=5, transient_duration_mean=60.0
        ).generate(20)
        assert all(e.duration is not None and e.duration > 0 for e in events)
        legacy = FailureGenerator(stripes, transient_fraction=1.0, seed=5).generate(20)
        assert all(e.duration is None for e in legacy)

