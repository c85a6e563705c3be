"""The observability plane: metrics primitives, exposition, tracing, logging.

Three layers under test:

* unit -- :mod:`repro.obs.metrics` (thread-safe families, Prometheus text
  exposition pinned by a golden snapshot, the shared ``bucket_quantile``
  estimator), :mod:`repro.obs.trace` (context propagation, span logs, tree
  validation, waterfall rendering) and :mod:`repro.obs.logging`;
* exporter -- the plain-HTTP ``/metrics`` listener;
* integration -- a *process-mode* deployment: PUT, kill a helper, and the
  self-healing repair must leave a connected trace whose chain hops run in
  pipeline order.
"""

from __future__ import annotations

import asyncio
import io
import json
import math
import threading
from pathlib import Path

import pytest

from repro.obs.exporter import MetricsHTTPServer
from repro.obs.logging import StructuredLogger
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    bucket_quantile,
    counter_samples,
    diff_samples,
    format_value,
    parse_exposition,
    regressed_samples,
)
from repro.obs.trace import (
    SpanRecorder,
    SpanTimer,
    TraceContext,
    assemble_tree,
    child_header,
    read_spans,
    render_waterfall,
    reset_current,
    set_current,
    trace_ids,
    validate_trace,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_metrics.txt"


def run(coro):
    return asyncio.run(coro)


# ------------------------------------------------------------------ families
class TestCounter:
    def test_unlabelled_counts_from_zero(self):
        counter = MetricsRegistry().counter("ops_total", "Ops.")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_negative_increment_is_refused(self):
        counter = MetricsRegistry().counter("ops_total", "Ops.")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_labelled_counts_per_label_set(self):
        counter = MetricsRegistry().counter("ops_total", "Ops.", labels=("op",))
        counter.inc(op="GET")
        counter.inc(op="GET")
        counter.inc(op="PUT")
        assert counter.value(op="GET") == 2.0
        assert counter.value(op="DELETE") == 0.0
        assert counter.items() == [(("GET",), 2.0), (("PUT",), 1.0)]

    def test_wrong_label_names_are_refused(self):
        counter = MetricsRegistry().counter("ops_total", "Ops.", labels=("op",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(verb="GET")
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth", "Depth.")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 3.0

    def test_clear_forgets_label_sets_but_keeps_the_scalar(self):
        registry = MetricsRegistry()
        labelled = registry.gauge("phi", "Phi.", labels=("node",))
        labelled.set(1.5, node="n0")
        labelled.clear()
        assert labelled.samples() == []
        scalar = registry.gauge("depth", "Depth.")
        scalar.set(7)
        scalar.clear()
        assert scalar.value() == 0.0
        assert scalar.samples() == [("depth", 0.0)]


class TestHistogram:
    def test_observations_land_in_the_first_fitting_bucket(self):
        histogram = MetricsRegistry().histogram(
            "lat", "Latency.", buckets=(0.1, 1.0)
        )
        assert histogram.bounds == (0.1, 1.0, math.inf)
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.counts() == (1, 2, 1)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(6.05)

    def test_buckets_are_sorted_and_inf_terminated(self):
        histogram = MetricsRegistry().histogram(
            "lat", "Latency.", buckets=(5.0, 1.0, math.inf)
        )
        assert histogram.bounds == (1.0, 5.0, math.inf)

    def test_empty_bucket_list_is_refused(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            MetricsRegistry().histogram("lat", "Latency.", buckets=())

    def test_samples_are_cumulative_with_sum_and_count(self):
        histogram = MetricsRegistry().histogram(
            "lat", "Latency.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        samples = dict(histogram.samples())
        assert samples['lat_bucket{le="0.1"}'] == 1.0
        assert samples['lat_bucket{le="1"}'] == 2.0
        assert samples['lat_bucket{le="+Inf"}'] == 2.0
        assert samples["lat_count"] == 2.0
        assert samples["lat_sum"] == pytest.approx(0.55)

    def test_quantile_uses_the_shared_estimator(self):
        histogram = MetricsRegistry().histogram(
            "lat", "Latency.", buckets=(1.0, 2.0)
        )
        for value in (0.5, 0.5, 1.5, 1.5):
            histogram.observe(value)
        assert histogram.quantile(0.5) == bucket_quantile(
            histogram.bounds, histogram.counts(), 0.5
        )


# ------------------------------------------------------------ bucket_quantile
class TestBucketQuantile:
    def test_empty_counts_estimate_zero(self):
        assert bucket_quantile((1.0, math.inf), (0, 0), 0.99) == 0.0

    def test_linear_interpolation_within_a_bucket(self):
        # 10 observations, all in (1.0, 2.0]: p50 sits mid-bucket.
        bounds = (1.0, 2.0, math.inf)
        counts = (0, 10, 0)
        assert bucket_quantile(bounds, counts, 0.5) == pytest.approx(1.5)
        assert bucket_quantile(bounds, counts, 1.0) == pytest.approx(2.0)

    def test_inf_bucket_clamps_to_the_last_finite_bound(self):
        bounds = (1.0, math.inf)
        counts = (1, 9)
        assert bucket_quantile(bounds, counts, 0.99) == 1.0

    def test_fraction_must_be_in_zero_one(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                bucket_quantile((1.0,), (1,), bad)

    def test_agrees_with_the_load_report(self):
        # The satellite contract: bench percentiles and live histogram
        # percentiles come from the same math on the same buckets.
        from repro.service.loadgen import LoadReport

        latencies = (0.0004, 0.002, 0.03, 0.03, 0.2, 1.7)
        report = LoadReport(
            operations=len(latencies),
            errors=0,
            degraded_reads=0,
            wall_seconds=1.0,
            latencies=latencies,
        )
        histogram = MetricsRegistry().histogram("lat", "Latency.")
        for value in latencies:
            histogram.observe(value)
        for fraction in (0.5, 0.95, 0.99):
            assert report.latency_percentile(fraction) == pytest.approx(
                histogram.quantile(fraction)
            )


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_reregistering_the_same_shape_returns_the_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("ops_total", "Ops.", labels=("op",))
        second = registry.counter("ops_total", "Other help.", labels=("op",))
        assert first is second

    def test_shape_conflicts_are_refused(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "Ops.", labels=("op",))
        with pytest.raises(ValueError, match="different shape"):
            registry.counter("ops_total", "Ops.", labels=("verb",))
        with pytest.raises(ValueError, match="different shape"):
            registry.gauge("ops_total", "Ops.", labels=("op",))

    def test_constant_labels_render_first(self):
        registry = MetricsRegistry(constant_labels={"role": "gateway", "node": "g0"})
        counter = registry.counter("ops_total", "Ops.", labels=("op",))
        counter.inc(op="GET")
        assert (
            'ops_total{node="g0",role="gateway",op="GET"} 1'
            in registry.render()
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("errs_total", "Errors.", labels=("reason",))
        counter.inc(reason='quote " slash \\ newline \n end')
        rendered = registry.render()
        assert '\\"' in rendered and "\\\\" in rendered and "\\n" in rendered
        assert "\n end" not in rendered.splitlines()[-1]

    def test_snapshot_diff_and_regression(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "Ops.")
        before = registry.snapshot()
        counter.inc(3)
        after = registry.snapshot()
        assert diff_samples(before, after) == {"ops_total": 3.0}
        assert regressed_samples(before, after) == []
        assert regressed_samples(after, before) == ["ops_total"]

    def test_counter_samples_skips_gauges_both_ways(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "Ops.").inc()
        registry.gauge("depth", "Depth.").set(9)
        registry.histogram("lat", "Latency.", buckets=(1.0,)).observe(0.5)
        from_registry = counter_samples(registry)
        from_text = counter_samples(registry.render())
        assert from_registry == from_text
        assert "ops_total" in from_registry
        assert "depth" not in from_registry
        assert from_registry['lat_bucket{le="+Inf"}'] == 1.0

    def test_parse_exposition_handles_inf_and_garbage(self):
        text = (
            "# HELP lat Latency.\n"
            "# TYPE lat histogram\n"
            'lat_bucket{le="+Inf"} 3\n'
            "lat_sum 0.5\n"
            "not a sample line at all\n"
            "lat_count notanumber\n"
        )
        samples = parse_exposition(text)
        assert samples['lat_bucket{le="+Inf"}'] == 3.0
        assert samples["lat_sum"] == 0.5
        assert "lat_count" not in samples

    def test_format_value_edge_cases(self):
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(float("nan")) == "NaN"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""


class TestGoldenExposition:
    """The exposition format is pinned byte for byte.

    A drift here is a contract change for every scraper (Prometheus, the
    smoke job's monotonicity check, the chaos report differ); regenerate
    the snapshot only on purpose, never to make the test pass.
    """

    @staticmethod
    def build_registry() -> MetricsRegistry:
        registry = MetricsRegistry(constant_labels={"role": "gateway"})
        puts = registry.counter("gateway_puts_total", "Objects stored.")
        puts.inc(2)
        frames = registry.counter("frames_total", "Frames served.", labels=("op",))
        frames.inc(3, op="PUT")
        frames.inc(op="GET")
        depth = registry.gauge("gateway_put_fanout_inflight", "In-flight writes.")
        depth.set(1.5)
        encode = registry.histogram(
            "gateway_encode_seconds", "Encode time.", buckets=(0.01, 0.1, 1.0)
        )
        encode.observe(0.005)
        encode.observe(0.05)
        encode.observe(5.0)
        return registry

    def test_render_matches_the_committed_snapshot(self):
        rendered = self.build_registry().render()
        assert rendered == GOLDEN_PATH.read_text()

    def test_snapshot_round_trips_through_the_parser(self):
        registry = self.build_registry()
        parsed = parse_exposition(registry.render())
        assert parsed == registry.snapshot()


class TestConcurrency:
    def test_parallel_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "Ops.", labels=("worker",))
        histogram = registry.histogram("lat", "Latency.", buckets=(0.5,))
        gauge = registry.gauge("depth", "Depth.")
        threads, iterations = 8, 500

        def worker(index: int) -> None:
            for i in range(iterations):
                counter.inc(worker=str(index % 2))
                histogram.observe((i % 10) / 10.0)
                gauge.inc()
                gauge.dec()

        pool = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = threads * iterations
        assert counter.value(worker="0") + counter.value(worker="1") == total
        assert histogram.count() == total
        assert gauge.value() == 0.0

    def test_render_while_mutating_never_tears(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "Ops.")
        stop = threading.Event()

        def mutate() -> None:
            while not stop.is_set():
                counter.inc()

        thread = threading.Thread(target=mutate)
        thread.start()
        try:
            for _ in range(200):
                parsed = parse_exposition(registry.render())
                assert set(parsed) == {"ops_total"}
        finally:
            stop.set()
            thread.join()


# ------------------------------------------------------------------- tracing
class TestTraceContext:
    def test_child_shares_the_trace_and_chains_parents(self):
        root = TraceContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_header_round_trip(self):
        root = TraceContext.root()
        header = {"trace": root.child_header()}
        restored = TraceContext.from_header(header)
        assert restored.trace_id == root.trace_id
        assert restored.parent_id == root.span_id

    @pytest.mark.parametrize(
        "header",
        [
            None,
            {},
            {"trace": "not-a-mapping"},
            {"trace": {"trace_id": "abc"}},
            {"trace": {"trace_id": "", "span_id": "x"}},
            {"trace": {"trace_id": 7, "span_id": "x"}},
        ],
    )
    def test_garbled_headers_yield_none(self, header):
        assert TraceContext.from_header(header) is None

    def test_non_string_parent_is_dropped_not_fatal(self):
        ctx = TraceContext.from_header(
            {"trace": {"trace_id": "t", "span_id": "s", "parent_id": 9}}
        )
        assert ctx.parent_id == ""

    def test_child_header_helper_reads_the_context_var(self):
        assert child_header() == {}
        token = set_current(TraceContext.root())
        try:
            header = child_header()
            assert "trace" in header and header["trace"]["parent_id"]
        finally:
            reset_current(token)


class TestSpanRecorder:
    def test_records_to_jsonl_and_memory(self, tmp_path):
        recorder = SpanRecorder("helper", node="n1", directory=str(tmp_path))
        ctx = TraceContext.root()
        span = recorder.record(ctx, "CHAIN", start=1.0, duration=0.5, nbytes=64)
        assert span["role"] == "helper" and span["node"] == "n1"
        assert recorder.spans(ctx.trace_id) == [span]
        assert recorder.spans("other") == []
        on_disk = read_spans(str(tmp_path))
        assert on_disk == [span]
        assert recorder.path.name == "spans-helper-n1.jsonl"

    def test_no_directory_means_memory_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        recorder = SpanRecorder("gateway")
        assert recorder.path is None
        recorder.record(TraceContext.root(), "PUT", start=0.0, duration=0.1)
        assert len(recorder.spans()) == 1

    def test_directory_defaults_to_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        recorder = SpanRecorder("coordinator")
        recorder.record(TraceContext.root(), "LOCATE", start=0.0, duration=0.1)
        assert len(read_spans(str(tmp_path))) == 1

    def test_torn_tail_lines_are_skipped(self, tmp_path):
        recorder = SpanRecorder("helper", directory=str(tmp_path))
        recorder.record(TraceContext.root(), "CHAIN", start=1.0, duration=0.5)
        with open(recorder.path, "a", encoding="utf-8") as fh:
            fh.write('{"trace_id": "torn mid-wri')
        spans = read_spans(str(tmp_path))
        assert len(spans) == 1 and spans[0]["op"] == "CHAIN"

    def test_read_spans_of_a_missing_directory_is_empty(self, tmp_path):
        assert read_spans(str(tmp_path / "never-created")) == []

    def test_span_timer_records_duration_and_errors(self, tmp_path):
        recorder = SpanRecorder("helper", directory=str(tmp_path))
        ctx = TraceContext.root()
        with SpanTimer(recorder, ctx, "CHAIN", nbytes=10, position=2) as timer:
            pass
        assert timer.span["position"] == 2 and timer.span["bytes"] == 10
        with pytest.raises(RuntimeError):
            with SpanTimer(recorder, ctx, "CHAIN") as failed:
                raise RuntimeError("boom")
        assert failed.span["error"] == "RuntimeError"
        # A timer with no recorder or context records nothing and stays silent.
        with SpanTimer(None, ctx, "CHAIN"):
            pass
        with SpanTimer(recorder, None, "CHAIN") as silent:
            pass
        assert silent.span is None


def _synthetic_trace():
    """gateway REPAIR -> coordinator PLAN + helper chain of three hops."""
    root = TraceContext.root()
    plan = root.child()
    hops = [root.child()]
    for _ in range(2):
        hops.append(hops[-1].child())
    spans = [
        {
            "trace_id": root.trace_id,
            "span_id": root.span_id,
            "parent_id": "",
            "role": "gateway",
            "node": "",
            "op": "REPAIR",
            "start": 10.0,
            "duration": 1.0,
            "bytes": 0,
        },
        {
            "trace_id": root.trace_id,
            "span_id": plan.span_id,
            "parent_id": plan.parent_id,
            "role": "coordinator",
            "node": "",
            "op": "PLAN_REPAIR",
            "start": 10.01,
            "duration": 0.02,
            "bytes": 0,
        },
    ]
    for position, hop in enumerate(hops):
        spans.append(
            {
                "trace_id": root.trace_id,
                "span_id": hop.span_id,
                "parent_id": hop.parent_id,
                "role": "helper",
                "node": f"n{position}",
                "op": "CHAIN",
                "start": 10.05 + position * 0.01,
                "duration": 0.8,
                "bytes": 2048,
                "position": position,
            }
        )
    return spans


class TestTraceAnalysis:
    def test_trace_ids_reports_roots_oldest_first(self):
        first = _synthetic_trace()
        second = _synthetic_trace()
        for span in second:
            span["start"] += 100.0
        listing = trace_ids(second + first)
        assert [entry[0] for entry in listing] == [
            first[0]["trace_id"],
            second[0]["trace_id"],
        ]
        assert listing[0][1] == "REPAIR"

    def test_assemble_tree_orders_depth_first(self):
        tree = assemble_tree(_synthetic_trace())
        assert [span["depth"] for span in tree] == [0, 1, 1, 2, 3]
        assert tree[0]["op"] == "REPAIR"
        assert [s["op"] for s in tree[2:]] == ["CHAIN", "CHAIN", "CHAIN"]

    def test_orphans_surface_as_extra_roots(self):
        spans = _synthetic_trace()
        spans[1]["parent_id"] = "missing-span"
        tree = assemble_tree(spans)
        assert sum(1 for span in tree if span["depth"] == 0) == 2

    def test_validate_accepts_the_healthy_trace(self):
        assert validate_trace(_synthetic_trace()) == []

    def test_validate_flags_structural_problems(self):
        assert validate_trace([]) == ["no spans"]
        orphaned = _synthetic_trace()
        orphaned[1]["parent_id"] = "missing-span"
        assert any("orphaned" in p for p in validate_trace(orphaned))
        two_roots = _synthetic_trace()
        two_roots[1]["parent_id"] = ""
        assert any("1 root span" in p for p in validate_trace(two_roots))
        skewed = _synthetic_trace()
        skewed[2]["start"] = 5.0  # child a full 5s before its parent
        assert any("before its parent" in p for p in validate_trace(skewed))

    def test_render_waterfall_shows_every_hop(self):
        text = render_waterfall(_synthetic_trace())
        lines = text.splitlines()
        assert "window" in lines[0]
        assert sum(1 for line in lines if "CHAIN" in line) == 3
        assert all("|" in line for line in lines[1:])
        assert "2.0 KiB" in text
        assert render_waterfall([]) == "(no spans)"


# ------------------------------------------------------------------- logging
class TestStructuredLogger:
    def test_line_shape_and_quoting(self):
        stream = io.StringIO()
        logger = StructuredLogger("gateway", node="g0", stream=stream)
        line = logger.warning(
            "dropped_connection", peer="127.0.0.1:1", reason="bad header here"
        )
        assert line.startswith("ts=") and line in stream.getvalue()
        assert "level=warning" in line
        assert "role=gateway" in line and "node=g0" in line
        assert 'reason="bad header here"' in line  # spaces force quoting
        assert "peer=127.0.0.1:1" in line  # plain values stay bare

    def test_levels_and_sorted_fields(self):
        stream = io.StringIO()
        logger = StructuredLogger("helper", stream=stream)
        line = logger.info("event", zebra=1, alpha=2)
        assert line.index("alpha=2") < line.index("zebra=1")
        assert "level=info" in line and "node=" not in line
        assert "level=error" in logger.error("event")

    def test_closed_stream_never_raises(self):
        stream = io.StringIO()
        stream.close()
        logger = StructuredLogger("helper", stream=stream)
        assert "event=oops" in logger.error("oops")


# ------------------------------------------------------------------ exporter
class TestMetricsHTTPServer:
    @staticmethod
    async def _fetch(port, raw_request):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw_request)
        await writer.drain()
        response = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        return response.decode("utf-8", "replace")

    def test_get_serves_the_exposition(self):
        async def scenario():
            registry = MetricsRegistry()
            registry.counter("ops_total", "Ops.").inc(4)
            server = MetricsHTTPServer(registry)
            await server.start()
            try:
                response = await self._fetch(
                    server.port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
            finally:
                await server.stop()
            return response

        response = run(scenario())
        head, _, body = response.partition("\r\n\r\n")
        assert "200 OK" in head and "version=0.0.4" in head
        assert parse_exposition(body)["ops_total"] == 4.0

    def test_refresh_runs_before_each_render(self):
        async def scenario():
            registry = MetricsRegistry()
            gauge = registry.gauge("depth", "Depth.")
            calls = []

            async def refresh():
                calls.append(1)
                gauge.set(len(calls))

            server = MetricsHTTPServer(registry, refresh=refresh)
            await server.start()
            try:
                for _ in range(2):
                    await self._fetch(
                        server.port, b"GET /metrics HTTP/1.1\r\n\r\n"
                    )
            finally:
                await server.stop()
            return calls, gauge.value()

        calls, depth = run(scenario())
        assert len(calls) == 2 and depth == 2.0

    def test_errors_head_and_unknown_paths(self):
        async def scenario():
            server = MetricsHTTPServer(MetricsRegistry())
            await server.start()
            try:
                missing = await self._fetch(
                    server.port, b"GET /other HTTP/1.1\r\n\r\n"
                )
                posted = await self._fetch(
                    server.port, b"POST /metrics HTTP/1.1\r\n\r\n"
                )
                head = await self._fetch(
                    server.port, b"HEAD /metrics HTTP/1.1\r\n\r\n"
                )
                garbled = await self._fetch(server.port, b"\r\n\r\n")
            finally:
                await server.stop()
            return missing, posted, head, garbled

        missing, posted, head, garbled = run(scenario())
        assert "404" in missing
        assert "405" in posted
        assert "200 OK" in head and head.endswith("\r\n\r\n")  # no body
        assert "405" in garbled or "400" in garbled

    def test_stop_twice_is_idempotent(self):
        async def scenario():
            server = MetricsHTTPServer(MetricsRegistry())
            await server.start()
            await server.stop()
            await server.stop()

        run(scenario())


# --------------------------------------------------------------- integration
class TestProcessModeRepairTrace:
    """The acceptance scenario, on real OS processes.

    PUT an object, SIGKILL the helper holding one of its blocks, and the
    control plane alone (heartbeat detector + repair scanner) must restore
    redundancy -- leaving a REPAIR trace that is one connected tree whose
    chain hops start in pipeline order across three processes.
    """

    N, K = 4, 2
    HELPERS = 5
    DEADLINE = 60.0

    def test_kill_helper_auto_repair_leaves_a_connected_trace(
        self, tmp_path, monkeypatch
    ):
        from repro.cluster import DeploymentSpec
        from repro.ecpipe.coordinator import block_key
        from repro.service import LocalDeployment, ServiceClient
        from repro.service.protocol import Op, request

        # Compress the detection/scan cadence so the run stays ~seconds;
        # the child processes inherit the environment.
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.1")
        monkeypatch.setenv("REPRO_SCAN_INTERVAL", "0.2")
        monkeypatch.setenv("REPRO_SCANNER_GRACE", "0.2")

        trace_dir = tmp_path / "traces"
        deployment = LocalDeployment(
            spec=DeploymentSpec(
                helpers={f"node{i}": ("127.0.0.1", 0) for i in range(self.HELPERS)}
            ),
            store_path=str(tmp_path / "meta.db"),
            scan=True,
            trace_dir=str(trace_dir),
        )

        async def all_blocks_present(coordinator):
            # LOCATE may still point at the dead helper until the scanner
            # re-places the block; a refused probe means "not yet".
            for index in range(self.N):
                try:
                    locate = await request(
                        *coordinator,
                        Op.LOCATE,
                        {"stripe_id": 1, "block": index},
                        timeout=5.0,
                    )
                    probe = await request(
                        *locate.header["address"],
                        Op.HAS_BLOCK,
                        {"key": block_key(1, index)},
                        timeout=5.0,
                    )
                except (ConnectionError, OSError):
                    return False
                if not probe.header.get("present"):
                    return False
            return True

        async def scenario():
            client = ServiceClient(deployment.gateway_address)
            payload = bytes(range(256)) * 512 * self.K
            await client.put(
                1, payload, {"family": "rs", "n": self.N, "k": self.K}
            )
            # Kill the helper the gateway placed block 0 on.
            coordinator = deployment.coordinator_address
            locate = await request(
                *coordinator, Op.LOCATE, {"stripe_id": 1, "block": 0}
            )
            victim = locate.header["node"]
            await deployment.crash_role("helper", victim)
            deadline = asyncio.get_running_loop().time() + self.DEADLINE
            while not await all_blocks_present(coordinator):
                assert (
                    asyncio.get_running_loop().time() < deadline
                ), "self-healing repair did not restore redundancy"
                await asyncio.sleep(0.2)
            assert await client.get(1) == payload

        deployment.up()
        try:
            run(scenario())
        finally:
            deployment.down()

        spans = read_spans(str(trace_dir))
        repairs = [
            trace_id
            for trace_id, root_op, _start in trace_ids(spans)
            if root_op == "REPAIR"
        ]
        assert repairs, "auto-repair recorded no REPAIR trace"
        traced = False
        for trace_id in repairs:
            trace = [s for s in spans if s.get("trace_id") == trace_id]
            chain = sorted(
                (s for s in trace if s.get("op") == "CHAIN"),
                key=lambda s: int(s.get("position", 0)),
            )
            if not chain:
                continue
            traced = True
            # One connected tree, spanning the three roles' processes.
            assert validate_trace(trace) == []
            assert {s["role"] for s in trace} >= {"gateway", "helper"}
            # Hops start in pipeline order (same host, so the clocks
            # agree to well under the 50 ms slack).
            starts = [float(s["start"]) for s in chain]
            assert all(
                later >= earlier - 0.05
                for earlier, later in zip(starts, starts[1:])
            )
            assert len({s["node"] for s in chain}) == len(chain)
            waterfall = render_waterfall(trace)
            assert waterfall.count("CHAIN") == len(chain)
        assert traced, "no REPAIR trace contained chain hops"


class TestObservabilityCli:
    """``python -m repro.service metrics`` / ``trace`` against a live boot."""

    def test_metrics_and_trace_subcommands(self, tmp_path, capsys):
        from repro.service.__main__ import main

        state = str(tmp_path / "state.json")
        trace_dir = str(tmp_path / "traces")
        assert (
            main(
                [
                    "up",
                    "--helpers",
                    "5",
                    "--state",
                    state,
                    "--store",
                    str(tmp_path / "meta.db"),
                    "--trace-dir",
                    trace_dir,
                ]
            )
            == 0
        )
        try:
            assert main(["put", "--stripe", "1", "--size", "65536", "--state", state]) == 0
            assert main(["erase", "--stripe", "1", "--block", "0", "--state", state]) == 0
            # Degraded read: drives a pipelined chain, leaving a trace.
            assert main(["read", "--stripe", "1", "--block", "0", "--state", state]) == 0
            capsys.readouterr()

            assert main(["metrics", "--state", state]) == 0
            scraped = capsys.readouterr().out
            assert "# == coordinator " in scraped
            assert "# TYPE gateway_puts_total counter" in scraped
            assert "# TYPE helper_chain_hops_total counter" in scraped
            samples = parse_exposition(scraped)
            assert any(n.startswith("frames_total") for n in samples)

            assert main(["metrics", "--state", state, "--role", "gateway"]) == 0
            gateway_only = capsys.readouterr().out
            assert "# == gateway " in gateway_only
            # (The gateway's own families may name the coordinator as a peer.)
            assert "# == coordinator " not in gateway_only

            # List the recorded traces, then render the degraded read.
            assert main(["trace", "--state", state]) == 0
            listing = capsys.readouterr().out
            read_traces = [
                line.split()[0]
                for line in listing.splitlines()
                if "READ_BLOCK" in line
            ]
            assert read_traces, listing
            assert main(["trace", read_traces[-1], "--state", state]) == 0
            waterfall = capsys.readouterr().out
            assert "window" in waterfall and "CHAIN" in waterfall
        finally:
            assert main(["down", "--state", state]) == 0
        capsys.readouterr()

    def test_trace_without_a_directory_explains_itself(self, tmp_path, capsys, monkeypatch):
        from repro.service.__main__ import main

        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        missing_state = str(tmp_path / "absent.json")
        assert main(["trace", "--state", missing_state]) == 1
        assert "no trace directory" in capsys.readouterr().out

        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["trace", "--state", missing_state, "--trace-dir", str(empty)]) == 1
        assert "no spans under" in capsys.readouterr().out

        recorder = SpanRecorder("helper", directory=str(empty))
        recorder.record(TraceContext.root(), "CHAIN", start=1.0, duration=0.5)
        assert main(["trace", "nope", "--state", missing_state, "--trace-dir", str(empty)]) == 1
        assert "no spans for trace" in capsys.readouterr().out


class TestJsonSafety:
    def test_span_dicts_are_json_round_trippable(self, tmp_path):
        recorder = SpanRecorder("helper", directory=str(tmp_path))
        span = recorder.record(
            TraceContext.root(), "CHAIN", start=1.0, duration=0.5, position=1
        )
        assert json.loads(json.dumps(span)) == span
