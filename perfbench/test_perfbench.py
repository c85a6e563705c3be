"""The benchmark's own checks, at smoke scale (in-process roles, two rounds).

Collected by the repository's tier-1 run.  Nothing here asserts a speed:
the checks are that every workload prints every metric ``BENCHMARK.json``
names, that inputs are a function of the seed, and that a wrong byte is
counted as a failed operation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import ROOT, WORK, bootstrap

bootstrap()

from perfbench import cli, workloads  # noqa: E402
from perfbench.harness import HostClock, Spans, tail  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = workloads.SCALES["smoke"]
NAMES = list(workloads.WORKLOADS)


def run_smoke(capsys, *extra: str):
    code = cli.main([*extra, "--seed", "5", "--seconds", "1", "--scale", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", NAMES)
def test_workload_prints_every_end_to_end_metric(name, capsys):
    code, table, result = run_smoke(capsys, "--workload", name)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]) and entry["value"] > 0
    printed = {line.split()[0]: line.split()[1] for line in table if not line.startswith("#")}
    assert float(printed["failed_fraction"]) == 0
    assert set(result["metrics"]) <= set(printed)


def test_traced_run_prints_every_per_layer_metric(capsys):
    code, _, result = run_smoke(capsys, "--workload", "degraded-read", "--trace", "1")
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    value = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert all(math.isfinite(v) for v in value.values())
    spans = json.loads((WORK / "spans-degraded-read.json").read_text())
    assert spans and {"id", "name", "op", "parent", "start", "end"} == set(spans[0])
    # Layers the workload reaches count; layers it never reaches read 0.
    assert value["helper.chain_hops"] > 0 and value["gateway.frames_read_block"] > 0
    assert value["gateway.frames_get"] == 0 and value["ledger.put.accounted_fraction"] == 0
    assert value["ledger.degraded_read.accounted_fraction"] > 0
    assert value["gateway.repairs_executed_rp"] == 3 * value["gateway.repairs_executed_conventional"]
    # The fixed-seed runtime probe is a count: it must not move between runs.
    assert value["runtime.tasks"] == 10122


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_a_function_of_the_seed(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = (cls(seed, SMOKE).generate(0) for seed in (11, 11, 12))
    assert first == again
    if name != "sim-month":  # its seed goes to run_trial, not into the scenario
        assert first != other


def test_a_digest_mismatch_is_a_failed_operation(monkeypatch, capsys):
    generate = workloads.DegradedRead.generate

    def corrupted(self, session):
        inputs = generate(self, session)
        # healthy[0] is read during set-up, which must stay clean.
        inputs.digests[inputs.healthy[1]] = "0" * 64
        return inputs

    monkeypatch.setattr(workloads.DegradedRead, "generate", corrupted)
    code, _, result = run_smoke(capsys, "--workload", "degraded-read")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_benchmark_json_names_what_the_code_prints():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert [w["why"] for w in SPEC["workloads"]] == [c.why for c in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == cli.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][-1] == "perfbench/run.py"


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sim-month", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_is_a_span_minus_what_its_children_cover():
    spans = Spans()
    spans.record = True
    with spans.span("round", op="r0"):
        with spans.span("put"):
            time.sleep(0.02)
        with spans.span("get"):
            time.sleep(0.01)
    by_name = spans.self_seconds()
    rows = {row.name: row for row in spans.rows}
    assert rows["put"].parent == rows["round"].id and rows["put"].op == "r0"
    assert by_name["put"] == pytest.approx(rows["put"].seconds)
    assert by_name["round"] == pytest.approx(
        rows["round"].seconds - rows["put"].seconds - rows["get"].seconds
    )


def test_calibration_scales_the_core_bound_share_by_the_ticks_around():
    clock = HostClock()
    with clock.ticking():
        time.sleep(0.35)
    end = time.perf_counter()
    clock.tick(0)
    assert clock.ticks >= 3
    slowdown = clock.slowdown(end - 0.05, end)
    assert slowdown > 0
    # Nothing core-bound: as measured.  All of it: divided by the slowdown.
    assert clock.calibrated(end - 0.05, end, 0.0) == pytest.approx(0.05)
    assert clock.calibrated(end - 0.05, end, 1.0) == pytest.approx(0.05 / slowdown)
    assert clock.calibrated(end - 0.05, end, 0.6) == pytest.approx(
        0.05 / (0.6 * slowdown + 0.4)
    )
    # An interval with no tick inside takes the nearest tick on either side.
    assert clock.slowdown(end + 100.0, end + 101.0) > 0


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(19))) is None
    assert tail([float(i) for i in range(60)]) == (83, 49.0)
    assert tail([float(i) for i in range(2400)]) == (99, 2389.0)
