"""Command line: run one workload, or check how well runs repeat.

``run`` (the default) is what ``BENCHMARK.json``'s command invokes.  Its last
line of standard output is one JSON object ``{correct, attempted, failed,
metrics}``; the lines above it are the same numbers for a reader, under the
names the workload's own operations have.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from perfbench import ROOT, WORK
from perfbench.harness import BenchmarkError, HostClock, SessionResult, Spans, p50_ms
from perfbench.layers import CLIENT_SPANS, PER_LAYER, isolated_probes, ledger
from perfbench.workloads import SCALES, WORKLOADS, Workload

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "alt_p50_ms": "ms",
    "work_per_s": "1/s",
}


def pooled_samples(results: Sequence[SessionResult], raw: bool = False) -> Dict[str, List[float]]:
    """Every session's samples by key: calibrated seconds, or as measured."""
    pooled: Dict[str, List[float]] = {}
    for result in results:
        for key, values in (result.tally.raw if raw else result.tally.samples).items():
            pooled.setdefault(key, []).extend(values)
    return pooled


def end_to_end(workload: Workload, results: Sequence[SessionResult]) -> Dict[str, float]:
    samples = pooled_samples(results)
    return {
        "setup_s": statistics.median(r.setup_s for r in results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
        "op_p50_ms": p50_ms(samples[workload.op]),
        "alt_p50_ms": p50_ms(samples[workload.alt]),
        "work_per_s": sum(r.tally.work for r in results) / sum(r.tally.wall for r in results),
    }


def per_layer(workload: Workload, untraced: SessionResult, traced: SessionResult, spans: Spans):
    found = dict(traced.layers)
    found.update(isolated_probes(workload.chunk, workload.scale.block))
    self_seconds = spans.self_seconds()
    for name in CLIENT_SPANS:
        found[f"client.{name}_self_s"] = self_seconds.get(name, 0.0)
    # The isolated rates are as measured, so the ledger's medians are too.
    found.update(ledger(workload, traced.tally.raw, found))
    found["obs.tracing_overhead_fraction"] = (
        p50_ms(traced.tally.samples[workload.op]) / p50_ms(untraced.tally.samples[workload.op]) - 1
    )
    return {name: found.get(name, 0.0) for name, _, _ in PER_LAYER}


def run(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed, SCALES[args.scale])
    spans = Spans()
    clock = HostClock()
    # A session is one fresh set-up and one measurement.  A traced run is an
    # untraced and a traced session of half the time each, so it carries its
    # own baseline for the tracing overhead.
    sessions = 2 if args.trace else 1
    results: List[SessionResult] = []
    for index in range(sessions):
        spans.record = bool(args.trace) and index == sessions - 1
        if spans.record:
            shutil.rmtree(WORK / f"role-spans-{workload.name}", ignore_errors=True)
        results.append(
            workload.session(index, args.seconds / sessions, spans, clock, spans.record)
        )

    attempted = sum(r.tally.attempted for r in results)
    failed = sum(r.tally.failed for r in results)
    for result in results:
        for failure in result.tally.failures:
            print(f"FAILED {failure}", file=sys.stderr)

    values = end_to_end(workload, results)
    units = dict(END_TO_END)
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} scale={args.scale}")
    rows = [(name, values[name], unit, 0) for name, unit in END_TO_END.items()]
    rows += workload.table(pooled_samples(results), values["work_per_s"])
    # The same as the wall clock measured them, before the host calibration.
    raw = pooled_samples(results, raw=True)
    rows += [
        ("setup_raw_s", statistics.median(r.setup_raw_s for r in results), "s", 0),
        ("op_raw_p50_ms", p50_ms(raw[workload.op]), "ms", len(raw[workload.op])),
        ("alt_raw_p50_ms", p50_ms(raw[workload.alt]), "ms", len(raw[workload.alt])),
        ("host_slowdown", clock.slowdown(-math.inf, math.inf), "ratio", clock.ticks),
    ]
    rows.append(("failed_fraction", failed / attempted, "ratio", attempted))
    if args.trace:
        values = per_layer(workload, results[0], results[1], spans)
        units = {name: unit for name, unit, _ in PER_LAYER}
        WORK.mkdir(exist_ok=True)
        span_file = WORK / f"spans-{workload.name}.json"
        spans.write(span_file)
        print(f"# {len(spans.rows)} spans written to {span_file.relative_to(ROOT)}")
        rows += [(name, values[name], units[name], 0) for name in values]
    for name, value, unit, count in rows:
        print(f"{name:<42} {value:>14.4f} {unit:<6}" + (f" n={count}" if count else ""))

    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise BenchmarkError(f"metrics without a finite value: {bad}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0 if failed == 0 else 1


# ------------------------------------------------------------- repeatability
def _run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise BenchmarkError(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def repeat(args: argparse.Namespace) -> int:
    """Two interleaved sets of runs of every workload; their medians must agree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worst = 0
    print(f"{'workload':<14} {'metric':<12} {'first':>12} {'second':>12} {'diff':>8} {'bound':>6}")
    for workload in args.workloads:
        # Alternating the sets puts both through the same minutes of this
        # host, whose speed shifts by tens of percent for minutes at a time.
        runs = [_run_once(workload, args.seed, spec["run_seconds"]) for _ in range(2 * args.runs)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = (statistics.median(r[name] for r in runs[side::2]) for side in (0, 1))
            diff = abs(second - first) / first
            over = diff > metric["bound"]
            worst += over
            print(f"{workload:<14} {name:<12} {first:>12.4f} {second:>12.4f} "
                  f"{diff:>8.1%} {metric['bound']:>6.0%}" + ("  OVER" if over else ""))
    return 1 if worst else 0


def spread(args: argparse.Namespace) -> int:
    """Run every workload on ``--runs`` seeds; print each metric's quartile spread."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worst = 0
    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload in args.workloads:
        runs = [
            _run_once(workload, args.seed + i, spec["run_seconds"]) for i in range(args.runs)
        ]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            # The set-up spread is reported but not held to its bound.
            over = share > metric["bound"] and name != "setup_s"
            worst += over
            print(f"{workload:<14} {name:<12} {statistics.median(values):>12.4f} "
                  f"{share:>8.1%} {metric['bound']:>6.0%}" + ("  OVER" if over else ""))
    return 1 if worst else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command")
    runner = commands.add_parser("run", help="run one workload (the default command)")
    runner.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    runner.add_argument("--seed", type=int, default=1)
    runner.add_argument("--seconds", type=float, default=10.0)
    runner.add_argument("--trace", type=int, choices=(0, 1), default=0)
    runner.add_argument("--scale", choices=sorted(SCALES), default="full")
    runner.set_defaults(handler=run)
    for name, handler in (("repeat", repeat), ("spread", spread)):
        sub = commands.add_parser(name, help=handler.__doc__)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                         choices=sorted(WORKLOADS))
        sub.set_defaults(handler=handler)
        sub.add_argument("--runs", type=int, default=10 if name == "spread" else 3,
                         help="runs per workload (spread) or per set (repeat)")
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0].startswith("-"):
        argv.insert(0, "run")
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
