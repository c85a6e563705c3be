"""``python -m repro.service`` -- operate a live ECPipe deployment.

Subcommands::

    up        boot coordinator + helpers + gateway as OS processes
    status    ping every role of a running deployment
    put       store a seeded object as one erasure-coded stripe
    get       read an object back (degraded reads transparent)
    erase     failure injection: drop one block replica
    read      read one block (degraded read when lost)
    repair    reconstruct blocks and write them back
    bench     measured-vs-simulated comparison (own throwaway deployment)
    smoke     self-contained boot/repair/verify/shutdown check (CI)
    down      graceful shutdown of a running deployment
    run-role  internal: entry point of a single role process

``up`` writes a JSON state file (default ``.ecpipe-service.json``) recording
pids and ports; the other commands find the deployment through it.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import signal
import sys
from typing import Dict, Tuple

from repro.cluster.deployment import DeploymentSpec
from repro.obs.metrics import counter_samples, regressed_samples
from repro.service.client import ServiceClient
from repro.service.compare import CompareConfig, format_report, run_comparison
from repro.service.coordinator import SERVICE_SCHEMES
from repro.service.deployment import (
    DEFAULT_STATE_PATH,
    LocalDeployment,
    RoleHandle,
    ServiceError,
    build_server,
)
from repro.service.protocol import Op, request

#: Default sqlite metadata store of CLI deployments, next to the state file.
DEFAULT_STORE_PATH = ".ecpipe-service.db"


def _parse_address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


def _client(args) -> ServiceClient:
    deployment = LocalDeployment.load_state(args.state)
    return ServiceClient(deployment.gateway_addresses())


async def ask_roles(
    deployment: LocalDeployment, op: Op, timeout: float, role: str = "", node: str = ""
):
    """Send ``op`` to every role (or only one role / node label), in boot order.

    Yields ``(handle, reply)``; a role that does not answer within
    ``timeout`` yields the exception in the reply's place.
    """
    for handle in deployment.handles:
        if (role and handle.role != role) or (node and handle.node != node):
            continue
        try:
            answer = await asyncio.wait_for(
                request(handle.host, handle.port, op, {}), timeout=timeout
            )
        except Exception as exc:
            answer = exc
        yield handle, answer


# ------------------------------------------------------------------ run-role
async def _run_role_async(args) -> None:
    if args.role == "helper" and not (args.node and args.coordinator):
        raise ServiceError("helper roles need --node and --coordinator")
    if args.role == "gateway" and not args.coordinator:
        raise ServiceError("gateway roles need --coordinator")
    server = build_server(
        RoleHandle(
            args.role,
            args.node,
            args.host,
            args.port,
            metrics_port=args.metrics_port or None,
        ),
        coordinator_address=_parse_address(args.coordinator) if args.coordinator else None,
        store_path=args.store or None,
        scan=not args.no_scan,
        trace_dir=args.trace_dir or None,
    )
    await server.start()
    # The supervisor reads this exact line to learn the bound port.
    print(f"ADDRESS {server.address[0]} {server.address[1]}", flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, server.request_shutdown)
    await server.serve_until_shutdown()


def cmd_run_role(args) -> int:
    asyncio.run(_run_role_async(args))
    return 0


# ------------------------------------------------------------------- lifecycle
def cmd_up(args) -> int:
    spec = DeploymentSpec.local(
        args.helpers, base_port=args.base_port, gateways=args.gateways
    )
    deployment = LocalDeployment(
        spec=spec,
        store_path=args.store or None,
        metrics_base_port=args.metrics_base_port or None,
        trace_dir=args.trace_dir or None,
    )
    deployment.up()
    deployment.save_state(args.state)
    store_note = args.store if args.store else "in-memory (volatile)"
    print(
        f"deployment up ({args.helpers} helpers, {args.gateways} gateways); "
        f"state in {args.state}, metadata store {store_note}"
    )
    for handle in deployment.handles:
        scrape = (
            "" if handle.metrics_port is None
            else f"  metrics :{handle.metrics_port}"
        )
        print(f"  {handle.label:<24}{handle.host}:{handle.port}  pid {handle.pid}{scrape}")
    return 0


def cmd_down(args) -> int:
    deployment = LocalDeployment.load_state(args.state)
    report = deployment.down()
    os.unlink(args.state)
    print(f"graceful: {report['graceful']}")
    if report["sigterm"] or report["sigkill"]:
        print(f"escalated: sigterm={report['sigterm']} sigkill={report['sigkill']}")
        return 1
    return 0


def cmd_status(args) -> int:
    deployment = LocalDeployment.load_state(args.state)

    async def _status() -> int:
        bad = 0
        async for handle, reply in ask_roles(deployment, Op.STAT, 3.0):
            if isinstance(reply, Exception):
                print(f"  {handle.label:<24}DOWN  {type(reply).__name__}: {reply}")
                bad += 1
            else:
                print(
                    f"  {handle.label:<24}up    "
                    f"{json.dumps(reply.header, sort_keys=True)}"
                )
        if getattr(args, "detector", False):
            (reply,) = [
                answer
                async for _, answer in ask_roles(
                    deployment, Op.DETECTOR, 3.0, role="coordinator"
                )
            ]
            if isinstance(reply, Exception):
                print(f"  detector               DOWN  {type(reply).__name__}: {reply}")
                return 1
            header = reply.header
            scanner = header.get("scanner", {})
            print(
                f"  detector: store={header.get('store')} "
                f"scanning={header.get('scanning')} "
                f"queue={scanner.get('queue_depth')} "
                f"repaired={scanner.get('repairs_completed')} "
                f"failed_attempts={scanner.get('repair_failures')}"
            )
            for node, info in sorted(header.get("detector", {}).items()):
                print(
                    f"    {node:<22}{info['state']:<8}phi={info['phi']:<8}"
                    f"age={info['age']}s mean={info['mean_interval']}s"
                )
            for row in header.get("journal", []):
                where = (
                    f"stripe{row['stripe_id']}.block{row['block_index']}"
                    if row.get("stripe_id") is not None
                    else "-"
                )
                print(f"    #{row['seq']:<6}{row['event']:<16}{where:<24}{row['detail']}")
        return 0 if bad == 0 else 1

    return asyncio.run(_status())


# --------------------------------------------------------------- observability
def cmd_metrics(args) -> int:
    """Scrape every role's registry through the METRICS op and print it."""
    deployment = LocalDeployment.load_state(args.state)

    async def _scrape() -> int:
        bad = 0
        async for handle, reply in ask_roles(
            deployment, Op.METRICS, 3.0, role=args.role, node=args.node
        ):
            if isinstance(reply, Exception):
                print(f"# {handle.label} DOWN {type(reply).__name__}: {reply}")
                bad += 1
                continue
            print(f"# == {handle.label} {handle.host}:{handle.port} ==")
            sys.stdout.write(reply.payload.decode("utf-8"))
        return 0 if bad == 0 else 1

    return asyncio.run(_scrape())


def cmd_trace(args) -> int:
    """List recorded traces, or render one as an ASCII waterfall."""
    from repro.obs.trace import TRACE_DIR_ENV, read_spans, render_waterfall, trace_ids

    directory = args.trace_dir or os.environ.get(TRACE_DIR_ENV, "")
    if not directory:
        try:
            directory = LocalDeployment.load_state(args.state).trace_dir or ""
        except ServiceError:
            directory = ""
    if not directory:
        print(
            "no trace directory: pass --trace-dir, set REPRO_TRACE_DIR, "
            "or boot with `up --trace-dir`"
        )
        return 1
    if not args.trace_id:
        spans = read_spans(directory)
        if not spans:
            print(f"no spans under {directory}")
            return 1
        for trace_id, root_op, start in trace_ids(spans):
            count = sum(1 for s in spans if s.get("trace_id") == trace_id)
            print(f"{trace_id}  {root_op:<16}{count:>4} spans  t={start:.6f}")
        return 0
    spans = read_spans(directory, trace_id=args.trace_id)
    if not spans:
        print(f"no spans for trace {args.trace_id!r} under {directory}")
        return 1
    print(render_waterfall(spans))
    return 0


# -------------------------------------------------------------------- data ops
def cmd_put(args) -> int:
    payload = random.Random(args.seed).randbytes(args.size)
    code_spec = {"family": "rs", "n": args.n, "k": args.k}
    reply = asyncio.run(_client(args).put(args.stripe, payload, code_spec))
    print(json.dumps(reply, sort_keys=True))
    return 0


def cmd_get(args) -> int:
    payload = asyncio.run(_client(args).get(args.stripe))
    print(
        json.dumps(
            {
                "stripe_id": args.stripe,
                "size": len(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_erase(args) -> int:
    reply = asyncio.run(_client(args).erase(args.stripe, args.block))
    print(json.dumps(reply, sort_keys=True))
    return 0


def cmd_read(args) -> int:
    payload, header = asyncio.run(
        _client(args).read_block(
            args.stripe, args.block, scheme=args.scheme, slice_size=args.slice_size
        )
    )
    header["size"] = len(payload)
    print(json.dumps(header, sort_keys=True))
    return 0


def cmd_repair(args) -> int:
    reply = asyncio.run(
        _client(args).repair(
            args.stripe,
            args.blocks,
            scheme=args.scheme,
            slice_size=args.slice_size,
            to=args.to,
        )
    )
    print(json.dumps(reply, sort_keys=True))
    return 0


# ----------------------------------------------------------------------- bench
def cmd_bench(args) -> int:
    config = CompareConfig(
        n=args.n,
        k=args.k,
        block_size=args.block_size,
        slice_size=args.slice_size,
        repeats=args.repeats,
        load_concurrency=args.load_concurrency,
    )
    report = run_comparison(config, mode=args.mode)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    return 0


# ----------------------------------------------------------------------- smoke
def cmd_smoke(args) -> int:
    """Boot, repair, verify bytes, shut down, verify no orphans.

    The CI gate for the whole service plane: a (5, 3) stripe on a
    1-coordinator / 5-helper localhost cluster, one degraded read and one
    pipelined repair, SHA-256-checked against a locally computed expectation,
    then a shutdown that must stay at the graceful escalation level.  With
    ``--gateways`` > 1 (the default) the client load balances over the
    gateway set and, at the end, one gateway is crashed to prove the
    survivors keep serving byte-exact reads (failover).
    """
    from repro.codes.rs import RSCode

    n, k = 5, 3
    block_size = args.block_size
    payload = random.Random(20170712).randbytes(k * block_size)
    code = RSCode(n, k)
    view = memoryview(payload)
    expected_blocks = [
        bytes(memoryview(b)) for b in code.encode(
            [view[i * block_size:(i + 1) * block_size] for i in range(k)]
        )
    ]
    expected_sha = hashlib.sha256(expected_blocks[0]).hexdigest()
    payload_sha = hashlib.sha256(payload).hexdigest()

    spec = DeploymentSpec.local(args.helpers, gateways=args.gateways)
    deployment = LocalDeployment(spec=spec)
    deployment.up()
    failures = []
    try:
        client = ServiceClient(deployment.gateway_addresses())

        async def _scrape_all() -> Dict[str, str]:
            out: Dict[str, str] = {}
            async for handle, reply in ask_roles(deployment, Op.METRICS, 5.0):
                if isinstance(reply, Exception):
                    raise reply
                out[handle.label] = reply.payload.decode("utf-8")
            return out

        def frames_served(scrape: Dict[str, str], role: str, op: str) -> float:
            """``frames_total{role, op}`` summed over a scrape of all roles."""
            wanted = (f'role="{role}"', f'op="{op}"')
            return sum(
                value
                for text in scrape.values()
                for name, value in counter_samples(text).items()
                if name.startswith("frames_total{") and all(w in name for w in wanted)
            )

        metrics_before = asyncio.run(_scrape_all())

        async def _exercise() -> None:
            await client.put(1, payload, {"family": "rs", "n": n, "k": k})
            await client.erase(1, 0)
            # Degraded read: reconstruct block 0 through the pipelined chain.
            block, header = await client.read_block(
                1, 0, scheme="rp", slice_size=args.slice_size
            )
            if hashlib.sha256(block).hexdigest() != expected_sha:
                failures.append("degraded read returned wrong bytes")
            if not header.get("repaired"):
                failures.append("degraded read did not take the repair path")
            # Pipelined repair: reconstruct again, into storage.  Its chain
            # ends at the helper that stores the block, so across it no
            # gateway may see a delivery and the target must see a block
            # stream -- a second write-back path cannot come back unnoticed.
            before = await _scrape_all()
            reply = await client.repair(1, [0], scheme="rp", slice_size=args.slice_size)
            if reply["sha256"]["0"] != expected_sha:
                failures.append("repair reconstructed wrong bytes")
            after = await _scrape_all()
            delivered, streamed = (
                frames_served(after, role, op) - frames_served(before, role, op)
                for role, op in (("gateway", "DELIVER_OPEN"), ("helper", "PUT_BLOCK_OPEN"))
            )
            if delivered:
                failures.append("the repaired block was delivered to a gateway")
            if not streamed:
                failures.append("the repair chain did not stream the block into its target")
            # After write-back the read must be served directly.
            block, header = await client.read_block(1, 0)
            if header.get("repaired"):
                failures.append("block was not written back to its node")
            if hashlib.sha256(block).hexdigest() != expected_sha:
                failures.append("written-back block has wrong bytes")
            # Load-balanced whole-object reads: one per gateway, so every
            # gateway in the round-robin rotation serves at least one.
            for _ in range(max(1, args.gateways)):
                whole = await client.get(1)
                if hashlib.sha256(whole).hexdigest() != payload_sha:
                    failures.append("load-balanced get returned wrong bytes")
                    break

        asyncio.run(_exercise())

        # Observability gate: every role must expose its metric families,
        # monotone families must never go backwards across the workload,
        # and the repair above must be visible in the gateway counters.
        metrics_after = asyncio.run(_scrape_all())
        required_families = {
            "coordinator": ("scanner_scans_total", "coordinator_helpers", "detector_phi"),
            "helper": ("helper_chain_hops_total", "helper_store_bytes"),
            "gateway": ("gateway_puts_total", "gateway_gets_total", "frames_total"),
        }
        for label, text in metrics_after.items():
            role = label.split(":", 1)[0]
            for family in required_families.get(role, ()):
                if f"# TYPE {family} " not in text:
                    failures.append(f"{label}: metrics missing family {family}")
            regressions = regressed_samples(
                counter_samples(metrics_before[label]), counter_samples(text)
            )
            if regressions:
                failures.append(f"{label}: counters went backwards: {regressions}")
        gateway_text = "".join(
            text for label, text in metrics_after.items() if label.startswith("gateway")
        )
        executed = [
            name
            for name, value in counter_samples(gateway_text).items()
            if name.startswith("gateway_repairs_executed_total{") and value > 0
        ]
        if not executed:
            failures.append("repair left no trace in gateway metrics")

        if args.gateways > 1:
            # Failover: kill one gateway ungracefully; the client must keep
            # serving byte-exact reads through the survivors.
            asyncio.run(deployment.crash_role("gateway", "g0"))

            async def _failover() -> None:
                for _ in range(args.gateways):
                    whole = await client.get(1)
                    if hashlib.sha256(whole).hexdigest() != payload_sha:
                        failures.append("failover get returned wrong bytes")
                        return

            asyncio.run(_failover())
    finally:
        report = deployment.down()
    if report["sigterm"] or report["sigkill"]:
        failures.append(
            f"shutdown escalated: sigterm={report['sigterm']} "
            f"sigkill={report['sigkill']}"
        )
    if deployment.orphans():
        failures.append(f"orphan processes: {deployment.orphans()}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"service smoke OK: degraded read + pipelined repair byte-exact "
        f"(sha256 {expected_sha[:16]}...), {args.gateways} gateway(s) with "
        f"failover, metrics monotone on all roles, clean shutdown "
        f"{report['graceful']}"
    )
    return 0


# ----------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Operate a live ECPipe deployment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p):
        p.add_argument("--state", default=DEFAULT_STATE_PATH, help="deployment state file")

    def add_slice_size(p):
        p.add_argument(
            "--slice-size", type=int, default=None, help="default: the coordinator's model"
        )

    p = sub.add_parser("run-role", help=argparse.SUPPRESS)
    p.add_argument("--role", required=True, choices=["coordinator", "helper", "gateway"])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--node", default="")
    p.add_argument("--coordinator", default="")
    p.add_argument("--store", default="", help="coordinator metadata store (sqlite)")
    p.add_argument("--no-scan", action="store_true", help="disable the repair scanner")
    p.add_argument(
        "--metrics-port", type=int, default=0, help="serve HTTP /metrics (0 = off)"
    )
    p.add_argument("--trace-dir", default="", help="directory for span logs")
    p.set_defaults(func=cmd_run_role)

    p = sub.add_parser("up", help="boot a localhost deployment")
    p.add_argument("--helpers", type=int, default=5)
    p.add_argument("--gateways", type=int, default=1, help="load-balanced gateway count")
    p.add_argument("--base-port", type=int, default=0, help="0 = ephemeral ports")
    p.add_argument(
        "--store",
        default=DEFAULT_STORE_PATH,
        help="coordinator metadata store; empty string = in-memory (volatile)",
    )
    p.add_argument(
        "--metrics-base-port",
        type=int,
        default=0,
        help="serve HTTP /metrics per role from this base port up (0 = off)",
    )
    p.add_argument("--trace-dir", default="", help="directory for per-role span logs")
    add_state(p)
    p.set_defaults(func=cmd_up)

    p = sub.add_parser("down", help="shut a deployment down")
    add_state(p)
    p.set_defaults(func=cmd_down)

    p = sub.add_parser("status", help="ping every role")
    p.add_argument(
        "--detector",
        action="store_true",
        help="also show the failure detector, repair scanner and journal tail",
    )
    add_state(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("metrics", help="Prometheus exposition of every role")
    p.add_argument("--role", default="", help="only this role (coordinator/helper/gateway)")
    p.add_argument("--node", default="", help="only this node label")
    add_state(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("trace", help="list traces or render one as a waterfall")
    p.add_argument("trace_id", nargs="?", default="", help="trace to render (omit to list)")
    p.add_argument("--trace-dir", default="", help="span-log directory")
    add_state(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("put", help="store a seeded object")
    p.add_argument("--stripe", type=int, required=True)
    p.add_argument("--size", type=int, default=3 * 1024 * 1024)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--k", type=int, default=3)
    add_state(p)
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="read an object back")
    p.add_argument("--stripe", type=int, required=True)
    add_state(p)
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("erase", help="failure injection: drop a block replica")
    p.add_argument("--stripe", type=int, required=True)
    p.add_argument("--block", type=int, required=True)
    add_state(p)
    p.set_defaults(func=cmd_erase)

    p = sub.add_parser("read", help="read one block (degraded read when lost)")
    p.add_argument("--stripe", type=int, required=True)
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--scheme", default="rp", choices=SERVICE_SCHEMES)
    add_slice_size(p)
    add_state(p)
    p.set_defaults(func=cmd_read)

    p = sub.add_parser("repair", help="reconstruct blocks and write them back")
    p.add_argument("--stripe", type=int, required=True)
    p.add_argument("--blocks", type=int, nargs="+", required=True)
    p.add_argument("--scheme", default="rp", choices=SERVICE_SCHEMES)
    add_slice_size(p)
    p.add_argument("--to", default=None, help="replacement node (default: original)")
    add_state(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("bench", help="measured-vs-simulated comparison")
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--block-size", type=int, default=8 * 1024 * 1024)
    p.add_argument("--slice-size", type=int, default=512 * 1024)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--load-concurrency", type=int, default=2)
    p.add_argument("--mode", default="process", choices=["process", "inproc"])
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("smoke", help="self-contained CI check")
    p.add_argument("--helpers", type=int, default=5)
    p.add_argument(
        "--gateways",
        type=int,
        default=2,
        help="gateway count; > 1 also exercises load balancing and failover",
    )
    p.add_argument("--block-size", type=int, default=1024 * 1024)
    add_slice_size(p)
    p.set_defaults(func=cmd_smoke)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
