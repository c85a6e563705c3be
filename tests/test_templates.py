"""Property tests for the compiled graph-template layer.

The hot-path contract of :mod:`repro.core.templates` is *exactness*: a
template-instantiated graph must be indistinguishable -- same makespan, same
per-port service, same transfer accounting -- from a freshly compiled one,
for any scheme and geometry, across pooling reuse and node rebinding.  These
properties are pinned over randomised ``(scheme, n, k, slice)`` draws (and,
for normal reads, random ``(source, client)`` pairs) so a template-encoding
bug cannot hide in an untested corner.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_flat_cluster, build_rack_cluster
from repro.codes import RSCode
from repro.core import (
    ConventionalRepair,
    PPRRepair,
    PortResolver,
    RebindableGraphTemplate,
    RepairPipelining,
    RepairRequest,
    StripeInfo,
    role_pattern,
)
from repro.runtime.foreground import build_read_graph
from repro.runtime.throttle import RepairThrottle
from repro.sim.engine import DynamicSimulator, Simulator

KiB = 1024

SCHEMES = {
    "conventional": ConventionalRepair,
    "ppr": PPRRepair,
    "rp": lambda: RepairPipelining("rp"),
    "pipe_s": lambda: RepairPipelining("pipe_s"),
    "pipe_b": lambda: RepairPipelining("pipe_b"),
}


def _random_case(seed, num_nodes_extra=6):
    """Random (scheme, cluster, request, path) single-block repair."""
    rng = random.Random(seed)
    scheme_name = rng.choice(sorted(SCHEMES))
    n = rng.randint(4, 12)
    k = rng.randint(2, n - 1)
    block_size = rng.choice([64 * KiB, 256 * KiB])
    slice_size = block_size // rng.choice([2, 4, 8])
    num_nodes = n + num_nodes_extra
    if rng.random() < 0.5:
        cluster = build_flat_cluster(num_nodes)
    else:
        racks = rng.choice([2, 3])
        per_rack = -(-num_nodes // racks)
        cluster = build_rack_cluster(racks, per_rack, 400e6)
    names = cluster.node_names()
    failed = rng.randrange(n)
    stripe_nodes = rng.sample(names, n)
    stripe = StripeInfo(RSCode(n, k), dict(enumerate(stripe_nodes)))
    requestor = rng.choice(names)
    path = sorted(i for i in range(n) if i != failed)[: k]
    request = RepairRequest(stripe, [failed], requestor, block_size, slice_size)
    return scheme_name, cluster, stripe, request, path


def _run(graph):
    result = Simulator(graph).run()
    return result.makespan, result.bytes_by_kind, result.port_busy_seconds


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_rebindable_template_matches_fresh_build_on_other_nodes(seed):
    """Rebinding a template onto new nodes equals compiling for those nodes."""
    rng = random.Random(seed ^ 0x5EED)
    scheme_name, cluster, stripe, request, path = _random_case(seed)
    scheme = SCHEMES[scheme_name]()
    throttle = RepairThrottle(cluster, 25e6 if rng.random() < 0.5 else None)
    resolver = PortResolver(cluster, throttle)

    graph = scheme.build_graph(request, cluster, candidates=path)
    throttle.apply(graph)
    roles = tuple(stripe.location(i) for i in path) + (request.requestors[0],)
    template = RebindableGraphTemplate.capture(graph, roles, resolver)
    assert template is not None, "runtime schemes must always be rebindable"
    assert template.transfer_bytes == graph.total_bytes("transfer")

    # Same roles: the rebind reproduces the captured graph exactly.
    assert _run(template.instantiate(roles)) == _run(
        throttle.apply(scheme.build_graph(request, cluster, candidates=path))
    )

    # New roles with the same coincidence pattern: must equal a fresh
    # compile against a relocated stripe (exercises pooling + rebinding).
    code = stripe.code
    names = cluster.node_names()
    new_nodes = rng.sample(names, code.n)
    new_stripe = StripeInfo(code, dict(enumerate(new_nodes)), stripe_id=1)
    new_requestor = rng.choice([m for m in names if m not in new_nodes])
    new_request = RepairRequest(
        new_stripe,
        list(request.failed),
        new_requestor,
        request.block_size,
        request.slice_size,
    )
    new_roles = tuple(new_stripe.location(i) for i in path) + (new_requestor,)
    if role_pattern(new_roles) != role_pattern(roles):
        return  # different structure; the runtime would not share templates
    expected = _run(
        throttle.apply(scheme.build_graph(new_request, cluster, candidates=path))
    )
    for _ in range(2):  # fresh clone, then a pooled rebind
        bound = template.instantiate(new_roles)
        assert _run(bound) == expected
        template.release(bound)


def test_role_pattern_canonicalisation():
    assert role_pattern(("b", "c", "a", "b")) == (0, 1, 2, 0)
    assert role_pattern(("x", "y", "z", "x")) == (0, 1, 2, 0)
    assert role_pattern(()) == ()
    assert role_pattern(("n",)) == (0,)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_read_template_rebinds_onto_other_node_pairs(seed):
    """One template per read pattern serves every (source, client) pair."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        cluster = build_flat_cluster(rng.randint(2, 8))
    else:  # cross-rack transfers hold four ports, intra-rack ones two
        cluster = build_rack_cluster(rng.choice([2, 3]), rng.randint(1, 3), 400e6)
    names = cluster.node_names()
    size = rng.choice([64 * KiB, 256 * KiB])
    resolver = PortResolver(cluster)

    templates = {}
    for _ in range(6):
        source = rng.choice(names)
        client = source if rng.random() < 0.3 else rng.choice(names)
        roles = (source, client)
        pattern = role_pattern(roles)
        assert pattern == ((0, 0) if source == client else (0, 1))
        template = templates.get(pattern)
        if template is None:
            graph = build_read_graph(cluster, source, client, size, name="captured")
            template = templates[pattern] = RebindableGraphTemplate.capture(
                graph, roles, resolver
            )
            assert template is not None, "read graphs must always be rebindable"
            assert len(graph) == len(set(pattern))  # no transfer when co-located
            assert template.transfer_bytes == graph.total_bytes("transfer")
        expected = _run(build_read_graph(cluster, source, client, size, name="fresh"))
        for _ in range(2):  # fresh clone (or an earlier pair's graph), then pooled
            bound = template.instantiate(roles)
            assert _run(bound) == expected
            template.release(bound)


def test_prebound_graph_rejects_double_submit():
    cluster = build_flat_cluster(2)
    roles = ("node0", "node1")
    graph = build_read_graph(cluster, *roles, 64 * KiB, name="read")
    template = RebindableGraphTemplate.capture(graph, roles, PortResolver(cluster))
    clone = template.instantiate(roles)

    sim = DynamicSimulator()
    sim.submit(clone)
    with pytest.raises(ValueError):
        sim.submit(clone)  # prebound flag consumed; tasks already batched
    sim.drain()
