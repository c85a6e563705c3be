"""Stripe block placement shared by the live gateway and its simulated twin.

One function is the single source of truth for where the gateway puts the
blocks of a stripe, so everything that must agree with it -- the simulated
twin (:func:`repro.service.compare.twin_repair_seconds`), the chaos
harness's fault-target selection, tests asserting distribution -- imports
the same rotation instead of re-deriving it.

The rotation fixes two real placement bugs of the original gateway:

* block ``i`` of *every* stripe landed on ``sorted(helpers)[i]``, turning
  the block-0 holder into a hot spot for the whole cluster; rotating the
  start node by ``stripe_id`` spreads stripe heads evenly;
* when ``n`` exceeded the helper count, a stripe silently stacked several
  blocks on one node -- one machine failure then costs multiple blocks of
  the same stripe, violating the single-failure-domain invariant every
  repair plan assumes.  Stacking now raises.
"""

from __future__ import annotations

from typing import Dict, Iterable


def rotated_placement(stripe_id: int, n: int, nodes: Iterable[str]) -> Dict[int, str]:
    """Block index -> node for one stripe, rotated by ``stripe_id``.

    Block ``i`` lands on ``sorted(nodes)[(stripe_id + i) % len(nodes)]``:
    consecutive blocks still spread over distinct nodes, but the node
    carrying block 0 advances with the stripe id, so no helper is the hot
    head of every stripe.

    Raises
    ------
    ValueError
        When ``n`` exceeds the node count: two blocks of one stripe would
        share a failure domain.
    """
    ordered = sorted(set(nodes))
    if not ordered:
        raise ValueError("placement needs at least one helper node")
    if n > len(ordered):
        raise ValueError(
            f"stripe {stripe_id} has {n} blocks but only {len(ordered)} "
            f"helper nodes are registered; placing it would stack blocks "
            f"on one failure domain"
        )
    offset = int(stripe_id) % len(ordered)
    return {i: ordered[(offset + i) % len(ordered)] for i in range(n)}


__all__ = ["rotated_placement"]
