"""Stripe block placement shared by the live gateway and the chaos twin.

One function is the single source of truth for where the gateway puts the
blocks of a stripe, so everything that must agree with it -- the chaos
harness's simulated twin, its fault-target selection, tests asserting
distribution -- imports the same rotation instead of re-deriving it.

The rotation fixes two real placement bugs of the original gateway:

* block ``i`` of *every* stripe landed on ``sorted(helpers)[i]``, turning
  the block-0 holder into a hot spot for the whole cluster; rotating the
  start node by ``stripe_id`` spreads stripe heads evenly;
* when ``n`` exceeded the helper count, a stripe silently stacked several
  blocks on one node -- one machine failure then costs multiple blocks of
  the same stripe, violating the single-failure-domain invariant every
  repair plan assumes.  Stacking now raises unless explicitly opted into
  (``REPRO_ALLOW_STACKED_PLACEMENT=1``, for single-node toy deployments).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.config import env_int

#: Opt-in knob allowing ``n > len(helpers)`` placements to stack blocks.
ALLOW_STACKED_ENV = "REPRO_ALLOW_STACKED_PLACEMENT"


def rotated_placement(
    stripe_id: int,
    n: int,
    nodes: Iterable[str],
    allow_stacked: Optional[bool] = None,
) -> Dict[int, str]:
    """Block index -> node for one stripe, rotated by ``stripe_id``.

    Block ``i`` lands on ``sorted(nodes)[(stripe_id + i) % len(nodes)]``:
    consecutive blocks still spread over distinct nodes, but the node
    carrying block 0 advances with the stripe id, so no helper is the hot
    head of every stripe.

    Raises
    ------
    ValueError
        When ``n`` exceeds the node count and stacking was not allowed
        (``allow_stacked`` argument, or ``REPRO_ALLOW_STACKED_PLACEMENT``).
    """
    ordered = sorted(set(nodes))
    if not ordered:
        raise ValueError("placement needs at least one helper node")
    if n > len(ordered):
        if allow_stacked is None:
            allow_stacked = env_int(ALLOW_STACKED_ENV, 0) != 0
        if not allow_stacked:
            raise ValueError(
                f"stripe {stripe_id} has {n} blocks but only {len(ordered)} "
                f"helper nodes are registered; placing it would stack blocks "
                f"on one failure domain (set {ALLOW_STACKED_ENV}=1 to allow)"
            )
    offset = int(stripe_id) % len(ordered)
    return {i: ordered[(offset + i) % len(ordered)] for i in range(n)}


__all__ = ["rotated_placement", "ALLOW_STACKED_ENV"]
