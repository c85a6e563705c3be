"""Transport-agnostic repair-chain state machines.

The pipelined repair of section 3.2 pushes slice-sized partial results
through a linear chain of helpers ``N1 -> N2 -> ... -> Nk -> R``.  The
*protocol* of that chain -- which hop reads which block, in what order the
hops run for each slice, which coefficient each hop applies, and how the
requestor reassembles the slices -- is independent of how the bytes actually
move.  This module captures that protocol as plain value objects and pure
functions so that two transports can share it verbatim:

* the in-process :class:`repro.ecpipe.middleware.ECPipe` data plane, where a
  "transfer" is a dictionary hand-off, and
* the live asyncio service plane (:mod:`repro.service`), where the same plan
  is serialised into a wire header and each hop streams partial slices over
  a TCP connection.

Byte-exactness is the contract: because every combine is exact GF(2^8)
arithmetic driven by the same :class:`SliceChainPlan`, a block reconstructed
through either transport is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.codes.base import RepairPlan
from repro.core.request import RepairRequest
from repro.gf.gf256 import gf_accumulate_into, gf_mul_into


@dataclass(frozen=True)
class ChainHop:
    """One hop of the repair chain: a helper block and where it lives.

    Attributes
    ----------
    block_index:
        Stripe-local index of the block this hop contributes.
    node:
        Name of the storage node holding the block.
    key:
        Storage key of the block on that node.
    """

    block_index: int
    node: str
    key: str

    def to_dict(self) -> Dict[str, object]:
        return {"block": self.block_index, "node": self.node, "key": self.key}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ChainHop":
        return cls(int(data["block"]), str(data["node"]), str(data["key"]))


@dataclass(frozen=True)
class SliceChainPlan:
    """The complete, transport-agnostic protocol of one pipelined repair.

    A plan is a pure value: it can be built from a
    :class:`~repro.core.request.RepairRequest` plus the coordinator's chosen
    path (:meth:`build`), or deserialised from a wire header
    (:meth:`from_dict`) -- the live helpers never need the code object, only
    the coefficient rows.

    Attributes
    ----------
    stripe_id:
        Stripe being repaired.
    failed:
        Stripe-local indices of the blocks being reconstructed, in delivery
        order.
    hops:
        The ordered chain ``N1 .. Nk`` (position 0 starts the chain).
    coefficients:
        ``coefficients[j][p]`` is the GF(2^8) coefficient hop ``p`` applies
        to its local slice when reconstructing ``failed[j]``.
    slice_sizes:
        Per-slice byte counts (the last slice may be shorter).
    cyclic:
        When true the hop order rotates per slice (section 4.1); the linear
        chain of hops is reinterpreted per slice via :meth:`hop_order`.
    """

    stripe_id: int
    failed: Tuple[int, ...]
    hops: Tuple[ChainHop, ...]
    coefficients: Tuple[Tuple[int, ...], ...]
    slice_sizes: Tuple[int, ...]
    cyclic: bool = False

    def __post_init__(self) -> None:
        if not self.failed:
            raise ValueError("at least one failed block is required")
        if not self.hops:
            raise ValueError("at least one hop is required")
        if len(self.coefficients) != len(self.failed):
            raise ValueError("one coefficient row is required per failed block")
        for row in self.coefficients:
            if len(row) != len(self.hops):
                raise ValueError("coefficient rows must match the hop count")
        if not self.slice_sizes:
            raise ValueError("at least one slice is required")
        if any(size <= 0 for size in self.slice_sizes):
            raise ValueError("slice sizes must be positive")
        if self.cyclic and len(self.hops) < 2:
            raise ValueError("cyclic chaining needs at least two hops")

    # -------------------------------------------------------------- geometry
    @property
    def num_slices(self) -> int:
        """Number of slices pushed through the chain."""
        return len(self.slice_sizes)

    @property
    def num_failed(self) -> int:
        """Number of blocks reconstructed by the chain."""
        return len(self.failed)

    @property
    def block_size(self) -> int:
        """Total bytes of each reconstructed block."""
        return sum(self.slice_sizes)

    def slice_layout(self) -> List[Tuple[int, int]]:
        """``(offset, size)`` of every slice, in pipeline order."""
        layout: List[Tuple[int, int]] = []
        offset = 0
        for size in self.slice_sizes:
            layout.append((offset, size))
            offset += size
        return layout

    def hop_order(self, slice_index: int) -> List[int]:
        """Hop positions, in the order they run for ``slice_index``.

        Linear chains always run ``0 .. k-1``; cyclic chains rotate the
        starting hop by ``slice_index mod (k - 1)`` (section 4.1), spreading
        the last-hop send load across helpers during full-node recovery.
        """
        k = len(self.hops)
        if not self.cyclic:
            return list(range(k))
        start = slice_index % (k - 1)
        return [(start + i) % k for i in range(k)]

    def hop_coefficients(self, position: int) -> Tuple[int, ...]:
        """Coefficients hop ``position`` applies, one per failed block."""
        return tuple(row[position] for row in self.coefficients)

    def coefficient(self, failed_index: int, block_index: int) -> int:
        """Coefficient applied to ``block_index`` when repairing
        ``failed_index``."""
        j = self.failed.index(failed_index)
        for position, hop in enumerate(self.hops):
            if hop.block_index == block_index:
                return self.coefficients[j][position]
        raise KeyError(f"block {block_index} is not a hop of this chain")

    # --------------------------------------------------------------- factory
    @classmethod
    def build(
        cls,
        request: RepairRequest,
        path: Sequence[int],
        plan: RepairPlan,
        cyclic: bool = False,
        block_key=None,
    ) -> "SliceChainPlan":
        """Build the chain plan from a repair request and a chosen path.

        Parameters
        ----------
        request:
            The repair request (provides stripe placement and slice sizing).
        path:
            Ordered helper block indices (the coordinator's chosen chain).
        plan:
            The code's repair plan over exactly the blocks in ``path``.
        cyclic:
            Rotate the chain per slice (section 4.1).
        block_key:
            Key function ``(stripe_id, block_index) -> str``; defaults to
            the coordinator's canonical key.
        """
        if block_key is None:
            from repro.ecpipe.coordinator import block_key as default_block_key

            block_key = default_block_key
        stripe = request.stripe
        hops = tuple(
            ChainHop(
                block_index=i,
                node=stripe.location(i),
                key=block_key(stripe.stripe_id, i),
            )
            for i in path
        )
        coefficients = tuple(
            tuple(plan.coefficient_for(f, i) for i in path) for f in request.failed
        )
        return cls(
            stripe_id=stripe.stripe_id,
            failed=tuple(request.failed),
            hops=hops,
            coefficients=coefficients,
            slice_sizes=tuple(request.slice_sizes()),
            cyclic=cyclic,
        )

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe wire form (everything a remote hop needs)."""
        return {
            "stripe_id": self.stripe_id,
            "failed": list(self.failed),
            "hops": [hop.to_dict() for hop in self.hops],
            "coefficients": [list(row) for row in self.coefficients],
            "slice_sizes": list(self.slice_sizes),
            "cyclic": self.cyclic,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SliceChainPlan":
        return cls(
            stripe_id=int(data["stripe_id"]),
            failed=tuple(int(i) for i in data["failed"]),
            hops=tuple(ChainHop.from_dict(h) for h in data["hops"]),
            coefficients=tuple(
                tuple(int(c) for c in row) for row in data["coefficients"]
            ),
            slice_sizes=tuple(int(s) for s in data["slice_sizes"]),
            cyclic=bool(data["cyclic"]),
        )


def combine_partials(
    incoming: Optional[bytearray],
    coefficients: Sequence[int],
    local: bytes,
) -> bytearray:
    """One hop's combine step over the *packed* partial layout.

    The packed layout concatenates the ``f`` per-failed-block partial slices
    into one buffer of ``f * len(local)`` bytes -- the unit a live hop
    receives from upstream and forwards downstream in a single frame.  Each
    section ``j`` accumulates ``coefficients[j] * local`` in place (GF(2^8)
    multiply-XOR).  ``incoming`` is ``None`` at the first hop of the chain,
    where each section is simply ``coefficients[j] * local`` scaled straight
    into the fresh buffer.

    Returns the packed outgoing buffer (``incoming`` mutated in place when
    given, so no per-hop allocation on the steady path).
    """
    nbytes = len(local)
    first_hop = incoming is None
    if first_hop:
        incoming = bytearray(nbytes * len(coefficients))
    elif len(incoming) != nbytes * len(coefficients):
        raise ValueError(
            f"packed partial of {len(incoming)} bytes does not match "
            f"{len(coefficients)} sections of {nbytes} bytes"
        )
    view = memoryview(incoming)
    for j, coeff in enumerate(coefficients):
        section = view[j * nbytes:(j + 1) * nbytes]
        if first_hop:
            gf_mul_into(coeff, local, section)
        else:
            gf_accumulate_into(section, coeff, local)
    return incoming


def split_packed(payload: bytes, num_sections: int) -> List[bytes]:
    """Split a packed partial buffer back into its per-failed sections."""
    if num_sections <= 0:
        raise ValueError("num_sections must be positive")
    total = len(payload)
    if total % num_sections:
        raise ValueError(
            f"packed payload of {total} bytes does not divide into "
            f"{num_sections} sections"
        )
    nbytes = total // num_sections
    return [bytes(payload[j * nbytes:(j + 1) * nbytes]) for j in range(num_sections)]


class BlockAssembler:
    """Reassembles a block from repaired slices arriving in any order.

    The in-process requestor receives slices strictly in offset order, but a
    live requestor may see deliveries interleaved across connections; the
    assembler accepts either, rejects duplicates and mismatched sizes, and
    only concatenates once every slice has arrived.
    """

    def __init__(self, slice_sizes: Sequence[int]) -> None:
        if not slice_sizes:
            raise ValueError("at least one slice is required")
        self._sizes = tuple(int(s) for s in slice_sizes)
        self._parts: Dict[int, bytes] = {}

    @property
    def num_slices(self) -> int:
        """Total number of slices expected."""
        return len(self._sizes)

    @property
    def received(self) -> int:
        """Number of slices received so far."""
        return len(self._parts)

    @property
    def complete(self) -> bool:
        """True once every slice has been received."""
        return len(self._parts) == len(self._sizes)

    def add(self, slice_index: int, data: bytes) -> None:
        """Record one repaired slice."""
        if not 0 <= slice_index < len(self._sizes):
            raise ValueError(
                f"slice index {slice_index} outside [0, {len(self._sizes)})"
            )
        if slice_index in self._parts:
            raise ValueError(f"slice {slice_index} delivered twice")
        if len(data) != self._sizes[slice_index]:
            raise ValueError(
                f"slice {slice_index} has {len(data)} bytes, "
                f"expected {self._sizes[slice_index]}"
            )
        self._parts[slice_index] = bytes(data)

    def assemble(self) -> bytes:
        """Concatenate the slices in offset order.

        Raises
        ------
        KeyError
            If any slice is still missing.
        """
        missing = [i for i in range(len(self._sizes)) if i not in self._parts]
        if missing:
            raise KeyError(f"slices {missing} have not been delivered")
        return b"".join(self._parts[i] for i in range(len(self._sizes)))
