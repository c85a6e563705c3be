"""ECPipe helper daemon.

A helper runs next to every storage node.  It reads the locally stored
blocks directly from the native file system (bypassing the distributed
storage system's read routine), computes partial slices -- the ``a_i B_i``
terms of the repair linear combination -- and hands slices to the next hop
through the receiver's slice store.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.ecpipe.slicestore import SliceStore
from repro.gf.gf256 import gf_mul_bytes, gf_mulsum_bytes


class Helper:
    """A per-node helper daemon holding that node's blocks.

    Parameters
    ----------
    node:
        Name of the storage node this helper is co-located with.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self.store = SliceStore(owner=node)
        self._blocks: Dict[str, bytes] = {}
        #: Number of native-file-system whole-block reads performed.
        self.blocks_read = 0
        #: Total bytes read from locally stored blocks (whole blocks or slices).
        self.bytes_read = 0
        #: Total bytes pushed to other helpers or requestors.
        self.bytes_sent = 0

    # -------------------------------------------------------------- storage
    def store_block(self, key: str, data: bytes) -> None:
        """Persist a block locally (the native-file-system file)."""
        self._blocks[key] = bytes(data)

    def has_block(self, key: str) -> bool:
        """True if the helper's node stores the block."""
        return key in self._blocks

    def delete_block(self, key: str) -> None:
        """Drop a block (used to inject block loss)."""
        self._blocks.pop(key, None)

    def read_block(self, key: str) -> bytes:
        """Read a whole block from the local file system."""
        if key not in self._blocks:
            raise KeyError(f"helper {self.node!r} does not store block {key!r}")
        self.blocks_read += 1
        self.bytes_read += len(self._blocks[key])
        return self._blocks[key]

    def read_slice(self, key: str, offset: int, length: int) -> memoryview:
        """``length`` bytes of a block starting at ``offset``, without a copy.

        The result is a read-only view of the stored block.  The view itself
        keeps the block's ``bytes`` object alive, so it stays valid -- and a
        frame written from it stays intact in a transport's buffer -- after
        :meth:`delete_block` or an overwriting :meth:`store_block` (which
        replace the dictionary entry, never the object).  Nothing stores a
        view: it is combined, or sent, and dropped.
        """
        if key not in self._blocks:
            raise KeyError(f"helper {self.node!r} does not store block {key!r}")
        block = self._blocks[key]
        if offset < 0 or length < 0 or offset + length > len(block):
            raise ValueError(
                f"slice [{offset}, {offset + length}) outside block of {len(block)} bytes"
            )
        self.bytes_read += length
        return memoryview(block)[offset:offset + length]

    def block_keys(self):
        """Keys of all locally stored blocks."""
        return list(self._blocks)

    def store_bytes(self) -> int:
        """Total bytes of all locally stored blocks."""
        return sum(len(block) for block in self._blocks.values())

    # ------------------------------------------------------------ computing
    @staticmethod
    def scale_slice(coefficient: int, data: bytes) -> bytes:
        """Compute ``coefficient * data`` over GF(2^8)."""
        return gf_mul_bytes(coefficient, data).tobytes()

    @staticmethod
    def combine(partial: Optional[bytes], coefficient: int, data: bytes) -> bytes:
        """Add ``coefficient * data`` to an incoming partial slice.

        ``partial`` may be ``None`` for the first helper of a path.
        """
        if partial is None:
            return Helper.scale_slice(coefficient, data)
        if len(partial) != len(data):
            raise ValueError("partial slice and local slice differ in length")
        return gf_mulsum_bytes([1, coefficient], [partial, data]).tobytes()

    # ------------------------------------------------------------ messaging
    def push(self, target: Union["Helper", "RequestorLike"], key: str, data: bytes) -> None:
        """Deliver a slice to another helper's or a requestor's slice store."""
        target.store.put(key, data)
        self.bytes_sent += len(data)


class RequestorLike:
    """Structural interface for push targets (anything with a slice store)."""

    store: SliceStore
