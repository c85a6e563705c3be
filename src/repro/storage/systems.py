"""Storage-system facades: HDFS-RAID, HDFS-3 and QFS.

Each facade bundles (i) a byte-level data plane built on :mod:`repro.ecpipe`,
whose coordinator is also the facade's only stripe catalogue, (ii) the two
pieces of NameNode state the coordinator does not keep -- which stripes make
up a file and which blocks are currently failed -- and (iii) a timing model
of the system's *original* repair code path.  The original path differs from ECPipe's in two
ways the paper measures in section 6.3:

* helper blocks are read through the distributed storage system's own read
  routine rather than directly from the native file system, which adds a
  per-block metadata/copy overhead;
* the repairing node opens a connection to each of the ``k`` helpers, an
  overhead that grows with ``k`` (this is why ECPipe's conventional repair
  overtakes the original one for large ``k`` in HDFS-3 full-node recovery).

The per-system default parameters (code, block size, encoding mode, repair
overheads) follow section 5.1 and the magnitudes measured in Figure 10.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.units import MiB
from repro.codes.base import ErasureCode
from repro.codes.rs import RSCode
from repro.core.conventional import ConventionalRepair
from repro.core.pipelining import RepairPipelining
from repro.core.planner import RepairScheme
from repro.core.request import StripeInfo
from repro.ecpipe.coordinator import block_key
from repro.ecpipe.middleware import ECPipe
from repro.storage.placement import FlatPlacement


class OriginalStorageRepair(ConventionalRepair):
    """Timing model of a storage system's built-in conventional repair.

    Identical traffic pattern to :class:`ConventionalRepair`, plus the
    original code path's overheads: per-helper connection setup serialised at
    the repairing node (the DataNode opens the streams one by one), and
    per-block reads through the DSS routine instead of the native file
    system.
    """

    name = "original-repair"

    def __init__(self, dss_read_overhead: float, connection_overhead: float) -> None:
        super().__init__(
            dss_read_overhead=dss_read_overhead, connection_overhead=connection_overhead
        )


class StorageSystem:
    """Base class for the simulated distributed storage systems.

    Parameters
    ----------
    nodes:
        Storage node names (DataNodes / ChunkServers).
    code:
        Erasure code; defaults to the system's default code.
    block_size:
        Block size in bytes; defaults to the system's default.
    cluster:
        Optional cluster topology for ECPipe's path selection.
    """

    #: Human-readable system name.
    system_name = "storage-system"
    #: Default erasure code parameters (n, k).
    default_code_params: Tuple[int, int] = (9, 6)
    #: Default block size in bytes.
    default_block_size: int = 64 * MiB
    #: "online" (encode on the write path) or "offline" (encode in the background).
    encoding_mode = "online"
    #: Per-block overhead of reading through the DSS routine (seconds).
    dss_read_overhead = 0.10
    #: Per-helper connection-setup overhead of the original repair (seconds).
    connection_overhead = 0.02

    def __init__(
        self,
        nodes: Sequence[str],
        code: Optional[ErasureCode] = None,
        block_size: Optional[int] = None,
        cluster: Optional[Cluster] = None,
    ) -> None:
        if not nodes:
            raise ValueError("at least one storage node is required")
        n, k = self.default_code_params
        self.code = code if code is not None else RSCode(n, k)
        self.block_size = block_size if block_size is not None else self.default_block_size
        self.placement = FlatPlacement(nodes)
        self.ecpipe = ECPipe(nodes, cluster=cluster)
        self.nodes = list(nodes)
        #: File name -> ids of its stripes, in write order.
        self.files: Dict[str, List[int]] = {}
        #: ``(stripe_id, block_index)`` of every block currently failed.
        self.failed: Set[Tuple[int, int]] = set()
        self._stripes_written = 0

    # -------------------------------------------------------------- metadata
    def stripe(self, stripe_id: int) -> StripeInfo:
        """Look up a stripe in the ECPipe coordinator's catalogue."""
        return self.ecpipe.coordinator.stripe(stripe_id)

    def stripes(self, file_name: Optional[str] = None) -> List[StripeInfo]:
        """All stripes, optionally restricted to one file."""
        if file_name is None:
            return self.ecpipe.coordinator.stripes()
        try:
            return [self.stripe(stripe_id) for stripe_id in self.files[file_name]]
        except KeyError:
            raise KeyError(f"unknown file {file_name!r}") from None

    def failed_blocks(self) -> List[Tuple[int, int]]:
        """All currently failed blocks."""
        return sorted(self.failed)

    # ------------------------------------------------------------ write path
    def write_file(self, name: str, data: bytes) -> List[StripeInfo]:
        """Store a file: split into stripes of ``k`` blocks, encode and place.

        Online-encoding systems (HDFS-3, QFS) encode on the write path;
        HDFS-RAID's offline encoding is modelled by the same call because the
        repair experiments only depend on the final erasure-coded layout.
        The last block of the last stripe is zero-padded to the block size.
        """
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        stripe_ids = self.files[name] = []
        k = self.code.k
        stripe_bytes = k * self.block_size
        stripes: List[StripeInfo] = []
        for offset in range(0, max(len(data), 1), stripe_bytes):
            chunk = data[offset:offset + stripe_bytes]
            chunk = chunk.ljust(stripe_bytes, b"\0")
            data_blocks = [
                chunk[i * self.block_size:(i + 1) * self.block_size] for i in range(k)
            ]
            coded = [buf.tobytes() for buf in self.code.encode(data_blocks)]
            stripe_id = self._stripes_written
            self._stripes_written += 1
            stripe = StripeInfo(
                self.code, self.placement.place(stripe_id, self.code.n), stripe_id=stripe_id
            )
            self.ecpipe.add_stripe(stripe, dict(enumerate(coded)))
            stripe_ids.append(stripe_id)
            stripes.append(stripe)
        return stripes

    def read_block(self, stripe_id: int, block_index: int) -> bytes:
        """Normal read of a healthy block."""
        helper = self.ecpipe.helper(self.stripe(stripe_id).location(block_index))
        return helper.read_block(block_key(stripe_id, block_index))

    # --------------------------------------------------------------- failure
    def fail_block(self, stripe_id: int, block_index: int) -> None:
        """Erase one block and record it as failed."""
        self.ecpipe.erase_block(stripe_id, block_index)
        self.failed.add((stripe_id, block_index))

    def fail_node(self, node: str) -> List[Tuple[int, int]]:
        """Erase every block of a node and record the failures."""
        lost = self.ecpipe.erase_node(node)
        self.failed.update(lost)
        return lost

    # ------------------------------------------------------------ repair API
    def degraded_read(
        self, stripe_id: int, block_index: int, client_node: str, slice_size: int
    ) -> bytes:
        """Serve a degraded read through ECPipe repair pipelining."""
        repaired = self.ecpipe.repair_pipelined(
            stripe_id, [block_index], client_node, slice_size
        )
        return repaired[block_index]

    def repair_block(
        self, stripe_id: int, block_index: int, target_node: str, slice_size: int
    ) -> bytes:
        """Reconstruct a failed block, write it back and clear its failed state."""
        payload = self.degraded_read(stripe_id, block_index, target_node, slice_size)
        self.restore_block(stripe_id, block_index, payload)
        return payload

    def restore_block(self, stripe_id: int, block_index: int, payload: bytes) -> None:
        """Write a reconstructed block back and clear its failed state."""
        self.ecpipe.restore_block(stripe_id, block_index, payload)
        self.failed.discard((stripe_id, block_index))

    # ------------------------------------------------------------ timing API
    def original_repair_scheme(self) -> OriginalStorageRepair:
        """Timing model of this system's built-in repair path."""
        return OriginalStorageRepair(self.dss_read_overhead, self.connection_overhead)

    @staticmethod
    def ecpipe_conventional_scheme() -> ConventionalRepair:
        """Conventional repair executed by ECPipe helpers (native reads)."""
        return ConventionalRepair()

    @staticmethod
    def ecpipe_pipelining_scheme() -> RepairPipelining:
        """Repair pipelining executed by ECPipe helpers."""
        return RepairPipelining("rp")

    def repair_schemes(self) -> Dict[str, RepairScheme]:
        """The three repair paths compared in Figure 10."""
        return {
            self.system_name: self.original_repair_scheme(),
            "ecpipe-conventional": self.ecpipe_conventional_scheme(),
            "ecpipe-rp": self.ecpipe_pipelining_scheme(),
        }


class HDFSRaid(StorageSystem):
    """Facebook's HDFS-RAID: offline encoding on Hadoop 0.20 HDFS.

    The RaidNode encodes replicated blocks in the background and repairs
    failed blocks either locally or through MapReduce jobs; degraded reads go
    through the RAID file-system client.  Its original repair path reads
    helper blocks through HDFS, which is the overhead ECPipe bypasses
    (Figure 10(a)).
    """

    system_name = "hdfs-raid"
    default_code_params = (14, 10)
    default_block_size = 64 * MiB
    encoding_mode = "offline"
    dss_read_overhead = 0.12
    connection_overhead = 0.02


class HDFS3(StorageSystem):
    """Hadoop 3.1.1 HDFS with built-in (online) erasure coding.

    An HDFS client encodes 1 MiB cells on the write path; the NameNode
    assigns repairs to DataNodes, which open connections to ``k`` helper
    DataNodes -- the connection-setup cost that grows with ``k`` and lets
    ECPipe's conventional repair overtake the original path for large ``k``
    (Figure 10(b)).
    """

    system_name = "hdfs-3"
    default_code_params = (9, 6)
    default_block_size = 64 * MiB
    encoding_mode = "online"
    dss_read_overhead = 0.06
    connection_overhead = 0.08


class QFS(StorageSystem):
    """The Quantcast File System: online encoding, ``(9, 6)`` RS codes.

    A ChunkServer performs repairs by retrieving six available blocks from
    other ChunkServers (Figure 10(c)-(d)).
    """

    system_name = "qfs"
    default_code_params = (9, 6)
    default_block_size = 64 * MiB
    encoding_mode = "online"
    dss_read_overhead = 0.15
    connection_overhead = 0.02
