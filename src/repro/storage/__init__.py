"""Simulated distributed storage systems (section 5.1).

The paper integrates ECPipe into three open-source systems; this subpackage
provides faithful facades of the parts of each system that matter for the
repair experiments of section 6.3:

* **HDFS-RAID** -- Facebook's erasure-coding extension of Hadoop 0.20 HDFS:
  offline encoding by a RaidNode, repairs issued by the RaidNode or the RAID
  file-system client.
* **HDFS-3** -- Hadoop 3.1.1 HDFS with built-in erasure coding: online
  encoding on the write path, repairs assigned to a DataNode by the NameNode.
* **QFS** -- the Quantcast File System: online encoding, ``(9, 6)`` RS codes,
  repairs performed by a ChunkServer.

Each facade couples three things: a byte-level data plane built on
:mod:`repro.ecpipe` (whose coordinator is the facade's stripe catalogue), the
NameNode state beside it (file -> stripes, failed blocks), and a timing model
of the system's *original* repair path.  The original path reads
helper blocks through the storage system's own read routine and opens a
connection per helper, the overheads that section 6.3 shows ECPipe avoids by
letting helpers read blocks directly from the native file system.
"""

from repro.storage.placement import FlatPlacement, RackAwarePlacement
from repro.storage.systems import HDFS3, QFS, HDFSRaid, StorageSystem

__all__ = [
    "FlatPlacement",
    "RackAwarePlacement",
    "StorageSystem",
    "HDFSRaid",
    "HDFS3",
    "QFS",
]
