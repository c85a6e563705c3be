"""Systematic Reed-Solomon codes over GF(2^8).

Reed-Solomon (RS) codes are the workhorse erasure codes of production storage
systems (HDFS, QFS, Ceph, Azure) and the default code in every experiment of
the paper.  They are *maximum distance separable* (MDS): any ``k`` of the
``n`` coded blocks of a stripe suffice to reconstruct the stripe, and repairing
a single failed block therefore reads ``k`` available blocks.

The implementation systematises a Vandermonde matrix, so the first ``k`` coded
blocks are the data blocks verbatim and the remaining ``n - k`` are parities.
A Cauchy construction is also available (``construction="cauchy"``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.codes.base import DecodeError, ErasureCode, RepairPlan
from repro.codes.solver import InsufficientBlocksError, solve_repair_coefficients
from repro.gf.gf256 import FIELD_SIZE, gf_mulsum_bytes, gf_mulsum_into
from repro.gf.matrix import GFMatrix, cauchy_matrix, identity_matrix, vandermonde_matrix


class RSCode(ErasureCode):
    """An ``(n, k)`` systematic Reed-Solomon code.

    Parameters
    ----------
    n:
        Total number of coded blocks per stripe.
    k:
        Number of data blocks per stripe (``k < n``).
    construction:
        ``"vandermonde"`` (default) or ``"cauchy"``; selects how the parity
        sub-matrix is built.  Both yield MDS codes.
    """

    def __init__(self, n: int, k: int, construction: str = "vandermonde") -> None:
        super().__init__(n, k)
        if n > FIELD_SIZE:
            raise ValueError("RS codes over GF(2^8) support at most n = 256")
        if construction not in ("vandermonde", "cauchy"):
            raise ValueError(f"unknown construction {construction!r}")
        self._construction = construction
        self._generator = self._build_generator()

    # ------------------------------------------------------------ generator
    def _build_generator(self) -> GFMatrix:
        """Build the systematic ``n x k`` generator matrix."""
        if self._construction == "vandermonde":
            vand = vandermonde_matrix(self.n, self.k)
            top = vand.select_rows(range(self.k))
            # Right-multiplying by the inverse of the top square turns the
            # top k rows into the identity while preserving the MDS property.
            return vand.matmul(top.invert())
        # Cauchy construction: identity on top, Cauchy parity rows below.
        x_points = list(range(self.k, self.n))
        y_points = list(range(self.k))
        parity = cauchy_matrix(x_points, y_points)
        rows = identity_matrix(self.k).rows() + parity.rows()
        return GFMatrix(rows)

    @property
    def generator_matrix(self) -> GFMatrix:
        """The systematic ``n x k`` generator matrix (coded = G * data)."""
        return self._generator

    @property
    def construction(self) -> str:
        """How the parity sub-matrix was built (``vandermonde``/``cauchy``)."""
        return self._construction

    # --------------------------------------------------------------- encode
    def encode(self, data_blocks: Sequence[bytes]) -> List[np.ndarray]:
        """Encode ``k`` equal-length data blocks into ``n`` coded blocks.

        Inputs may be any byte buffers -- including ``memoryview`` slices of
        one contiguous object payload, which the kernels read zero-copy.
        """
        if len(data_blocks) != self.k:
            raise ValueError(f"expected {self.k} data blocks, got {len(data_blocks)}")
        length = len(data_blocks[0])
        if any(len(b) != length for b in data_blocks):
            raise ValueError("all data blocks must have the same length")
        return [
            gf_mulsum_bytes(self._generator.row(i), data_blocks)
            for i in range(self.n)
        ]

    def encode_into(self, data_blocks, outs) -> None:
        """Encode into caller-owned buffers (see the base class).

        ``data_blocks`` is ``k`` byte buffers or the rows of one ``(k, L)``
        ``uint8`` array -- the gateway's column slice of its padded object
        buffer, read in place.  A systematic row is a unit vector, which the
        GF kernel turns into one copy; only the ``n - k`` parity rows cost
        table lookups.
        """
        if len(outs) != self.n:
            raise ValueError(f"expected {self.n} output buffers, got {len(outs)}")
        blocks = list(data_blocks)
        if len(blocks) != self.k:
            raise ValueError(f"expected {self.k} data blocks, got {len(blocks)}")
        for i, out in enumerate(outs):
            if out is not None:
                gf_mulsum_into(self._generator.row(i), blocks, out)

    # --------------------------------------------------------------- decode
    def decode(self, available: Mapping[int, bytes]) -> List[np.ndarray]:
        """Reconstruct all ``n`` blocks from any ``k`` available blocks."""
        self.validate_block_indices(list(available))
        if len(available) < self.k:
            raise DecodeError(
                f"need at least {self.k} blocks to decode, got {len(available)}"
            )
        chosen = sorted(available)[: self.k]
        sub = self._generator.select_rows(chosen)
        decode_matrix = sub.invert()
        coded_subset = [available[i] for i in chosen]
        return self.encode(
            [
                gf_mulsum_bytes(decode_matrix.row(j), coded_subset)
                for j in range(self.k)
            ]
        )

    # --------------------------------------------------------------- repair
    def _compute_repair_plan(
        self,
        failed: Sequence[int],
        available: Optional[Sequence[int]] = None,
    ) -> RepairPlan:
        """Return helpers and coefficients for repairing ``failed`` blocks.

        For an MDS code the plan always uses exactly ``k`` helpers; when more
        than ``k`` blocks are available, the lowest-indexed ``k`` are chosen
        (repair schemes that care about *which* helpers -- e.g. greedy
        scheduling or weighted path selection -- restrict ``available``
        themselves).
        """
        failed = list(failed)
        self.validate_block_indices(failed)
        if not 1 <= len(failed) <= self.fault_tolerance():
            raise ValueError(
                f"can repair between 1 and {self.fault_tolerance()} blocks, "
                f"got {len(failed)}"
            )
        if available is None:
            available = [i for i in range(self.n) if i not in failed]
        else:
            available = list(available)
            self.validate_block_indices(available)
            if set(available) & set(failed):
                raise ValueError("available blocks overlap with failed blocks")
        if len(available) < self.k:
            raise DecodeError(
                f"need at least {self.k} available blocks, got {len(available)}"
            )
        helpers = sorted(available)[: self.k]
        try:
            used_helpers, coefficients = solve_repair_coefficients(
                self._generator, failed, helpers
            )
        except InsufficientBlocksError as exc:  # pragma: no cover - MDS codes never hit this
            raise DecodeError(str(exc)) from exc
        # MDS repair genuinely reads all k helpers even if a coefficient is
        # zero for a particular failed block, so report the full helper set.
        helper_tuple = tuple(helpers)
        coeff_rows = []
        for row_idx in range(len(failed)):
            row: Dict[int, int] = {h: 0 for h in helpers}
            for h, c in zip(used_helpers, (coefficients[row_idx])):
                row[h] = c
            coeff_rows.append(tuple(row[h] for h in helper_tuple))
        return RepairPlan(tuple(failed), helper_tuple, tuple(coeff_rows))
