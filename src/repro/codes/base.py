"""Common interface for linear, systematic erasure codes.

Every code in :mod:`repro.codes` is *linear* over GF(2^8): any coded block
``B*`` of a stripe can be written as ``B* = sum_i a_i B_i`` for decoding
coefficients ``a_i`` over some basis of ``k`` available blocks (section 2.1 of
the paper).  Repair pipelining, PPR and conventional repair all consume the
same :class:`RepairPlan` -- the set of helpers and their coefficients -- and
differ only in *how* the partial products are routed through the network.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.gf.gf256 import gf_mulsum_bytes


class DecodeError(ValueError):
    """Raised when the available blocks are insufficient to decode a stripe."""


@dataclass(frozen=True)
class RepairPlan:
    """A plan for reconstructing one or more failed blocks of a stripe.

    Attributes
    ----------
    failed:
        Indices (within the stripe, ``0 <= i < n``) of the blocks being
        reconstructed.
    helpers:
        Indices of the blocks that must be read.  Helpers are listed in the
        order the coefficient columns refer to them.
    coefficients:
        One row per failed block; ``coefficients[j][i]`` is the GF(2^8)
        coefficient applied to ``helpers[i]``'s block when reconstructing
        ``failed[j]``.
    """

    failed: Tuple[int, ...]
    helpers: Tuple[int, ...]
    coefficients: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.failed):
            raise ValueError("one coefficient row is required per failed block")
        for row in self.coefficients:
            if len(row) != len(self.helpers):
                raise ValueError("coefficient rows must match the helper count")
        if set(self.failed) & set(self.helpers):
            raise ValueError("a failed block cannot serve as its own helper")

    @property
    def num_failed(self) -> int:
        """Number of blocks being reconstructed."""
        return len(self.failed)

    @property
    def num_helpers(self) -> int:
        """Number of helper blocks read by the repair."""
        return len(self.helpers)

    def coefficient_for(self, failed_index: int, helper_index: int) -> int:
        """Return the coefficient applied to ``helper_index`` when repairing
        ``failed_index``."""
        j = self.failed.index(failed_index)
        i = self.helpers.index(helper_index)
        return self.coefficients[j][i]

    def reconstruct(self, helper_payloads: Mapping[int, bytes]) -> Dict[int, np.ndarray]:
        """Reconstruct the failed blocks from real helper payloads.

        Parameters
        ----------
        helper_payloads:
            Mapping from helper block index to its byte payload.  Every helper
            in :attr:`helpers` must be present and all payloads must have the
            same length.

        Returns
        -------
        dict
            Mapping from failed block index to its reconstructed payload.
        """
        missing = [h for h in self.helpers if h not in helper_payloads]
        if missing:
            raise KeyError(f"missing payloads for helpers {missing}")
        buffers = [helper_payloads[h] for h in self.helpers]
        out: Dict[int, np.ndarray] = {}
        for failed_index, row in zip(self.failed, self.coefficients):
            out[failed_index] = gf_mulsum_bytes(row, buffers)
        return out


#: Per-code bound on memoized repair plans; generously above what any month
#: trace produces (patterns are tuples of failed/available indices), purely a
#: guard against adversarial churn.
_PLAN_CACHE_LIMIT = 4096


class ErasureCode(abc.ABC):
    """Abstract base class for systematic linear erasure codes over GF(2^8)."""

    def __init__(self, n: int, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if n <= k:
            raise ValueError("n must be greater than k")
        self._n = n
        self._k = k
        # Memoized repair plans keyed by (failed, available) index tuples.
        # Erasure patterns repeat constantly over a long trace, and a
        # RepairPlan is a frozen value object, so sharing one instance per
        # pattern is safe; hit/miss counters feed the perf benchmarks.
        self._plan_cache: Dict[
            Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]], RepairPlan
        ] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: When false, every :meth:`repair_plan` call recomputes from
        #: scratch (counted as a miss).  The conformance harness disables
        #: the cache on reference-engine trials so plan memoization is one
        #: of the layers the differential comparison independently checks.
        self.plan_cache_enabled = True

    def disable_caches(self) -> None:
        """Turn off plan memoization and the GF solver memo (if the family
        keeps one on its generator matrix).

        The conformance harness calls this on reference-engine trials so
        the cached layers are differentially *re-exercised* against the
        optimized run instead of replayed from a shared cache.
        """
        self.plan_cache_enabled = False
        generator = getattr(self, "_generator", None)
        if generator is not None:
            generator.solve_cache_enabled = False

    # ----------------------------------------------------------------- shape
    @property
    def n(self) -> int:
        """Total number of coded blocks per stripe."""
        return self._n

    @property
    def k(self) -> int:
        """Number of data blocks per stripe."""
        return self._k

    @property
    def num_parity(self) -> int:
        """Number of parity blocks per stripe."""
        return self._n - self._k

    @property
    def storage_overhead(self) -> float:
        """Storage blow-up factor ``n / k``."""
        return self._n / self._k

    def fault_tolerance(self) -> int:
        """Maximum number of simultaneous block failures tolerated."""
        return self._n - self._k

    # ------------------------------------------------------------------- API
    @abc.abstractmethod
    def encode(self, data_blocks: Sequence[bytes]) -> List[np.ndarray]:
        """Encode ``k`` data blocks into ``n`` coded blocks (systematic)."""

    @abc.abstractmethod
    def decode(self, available: Mapping[int, bytes]) -> List[np.ndarray]:
        """Reconstruct all ``n`` blocks of a stripe from the available ones.

        Raises
        ------
        DecodeError
            If the available blocks are insufficient.
        """

    def encode_into(self, data_blocks: Sequence[bytes], outs: Sequence) -> None:
        """Encode into ``n`` caller-owned output buffers (no allocation).

        The segment-wise sibling of :meth:`encode` used by the streaming
        data plane: the gateway encodes one bounded segment of a large
        object at a time, reusing the same output buffers for every
        segment.  An entry of ``outs`` may be ``None`` when the caller does
        not want that block produced -- the gateway streams the systematic
        blocks straight from its object buffer and asks only for parity.
        The base implementation delegates to :meth:`encode` and copies;
        linear families override it with in-place kernels.  For a
        systematic linear code the result over any aligned segment equals
        the same segment of a whole-block encode, which is what makes
        incremental encoding byte-identical to the single-shot path.
        """
        if len(outs) != self.n:
            raise ValueError(f"expected {self.n} output buffers, got {len(outs)}")
        for out, coded in zip(outs, self.encode(list(data_blocks))):
            if out is not None:
                out[:] = coded

    def repair_plan(
        self,
        failed: Sequence[int],
        available: Optional[Sequence[int]] = None,
    ) -> RepairPlan:
        """Return the helper set and decoding coefficients for a repair.

        Successful plans are memoized per ``(failed, available)`` pattern --
        the repeated-pattern hot path of the continuous runtime -- while
        invalid inputs re-raise on every call.  Subclasses implement
        :meth:`_compute_repair_plan`.

        Parameters
        ----------
        failed:
            Stripe-local indices of the failed blocks (``1 <= len <= n - k``).
        available:
            Optional restriction of which surviving blocks may be used; by
            default every non-failed block is available.
        """
        key = (
            tuple(failed),
            None if available is None else tuple(available),
        )
        if not self.plan_cache_enabled:
            self.plan_cache_misses += 1
            return self._compute_repair_plan(list(key[0]), available)
        cache = self._plan_cache
        plan = cache.get(key)
        if plan is not None:
            self.plan_cache_hits += 1
            return plan
        self.plan_cache_misses += 1
        plan = self._compute_repair_plan(list(key[0]), available)
        if len(cache) >= _PLAN_CACHE_LIMIT:
            cache.clear()
        cache[key] = plan
        return plan

    @abc.abstractmethod
    def _compute_repair_plan(
        self,
        failed: Sequence[int],
        available: Optional[Sequence[int]] = None,
    ) -> RepairPlan:
        """Uncached plan computation (see :meth:`repair_plan`)."""

    # ----------------------------------------------------------- conveniences
    def repair_read_count(self, failed_index: int) -> int:
        """Number of helper blocks a single-block repair reads.

        For MDS codes this is ``k``; repair-friendly codes override it.
        """
        return self.repair_plan([failed_index]).num_helpers

    def validate_block_indices(self, indices: Sequence[int]) -> None:
        """Raise ``ValueError`` if any index is outside ``[0, n)`` or repeated."""
        seen = set()
        for idx in indices:
            if not 0 <= idx < self._n:
                raise ValueError(f"block index {idx} outside [0, {self._n})")
            if idx in seen:
                raise ValueError(f"block index {idx} repeated")
            seen.add(idx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self._n}, k={self._k})"
