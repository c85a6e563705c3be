"""Phi-accrual failure detection over helper heartbeats.

Helpers send periodic ``HEARTBEAT`` frames; the coordinator feeds the
arrival times into a :class:`PhiFailureDetector`.  Instead of a binary
timeout, the detector computes the *suspicion level*

    phi(node, now) = (now - last_beat) / mean_interval * log10(e)

-- the accrual formulation of Hayashibara et al. under an exponential
inter-arrival model: ``phi = -log10 P(gap > observed)``, where the mean
inter-arrival is estimated from a sliding window of recent beats.  The two
thresholds map suspicion onto the classic state ladder:

* ``alive``    -- phi below the suspect threshold;
* ``suspect``  -- phi crossed :attr:`suspect_phi`: the planner should stop
  choosing this helper, but the scanner does not yet relocate its blocks
  (a paused process or a long GC pause recovers from here -- one beat
  resets phi to zero and the node un-suspects);
* ``dead``     -- phi crossed :attr:`dead_phi`: the repair scanner treats
  the node's blocks as lost and schedules re-repair.

The priming interval is the ``REPRO_HEARTBEAT_INTERVAL`` knob (read by
:func:`detector_from_env`), the thresholds are constructor arguments and the
clock is injectable, so the timing-edge tests run in virtual time.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.config import env_float

#: log10(e): converts an exponential tail exponent into decimal digits of
#: suspicion (phi = gap/mean * LOG10E  <=>  P(gap) = 10**-phi).
LOG10E = math.log10(math.e)

#: Detector states, in escalation order.
ALIVE, SUSPECT, DEAD = "alive", "suspect", "dead"

#: Default phi thresholds: suspect at ~2.3x the mean inter-arrival
#: (phi=1 -> gap = ln(10)*mean), dead at ~4.6x.
DEFAULT_SUSPECT_PHI = 1.0
DEFAULT_DEAD_PHI = 2.0

#: Floor on the estimated mean interval, seconds -- a burst of rapid beats
#: must not make the detector hair-triggered.
DEFAULT_MIN_INTERVAL = 0.05

#: Assumed mean inter-arrival while a node has no interval samples yet
#: (a single beat observed).  Set to the helpers' heartbeat interval so a
#: freshly registered node gets the same grace an established one would,
#: instead of being declared dead before its second beat.
DEFAULT_PRIME_INTERVAL = 0.25

#: Sliding window of inter-arrival samples per node.
DEFAULT_WINDOW = 16


class PhiFailureDetector:
    """Accrual failure detector over per-node heartbeat arrivals.

    Parameters
    ----------
    suspect_phi, dead_phi:
        Suspicion thresholds (``suspect_phi < dead_phi``).
    min_interval:
        Floor on the estimated mean inter-arrival, seconds.
    prime_interval:
        Assumed mean inter-arrival before a node has interval samples.
    window:
        Inter-arrival samples kept per node.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        suspect_phi: float = DEFAULT_SUSPECT_PHI,
        dead_phi: float = DEFAULT_DEAD_PHI,
        min_interval: float = DEFAULT_MIN_INTERVAL,
        prime_interval: float = DEFAULT_PRIME_INTERVAL,
        window: int = DEFAULT_WINDOW,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if suspect_phi <= 0 or dead_phi <= 0:
            raise ValueError("phi thresholds must be positive")
        if dead_phi <= suspect_phi:
            raise ValueError("dead_phi must exceed suspect_phi")
        if min_interval <= 0:
            raise ValueError("min_interval must be positive")
        if prime_interval <= 0:
            raise ValueError("prime_interval must be positive")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.suspect_phi = float(suspect_phi)
        self.dead_phi = float(dead_phi)
        self.min_interval = float(min_interval)
        self.prime_interval = float(prime_interval)
        self.window = int(window)
        self.clock = clock
        self._last_beat: Dict[str, float] = {}
        self._intervals: Dict[str, Deque[float]] = {}

    # ----------------------------------------------------------------- beats
    def beat(self, node: str, now: Optional[float] = None) -> None:
        """Record one heartbeat arrival; resets the node's suspicion."""
        at = self.clock() if now is None else float(now)
        last = self._last_beat.get(node)
        if last is not None and at > last:
            self._intervals.setdefault(node, deque(maxlen=self.window)).append(
                at - last
            )
        self._last_beat[node] = at

    def forget(self, node: str) -> None:
        """Drop a node from the detector (deregistration)."""
        self._last_beat.pop(node, None)
        self._intervals.pop(node, None)

    def nodes(self) -> List[str]:
        """Every node that has ever beaten, sorted."""
        return sorted(self._last_beat)

    # ------------------------------------------------------------- suspicion
    def mean_interval(self, node: str) -> float:
        """Estimated mean inter-arrival of a node's beats, floored."""
        samples = self._intervals.get(node)
        if not samples:
            return max(self.prime_interval, self.min_interval)
        return max(sum(samples) / len(samples), self.min_interval)

    def phi(self, node: str, now: Optional[float] = None) -> float:
        """Current suspicion level of ``node`` (inf for unknown nodes)."""
        last = self._last_beat.get(node)
        if last is None:
            return math.inf
        at = self.clock() if now is None else float(now)
        gap = max(0.0, at - last)
        return gap / self.mean_interval(node) * LOG10E

    def state(self, node: str, now: Optional[float] = None) -> str:
        """``alive`` / ``suspect`` / ``dead`` for ``node``.

        Thresholds are exclusive: a beat landing *exactly* at the threshold
        gap leaves the node in the lower state, so "beat exactly at the
        timeout" never flaps.
        """
        phi = self.phi(node, now)
        if phi > self.dead_phi:
            return DEAD
        if phi > self.suspect_phi:
            return SUSPECT
        return ALIVE

    def dead(self, now: Optional[float] = None) -> List[str]:
        """Nodes currently past the dead threshold, sorted."""
        at = self.clock() if now is None else float(now)
        return [n for n in self.nodes() if self.state(n, at) == DEAD]

    def unusable(self, now: Optional[float] = None) -> List[str]:
        """Nodes currently suspect *or* dead, sorted (planner exclusions)."""
        at = self.clock() if now is None else float(now)
        return [n for n in self.nodes() if self.state(n, at) != ALIVE]

    def report(self, now: Optional[float] = None) -> Dict[str, Dict[str, object]]:
        """Per-node diagnostic snapshot (served by the DETECTOR op)."""
        at = self.clock() if now is None else float(now)
        return {
            node: {
                "state": self.state(node, at),
                "phi": round(self.phi(node, at), 3),
                "age": round(max(0.0, at - self._last_beat[node]), 4),
                "mean_interval": round(self.mean_interval(node), 4),
            }
            for node in self.nodes()
        }


def detector_from_env() -> PhiFailureDetector:
    """Build a detector primed from ``REPRO_HEARTBEAT_INTERVAL``.

    The priming interval for nodes without samples is the one knob (shared
    with the helpers' heartbeat loop); the phi thresholds are the
    constructor's defaults.
    """
    return PhiFailureDetector(
        prime_interval=env_float(
            "REPRO_HEARTBEAT_INTERVAL", DEFAULT_PRIME_INTERVAL, minimum=0.01
        )
    )


__all__ = [
    "ALIVE",
    "DEAD",
    "LOG10E",
    "PhiFailureDetector",
    "SUSPECT",
    "detector_from_env",
]
