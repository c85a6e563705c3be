"""Readers for ``REPRO_*`` environment knobs.

One parser for every layer -- the service plane, the experiment engine, the
conformance CLI and the benchmark scripts -- so a knob misconfigured
anywhere fails the same way: on read, with a ``ValueError`` naming the
variable.  EXPERIMENTS.md lists every knob the source reads
(``tests/test_knob_table.py`` keeps that table honest).
"""

from __future__ import annotations

import os
from typing import Optional


def env_int(name: str, default: int, minimum: Optional[int] = None) -> int:
    """Read an integer configuration knob from the environment.

    An unset, empty or whitespace-only variable falls back to the default
    (``VAR= python ...`` and an unset ``VAR`` mean the same thing), and
    surrounding whitespace is tolerated.  ``minimum`` is an *inclusive*
    lower bound: out-of-range overrides are rejected up front with an error
    naming the variable, instead of letting e.g. a zero block size surface
    later as a division error deep inside a scheme.
    """
    value = os.environ.get(name)
    if value is None or not value.strip():
        return default
    try:
        parsed = int(value.strip())
    except ValueError:
        raise ValueError(f"{name}={value!r} is not an integer") from None
    if minimum is not None and parsed < minimum:
        raise ValueError(f"{name}={parsed} is out of range (must be >= {minimum})")
    return parsed


def env_float(name: str, default: float, minimum: Optional[float] = None) -> float:
    """Read a float configuration knob from the environment.

    Unset/empty/whitespace handling and the inclusive ``minimum`` bound
    match :func:`env_int`.  ``nan`` is always rejected: it silently passes
    any ``parsed < minimum`` comparison, so it would otherwise sneak through
    range validation and poison downstream arithmetic.
    """
    value = os.environ.get(name)
    if value is None or not value.strip():
        return default
    try:
        parsed = float(value.strip())
    except ValueError:
        raise ValueError(f"{name}={value!r} is not a number") from None
    if parsed != parsed:  # NaN: compares false against any minimum
        raise ValueError(f"{name}={value!r} is not a number (NaN)")
    if minimum is not None and parsed < minimum:
        raise ValueError(f"{name}={parsed} is out of range (must be >= {minimum})")
    return parsed


def env_positive_int(name: str, default: int) -> int:
    """Read a strictly positive integer knob (block/slice/stripe counts)."""
    return env_int(name, default, minimum=1)


__all__ = ["env_float", "env_int", "env_positive_int"]
