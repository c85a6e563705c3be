"""perfbench: the repository's benchmark.

One command runs one named workload from a seed, checks every byte it reads
back, and prints every metric by name and unit (see ``README.md`` and
``BENCHMARK.json`` at the repository root)::

    python3 perfbench/run.py --workload degraded-read --seed 1 --seconds 10 --trace 0

The package imports :mod:`repro` from ``src/`` beside it; entry points call
:func:`bootstrap` first so the role processes a live workload spawns
(``python -m repro.service run-role``) find the same sources.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
#: The program under measurement.
SRC = ROOT / "src"
#: Scratch space of a run (sqlite stores, role span logs, the span file).
#: Inside the checkout because a run may write nowhere else.
WORK = Path(__file__).resolve().parent / ".work"


def bootstrap() -> None:
    """Make ``repro`` importable here and in every child process."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program to measure at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH", "")
    if str(SRC) not in inherited.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            str(SRC) + (os.pathsep + inherited if inherited else "")
        )
