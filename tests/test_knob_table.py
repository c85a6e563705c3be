"""EXPERIMENTS.md's knob tables and the ``REPRO_*`` names in the source agree.

Every knob the code under ``src/`` reads (or documents) must have a table
row, so nobody has to grep for what can be tuned; and every row must name a
knob that something still reads, so a deleted knob cannot live on in the
docs.  Rows may also document knobs of the ``benchmarks/`` and ``examples/``
scripts, which is where those are read.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]*[A-Z]")


def knobs_under(*directories):
    found = set()
    for directory in directories:
        for path in (ROOT / directory).rglob("*.py"):
            found.update(KNOB.findall(path.read_text(encoding="utf-8")))
    # ``REPRO_DETECTOR_*``-style mentions name a family, not a knob.
    return {
        name
        for name in found
        if not any(other.startswith(name + "_") for other in found)
    }


def documented_knobs():
    found = set()
    for line in (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| "):
            found.update(KNOB.findall(line.split("|")[1]))
    return found


def test_every_source_knob_has_a_table_row():
    missing = knobs_under("src") - documented_knobs()
    assert not missing, f"add EXPERIMENTS.md rows for {sorted(missing)}"


def test_no_table_row_outlives_its_knob():
    stale = documented_knobs() - knobs_under("src", "benchmarks", "examples")
    assert not stale, f"EXPERIMENTS.md documents knobs nothing reads: {sorted(stale)}"
