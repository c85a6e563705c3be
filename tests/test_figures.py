"""The paper's figures are pinned and every claim about them is checked.

``tests/data/figures.json`` holds the rendered tables (title, columns,
every cell) of the 16 deterministic figures of :mod:`repro.exp.figures`.
They were captured from the ``benchmarks/bench_fig*.py`` scripts the
registry replaced, at the commit before it, so a moved cell is a behaviour
change of the simulator or of a figure's set-up, never of the rewrite.
``alg2`` times a search: its claims are checked on a live run, its table is
not pinned.

Tier-1 regenerates only the figures that cost about a second each
(``FAST``); CI's ``figures`` job regenerates all 17 and compares::

    PYTHONPATH=src python -m repro.exp figures > figures.out
    PYTHONPATH=src python tests/test_figures.py --compare figures.out

Every claim of every pinned figure is evaluated against the golden rows, so
all of the paper's checks run in tier-1 without simulating anything, and
``REPRODUCTION.md`` is the scorecard of those rows byte for byte.

Regenerating golden and scorecard (only after an *intentional* change of a
figure; takes about three minutes)::

    PYTHONPATH=src python tests/test_figures.py --write
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exp import ExperimentTable, figures

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "figures.json"
SCORECARD = ROOT / "REPRODUCTION.md"

#: Figures cheap enough (<= 2 s each here) to regenerate in tier-1.
FAST = ["table1", "8h", "11a", "8d", "10b"]
PINNED = [figure for figure in figures.FIGURES.values() if figure.id != "alg2"]


def snapshot(tables):
    """A figure's tables in the golden file's form."""
    return [
        {"title": table.title, "columns": table.columns, "rows": table.rows}
        for table in tables
    ]


def as_table(table) -> ExperimentTable:
    """A golden table as the object the figure function returned."""
    rebuilt = ExperimentTable(table["title"], table["columns"])
    rebuilt.rows = table["rows"]
    return rebuilt


def render(table) -> str:
    """A golden table as the CLI prints it."""
    return as_table(table).render()


def golden_rows(golden):
    """The golden file as :func:`repro.exp.figures.scorecard` takes it."""
    return {
        figure_id: [as_table(table).as_dicts() for table in tables]
        for figure_id, tables in golden.items()
    }


def dump_golden(golden) -> str:
    """JSON with one table row per line, so a moved cell is a one-line diff."""
    entries = []
    for figure_id, tables in golden.items():
        dumped = []
        for table in tables:
            rows = ",\n".join(f"      {json.dumps(row)}" for row in table["rows"])
            dumped.append(
                f'    {{"title": {json.dumps(table["title"])},\n'
                f'     "columns": {json.dumps(table["columns"])},\n'
                f'     "rows": [\n{rows}\n     ]}}'
            )
        entries.append(f"  {json.dumps(figure_id)}: [\n" + ",\n".join(dumped) + "\n  ]")
    return "{\n" + ",\n".join(entries) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


# ----------------------------------------------------------- pinned tables
def test_golden_covers_the_deterministic_figures(golden):
    assert list(golden) == [figure.id for figure in PINNED]
    assert dump_golden(golden) == GOLDEN.read_text()


@pytest.mark.parametrize("figure_id", FAST)
def test_fast_figures_regenerate_their_golden_tables(golden, figure_id):
    assert snapshot(figures.FIGURES[figure_id].run()) == golden[figure_id]


def test_cli_prints_the_tables_then_the_scorecard(golden, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_EXP_WORKERS", "2")  # through the pool
    ids = ["8d", "table1"]
    assert figures.run_figures(ids) == 0
    tables = [table for figure_id in ids for table in golden[figure_id]]
    text, _ = figures.scorecard({i: golden_rows(golden)[i] for i in ids})
    expected = "".join(f"\n{render(table)}\n\n" for table in tables) + text + "\n"
    assert capsys.readouterr().out == expected


# ------------------------------------------------------------------ claims
@pytest.mark.parametrize("figure", PINNED, ids=lambda f: f.id)
def test_every_claim_holds_on_the_golden_rows(golden, figure):
    tables = golden_rows(golden)[figure.id]
    for claim, value, status in figures.verdicts(figure, tables):
        assert status in figures.EXPECTED, (claim.text, value, claim.op, claim.bound)


def test_alg2_claims_hold_on_a_live_run():
    figure = figures.FIGURES["alg2"]
    tables = [table.as_dicts() for table in figure.run()]
    assert [s for _, _, s in figures.verdicts(figure, tables)] == ["PASS"] * 3


def test_the_known_gaps_are_exactly_these(golden):
    gaps = {
        (figure.id, claim.text)
        for figure in figures.FIGURES.values()
        for claim in figure.claims
        if claim.known_gap
    }
    assert gaps == {
        ("8e", "smallest rp recovery rate over conventional's, over the requestor counts")
    }
    # The replaced scripts' 59 asserts: two became two claims each (10a's
    # two-sided bound, table1's per-matrix loop), two pairs became one (8h's
    # two orderings say the same thing, table1's three link checks became
    # one per matrix over every link).  CHANGES.md has the mapping.
    assert sum(len(figure.claims) for figure in figures.FIGURES.values()) == 59


def test_the_known_gap_mark_is_strict(golden, monkeypatch):
    figure = figures.FIGURES["8e"]
    tables = golden_rows(golden)["8e"]

    def statuses(*claims):
        scored = figures.verdicts(dataclasses.replace(figure, claims=claims), tables)
        return [status for _, _, status in scored]

    assert statuses(*figure.claims) == ["PASS", "PASS", "KNOWN GAP", "PASS"]
    grows, _, gap, _ = figure.claims
    # a gap that closes is reported until its mark is removed ...
    assert statuses(dataclasses.replace(gap, bound=0.5)) == ["GAP CLOSED"]
    # ... an unmarked claim that fails is a failure, and so is a flipped bound
    assert statuses(dataclasses.replace(gap, known_gap="")) == ["FAIL"]
    flipped = dataclasses.replace(grows, op="<")
    assert statuses(flipped) == ["FAIL"]
    # and either one is what makes the CLI exit non-zero
    monkeypatch.setattr(
        figures, "FIGURES", {"8e": dataclasses.replace(figure, claims=(flipped,))}
    )
    _, unexpected = figures.scorecard({"8e": tables})
    assert unexpected == [f"8e: {grows.text}: FAIL"]


def test_reproduction_md_is_the_scorecard_of_the_golden_rows(golden):
    text, unexpected = figures.scorecard(golden_rows(golden))
    assert unexpected == []
    assert SCORECARD.read_text() == text


# ---------------------------------------------------------------- registry
def test_registry_hygiene(golden):
    assert list(figures.FIGURES) == [
        "8a", "8b", "8c", "8d", "8e", "8f", "8g", "8h", "8i", "9",
        "10a", "10b", "10cd", "11a", "11b", "table1", "alg2",
    ]
    for figure_id, figure in figures.FIGURES.items():
        assert figure.id == figure_id
        assert figure.claims and figure.title and figure.run.__doc__
        for claim in figure.claims:
            assert claim.op in ("<", "<=", ">", ">=", "==")
            assert claim.text and claim.paper
            if figure.id in golden:
                assert claim.table < len(golden[figure.id])


def test_a_measure_that_reads_a_missing_column_is_an_error(golden):
    figure = figures.FIGURES["8a"]
    broken = dataclasses.replace(
        figure.claims[0], measure=lambda r: figures._cell(r, "no_such", slice_kib=32)
    )
    with pytest.raises(KeyError):
        figures.verdicts(
            dataclasses.replace(figure, claims=(broken,)), golden_rows(golden)["8a"]
        )


def test_unknown_id_exits_2_naming_the_valid_ids():
    done = subprocess.run(
        [sys.executable, "-m", "repro.exp", "figures", "nosuch"],
        capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert "nosuch" in done.stderr
    assert " ".join(figures.FIGURES) in done.stderr


def test_importing_the_engine_does_not_import_the_figures():
    # perfbench's sim-month times `import repro.exp` inside setup_s.
    code = "import sys, repro.exp; sys.exit('repro.exp.figures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# ------------------------------------------------------- --write / --compare
def write_golden() -> None:
    ids = [figure.id for figure in PINNED]
    golden = {
        figure_id: snapshot(tables)
        for figure_id, tables in zip(ids, figures.regenerate(ids))
    }
    GOLDEN.write_text(dump_golden(golden))
    print(f"wrote {GOLDEN}")
    text, unexpected = figures.scorecard(golden_rows(golden))
    SCORECARD.write_text(text)
    print(f"wrote {SCORECARD}")
    for line in unexpected:
        print(f"unexpected: {line}")


def compare(output: Path) -> int:
    """Every golden table must appear, byte for byte, in a CLI run's stdout."""
    printed = output.read_text()
    moved = [
        table["title"]
        for tables in json.loads(GOLDEN.read_text()).values()
        for table in tables
        if f"\n{render(table)}\n" not in printed
    ]
    for title in moved:
        print(f"differs from tests/data/figures.json: {title}")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_golden()
    elif len(sys.argv) == 3 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2])))
    else:
        print(__doc__)
