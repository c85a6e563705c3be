"""``python -m repro.exp figures [ID ...]``: regenerate paper figures and
score the paper's claims about them (see :mod:`repro.exp.figures`)."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.exp import figures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.exp")
    commands = parser.add_subparsers(dest="command", required=True)
    valid = list(figures.FIGURES)
    command = commands.add_parser(
        "figures",
        help="regenerate paper figures and print the reproduction scorecard",
    )
    command.add_argument(
        "ids", nargs="*", metavar="ID",
        help=f"figures to run (default: all): {' '.join(valid)}",
    )
    args = parser.parse_args(argv)
    unknown = [figure_id for figure_id in args.ids if figure_id not in valid]
    if unknown:
        command.error(
            f"unknown figure id(s) {' '.join(unknown)}; valid ids: {' '.join(valid)}"
        )
    # Registry order whatever the argument order, each figure once.
    return figures.run_figures([i for i in valid if i in args.ids] or valid)


if __name__ == "__main__":
    sys.exit(main())
