"""``python -m perfbench [run|repeat|spread] ...`` from the repository root."""

import sys

from perfbench import bootstrap

if __name__ == "__main__":
    bootstrap()
    from perfbench.cli import main

    sys.exit(main())
