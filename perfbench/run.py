"""Entry point of ``BENCHMARK.json``'s command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import bootstrap  # noqa: E402

if __name__ == "__main__":
    # A terminated run still tears its deployment down: the roles live in
    # sessions of their own and would outlive a default SIGTERM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bootstrap()
    from perfbench.cli import main

    sys.exit(main())
