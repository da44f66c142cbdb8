"""``python -m benchmarks.ledger`` and ``python3 benchmarks/ledger``."""

import sys
from pathlib import Path

if not __package__:
    # Run as a path (the BENCHMARK.json command): the interpreter put
    # this directory on sys.path; the package root belongs there instead.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
