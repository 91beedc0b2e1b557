"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/spine/run.py``.

Puts the checkout's root and ``src/`` on ``sys.path`` (the program is pure
Python; there is nothing to build) and hands over to the CLI.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/spine: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.spine.cli import main

    sys.exit(main())
