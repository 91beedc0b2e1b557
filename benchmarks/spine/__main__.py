"""``PYTHONPATH=src python -m benchmarks.spine <command>`` from the repo root."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
