"""``python -m benchmarks.e2e`` -- same entry point as ``run.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

if __name__ == "__main__":
    sys.exit(run.main())
