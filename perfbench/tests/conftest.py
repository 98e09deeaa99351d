"""Import the benchmark's modules and the checkout's tikhtorus package."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
