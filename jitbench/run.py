"""Run the end-to-end JIT request benchmark.

    python3 jitbench/run.py --workload cold-suites --seed 0 --seconds 20 --trace 0

Run from anywhere; the compiler is imported from ``src/`` beside this
directory.  The report goes to standard output and its last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from jitbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], ROOT))
