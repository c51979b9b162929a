"""Regenerate ``expected.json``: every workload's expected outcomes,
from the reference interpreter on the unoptimized IR.

    python3 jitbench/make_expected.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from jitbench import jit  # noqa: E402
from jitbench.cli import BENCH_DIR, WORKLOADS  # noqa: E402


def main() -> None:
    table = {}
    for workload in WORKLOADS:
        for program in jit.corpus(workload, ROOT):
            table[jit.expectation_key(program)] = jit.reference_outcomes(program)
    path = BENCH_DIR / "expected.json"
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} expectations to {path}")


if __name__ == "__main__":
    main()
