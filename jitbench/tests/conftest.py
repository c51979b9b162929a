"""Shared fixtures for the benchmark's own tests.

    python3 -m pytest jitbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from jitbench import jit  # noqa: E402

NQUEENS = (ROOT / "examples" / "apps" / "nqueens.mini").read_text()


def nqueens(n: int, key: str = "") -> jit.Program:
    """nqueens profiled and run at ``n`` (nqueens(5) has 10 solutions)."""
    return jit.Program(key or f"apps/nqueens{n}", NQUEENS, ((n,),), ((n,),))


@pytest.fixture
def root() -> Path:
    return ROOT


@pytest.fixture
def small() -> list[jit.Program]:
    return [nqueens(5), nqueens(4)]


@pytest.fixture
def expected(small) -> dict:
    table, _ = jit.expected_outcomes(small, {})
    return table
