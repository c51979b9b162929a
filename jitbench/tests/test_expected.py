"""Results are checked against the reference interpreter's values."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from jitbench import cli, jit
from jitbench.spans import SpanRecorder

from .conftest import nqueens


def test_reference_outcomes_come_from_the_unoptimized_program():
    assert jit.reference_outcomes(nqueens(5)) == [{"value": 10}]
    assert jit.reference_outcomes(nqueens(6)) == [{"value": 4}]


def test_committed_expectations_are_used_and_others_computed():
    committed = {jit.expectation_key(nqueens(5)): [{"value": 10}]}
    table, computed = jit.expected_outcomes([nqueens(5), nqueens(4)], committed)
    assert computed == 1
    assert table[jit.expectation_key(nqueens(4))] == [{"value": 2}]


def test_committed_file_matches_the_reference_interpreter(root):
    committed = json.loads((root / "jitbench" / "expected.json").read_text())
    for program in jit.corpus("long-run", root):
        key = jit.expectation_key(program)
        assert key in committed
        if program.key == "apps/matrix":
            assert committed[key] == jit.reference_outcomes(program)
    for workload in ("cold-suites", "warm-exec"):
        for program in jit.corpus(workload, root):
            assert jit.expectation_key(program) in committed


def test_wrong_value_fails_the_request(small, tmp_path):
    wrong = {jit.expectation_key(p): [{"value": -1}] for p in small}
    ctx = jit.Context(SpanRecorder())
    result = jit.run_pass(
        "long-run", ctx, jit.request_plan("long-run", small), wrong, "0/0"
    )
    assert [r.ok for r in result.requests] == [False, False]
    assert {r.layer for r in result.requests} == {"check"}


def test_determinism_violations_are_reported(small, expected, tmp_path):
    ctx = jit.Context(SpanRecorder())
    plan = jit.request_plan("long-run", small)
    passes = [jit.run_pass("long-run", ctx, plan, expected, f"0/{n}") for n in range(2)]
    keys = {p.key: jit.expectation_key(p) for p in small}
    state = tmp_path / "state.json"
    assert cli.determinism_problems(passes, keys, state) == []
    assert state.exists()
    passes[1].requests[0].cycles += 1
    assert len(cli.determinism_problems(passes, keys, state)) == 1
    passes[1].requests[0].cycles -= 1
    recorded = json.loads(state.read_text())
    recorded[next(iter(recorded))] = "[]"
    state.write_text(json.dumps(recorded))
    assert len(cli.determinism_problems(passes[:1], keys, state)) == 1


def test_fails_without_the_compiler_sources(root, tmp_path):
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "jitbench", tmp_path / "jitbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "jitbench/run.py", "--workload", "long-run",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
