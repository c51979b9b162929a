"""Tests for profile collection and application."""

import hashlib
import pathlib

import pytest

from repro.analysis.progen import mutated_program
from repro.frontend.irbuilder import compile_source
from repro.interp import profile as profile_module
from repro.interp.interpreter import BudgetExceeded, Interpreter, ProfileCollector
from repro.interp.profile import apply_profile, profile_program
from repro.pipeline.cache import normalize_ir
from repro.pipeline.compiler import Compiler
from repro.pipeline.config import DBDS
from repro.vm.machine import VirtualMachine
from repro.ir.loops import DEFAULT_TRIP_COUNT, LoopForest
from repro.ir.nodes import If


SRC = """
fn branchy(x: int) -> int {
  if (x > 10) { return 1; }
  return 0;
}

fn loopy(n: int) -> int {
  var i: int = 0;
  while (i < n) { i = i + 1; }
  return i;
}

fn main(k: int) -> int {
  var t: int = 0;
  var i: int = 0;
  while (i < k) { t = t + branchy(i) + loopy(7); i = i + 1; }
  return t;
}
"""


def branch_of(graph) -> If:
    branches = [
        b.terminator for b in graph.blocks if isinstance(b.terminator, If)
    ]
    assert len(branches) == 1
    return branches[0]


class TestCollection:
    def test_branch_counts(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[20]])
        branch = branch_of(program.function("branchy"))
        counts = collector.branch_counts[branch]
        # x in 0..19: x > 10 for 11..19 (9 times), else 11 times.
        assert counts == [9, 11]

    def test_true_probability(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[20]])
        branch = branch_of(program.function("branchy"))
        assert collector.true_probability(branch) == pytest.approx(9 / 20)

    def test_unexecuted_branch_has_no_profile(self):
        program = compile_source(SRC)
        collector = ProfileCollector()
        branch = branch_of(program.function("branchy"))
        assert collector.true_probability(branch) is None

    def test_block_counts(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[5]])
        entry = program.function("branchy").entry
        assert collector.block_counts[entry] == 5


class TestApplication:
    def test_probabilities_written_to_if(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[20]])
        apply_profile(program, collector)
        branch = branch_of(program.function("branchy"))
        assert branch.true_probability == pytest.approx(9 / 20)

    def test_probabilities_clamped(self):
        program = compile_source(
            "fn f(x: int) -> int { if (x > 1000000) { return 1; } return 0; }\n"
            "fn main(k: int) -> int { var i: int = 0; var t: int = 0;"
            " while (i < k) { t = t + f(i); i = i + 1; } return t; }"
        )
        collector = profile_program(program, "main", [[50]])
        apply_profile(program, collector)
        branch = branch_of(program.function("f"))
        assert branch.true_probability == pytest.approx(0.01)

    def test_loop_trip_count_recorded(self):
        program = compile_source(SRC)
        collector = profile_program(program, "main", [[10]])
        apply_profile(program, collector)
        graph = program.function("loopy")
        forest = LoopForest(graph)
        # loopy(7): the header runs 8 times per entry.
        assert forest.loops[0].trip_count == pytest.approx(8.0)

    def test_unprofiled_loop_keeps_default(self):
        program = compile_source(SRC)
        apply_profile(program, ProfileCollector())
        forest = LoopForest(program.function("loopy"))
        assert forest.loops[0].trip_count == DEFAULT_TRIP_COUNT

    def test_profile_survives_copy(self):
        from repro.ir.copy import copy_graph

        program = compile_source(SRC)
        collector = profile_program(program, "main", [[20]])
        apply_profile(program, collector)
        graph = program.function("branchy")
        copied, _ = copy_graph(graph)
        assert branch_of(copied).true_probability == pytest.approx(9 / 20)


# ----------------------------------------------------------------------
# Profile parity: profile_program (the VM's hooked loop) against the
# reference interpreter's hooks, which stay the oracle.
# ----------------------------------------------------------------------
EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent.parent / "examples").rglob("*.mini")
)
EXAMPLE_ARGS = [[0], [1], [4], [6]]
MUTANT_COUNT = 32
MUTANT_ARGS = [[0], [2], [5]]
BUDGET_CAPS = [101, 997, 5003, 300_000]


def _reference_profile(program, entry, arg_sets, max_steps):
    """The oracle: ``(collector, budget message or None, steps)``."""
    collector = ProfileCollector()
    interpreter = Interpreter(program, max_steps=max_steps, profile=collector)
    try:
        for args in arg_sets:
            interpreter.reset()
            interpreter.run(entry, list(args))
    except BudgetExceeded as exc:
        return collector, str(exc), interpreter.state.steps
    return collector, None, interpreter.state.steps


def _production_profile(monkeypatch, program, entry, arg_sets, max_steps):
    """:func:`profile_program` with its machine captured, so a budget
    stop still shows the partial counts and the step it stopped at."""
    machines = []

    class Capturing(VirtualMachine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr(profile_module, "VirtualMachine", Capturing)
    message = None
    try:
        collector = profile_program(program, entry, arg_sets, max_steps=max_steps)
    except BudgetExceeded as exc:
        message = str(exc)
    (machine,) = machines
    if message is None:
        assert collector is machine.profile
    return machine.profile, message, machine.state.steps


def assert_profile_parity(monkeypatch, program, entry, arg_sets, max_steps):
    """Equal counters, budget message and final step count; returns
    whether the run stopped on the budget."""
    ref, ref_message, ref_steps = _reference_profile(
        program, entry, arg_sets, max_steps
    )
    got, message, steps = _production_profile(
        monkeypatch, program, entry, arg_sets, max_steps
    )
    assert message == ref_message
    assert steps == ref_steps
    assert got.block_counts == ref.block_counts
    assert got.branch_counts == ref.branch_counts
    return message is not None


def _ir_digest(program) -> str:
    return hashlib.sha256(normalize_ir(program.describe()).encode()).hexdigest()


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_profiles_match_reference(monkeypatch, path):
    program = compile_source(path.read_text())
    assert not assert_profile_parity(
        monkeypatch, program, "main", EXAMPLE_ARGS, 50_000_000
    )
    stops = [
        assert_profile_parity(monkeypatch, program, "main", EXAMPLE_ARGS, cap)
        for cap in BUDGET_CAPS
    ]
    # The smallest cap must really cut the profile short, so partial
    # counts and the budget message are compared too.
    assert stops[0]


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_dbds_compiles_match_reference(path):
    # The profile only matters through what the compiler makes of it:
    # DBDS fed either profile must produce the same optimized IR.
    source = path.read_text()
    digests = []
    for collect in (
        lambda p: profile_program(p, "main", EXAMPLE_ARGS),
        lambda p: _reference_profile(p, "main", EXAMPLE_ARGS, 50_000_000)[0],
    ):
        program = compile_source(source)
        apply_profile(program, collect(program))
        Compiler(DBDS).compile_program(program)
        digests.append(_ir_digest(program))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("seed", range(MUTANT_COUNT))
def test_mutant_profiles_match_reference(monkeypatch, seed):
    corpus = [p.read_text() for p in EXAMPLES]
    mutant = mutated_program(seed, corpus, mutations=2)
    program = compile_source(mutant.source)
    for cap in BUDGET_CAPS:
        assert_profile_parity(monkeypatch, program, "main", MUTANT_ARGS, cap)


TRAP_PROGRAMS = {
    "stack overflow": """
        fn down(n: int) -> int {
          if (n % 3 == 0) { return down(n + 1) + 1; }
          return down(n + 1);
        }
        fn main(k: int) -> int { if (k > 0) { return down(k); } return k; }
    """,
    "null dereference": """
        class P { x: int; }
        fn main(k: int) -> int {
          var p: P = null;
          if (k > 1) { return p.x; }
          p = new P { x = k };
          return p.x;
        }
    """,
    "division by zero": """
        fn main(k: int) -> int {
          var t: int = 0;
          var i: int = 3;
          while (i > 0 - 3) { t = t + k / i; i = i - 1; }
          return t;
        }
    """,
    "array index": """
        fn main(k: int) -> int {
          var a: int[] = new int[4];
          var i: int = 0;
          while (i < k) { a[i] = i; i = i + 1; }
          return a[0];
        }
    """,
    "negative array length": """
        fn main(k: int) -> int {
          var a: int[] = new int[2 - k];
          if (len(a) > 1) { return 1; }
          return 0;
        }
    """,
}


@pytest.mark.parametrize("label", sorted(TRAP_PROGRAMS))
def test_trap_profiles_match_reference(monkeypatch, label):
    program = compile_source(TRAP_PROGRAMS[label])
    arg_sets = [[0], [1], [3], [6]]
    outcomes = [
        Interpreter(program).run("main", list(args)).trap for args in arg_sets
    ]
    assert any(trap is not None and label in trap for trap in outcomes)
    assert not assert_profile_parity(
        monkeypatch, program, "main", arg_sets, 50_000_000
    )
