"""Tiered-engine differential oracle: bit-identity under promotion.

The adaptive machine makes the strongest claim of any engine: it
rewrites its own bytecode *while the differential is running* and must
still be bit-identical — values, traps, steps, cycles, observer hook
sequences, budget-stop timing — to the reference interpreter and the
always-fused VM.  This suite drives promotion hard (tiny thresholds,
many argument sets per runner so functions go hot mid-sweep) over
every bundled example plus a corpus of seeded generator programs, and
pins down runs whose budget expires in the middle of a promotion.
"""

import pathlib

import pytest

from repro.analysis.progen import random_program
from repro.analysis.validate import SCREEN_STEP_BUDGET, _screen_mutant, validate_engines
from repro.interp.interpreter import BudgetExceeded, Interpreter, observable_outcome
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm import (
    TieredVirtualMachine,
    TieringPolicy,
    VirtualMachine,
    translate_program,
)

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent.parent / "examples").rglob("*.mini")
)
EXAMPLE_ARGS = [[0], [1], [4], [7]]

#: seeded generator programs in the tiered differential corpus
GENERATED_COUNT = 32
GENERATED_ARGS = [[0], [2], [5]]

#: small enough that multi-set sweeps promote mid-differential
HOT_THRESHOLD = 4


def tiered_machine(program, threshold=HOT_THRESHOLD, **kwargs):
    return TieredVirtualMachine(
        program,
        policy=TieringPolicy(threshold=threshold), **kwargs,
    )


def sweep(runner, entry, arg_sets):
    outcomes = []
    for args in arg_sets:
        runner.reset()
        result = runner.run(entry, list(args))
        outcomes.append(
            (observable_outcome(result, runner.state), result.steps, result.cycles)
        )
    return outcomes


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_examples_identical_with_tiered_in_matrix(path):
    # validate_engines defaults to the full matrix (tiered included):
    # one tiered runner sweeps all argument sets, promoting mid-sweep.
    result = validate_engines(path.read_text(), "main", EXAMPLE_ARGS)
    assert result.ok, "\n".join(r.format() for r in result.divergences)
    assert "tiered" in result.configs


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_examples_identical_under_aggressive_tiering(path):
    # Same oracle with a promote-almost-immediately threshold, compared
    # manually against reference + vm so the tiered runner keeps its
    # promotion state across the whole sweep.
    program, _ = compile_and_profile(
        path.read_text(), "main", EXAMPLE_ARGS, DBDS
    )
    bytecode = translate_program(program)
    expected = sweep(
        VirtualMachine(bytecode), "main", EXAMPLE_ARGS * 3
    )
    machine = tiered_machine(program, threshold=1)
    assert sweep(machine, "main", EXAMPLE_ARGS * 3) == expected
    assert machine.controller.promotions, "expected at least one tier-up"


@pytest.mark.parametrize("seed", range(GENERATED_COUNT))
def test_generated_programs_identical_on_tiered(seed):
    source = random_program(seed)
    if not _screen_mutant(source, "main", GENERATED_ARGS, SCREEN_STEP_BUDGET):
        pytest.skip("generated program exceeds the screening step budget")
    result = validate_engines(
        source, "main", GENERATED_ARGS, seed=seed, engines=("reference", "vm", "tiered")
    )
    assert result.ok, "\n".join(r.format() for r in result.divergences)


@pytest.mark.parametrize("budget", [3, 11, 29, 83, 211, 997])
def test_budget_stop_mid_promotion_is_bit_identical(budget):
    # Budgets chosen to land everywhere: before the first promotion,
    # inside the frame whose back edge triggers it, and after.
    path = next(p for p in EXAMPLES if p.stem == "nqueens")
    program, _ = compile_and_profile(path.read_text(), "main", [[5]], DBDS)
    baseline = VirtualMachine(
        translate_program(program), max_steps=budget
    )
    machine = tiered_machine(program, max_steps=budget)
    with pytest.raises(BudgetExceeded) as ref_exc:
        baseline.run("main", [6])
    with pytest.raises(BudgetExceeded) as tier_exc:
        machine.run("main", [6])
    assert str(tier_exc.value) == str(ref_exc.value)
    assert machine.state.steps == baseline.state.steps
    assert machine.state.cycles == baseline.state.cycles


def test_observer_hook_sequences_identical():
    # Scalar-only workload: observed values compare by value, so the
    # hook streams can be matched exactly across engines.
    source = """
    fn step(acc: int, i: int) -> int {
      if (acc > 100) { return acc - i; }
      return acc + i * 3;
    }

    fn main(n: int) -> int {
      var acc: int = 0;
      var i: int = 0;
      while (i < n) {
        acc = step(acc, i);
        i = i + 1;
      }
      return acc;
    }
    """
    program, _ = compile_and_profile(source, "main", [[9]], DBDS)
    seen_ref, seen_tiered = [], []
    Interpreter(
        program, observer=lambda n, v: seen_ref.append((n, v))
    ).run("main", [9])
    machine = TieredVirtualMachine(
        program,
        policy=TieringPolicy(threshold=1),
        observer=lambda n, v: seen_tiered.append((n, v)),
    )
    machine.run("main", [9])
    assert seen_tiered == seen_ref


def test_promoted_state_carries_into_later_differentials():
    # After a hot sweep promoted everything promotable, the SAME
    # machine must stay bit-identical on fresh argument sets — the
    # tier-1 half of the hot-swap contract.
    path = next(p for p in EXAMPLES if p.stem == "matrix")
    program, _ = compile_and_profile(path.read_text(), "main", [[4]], DBDS)
    bytecode = translate_program(program)
    machine = tiered_machine(program, threshold=2)
    sweep(machine, "main", [[3], [3], [3], [3]])
    promoted_before = len(machine.controller.promotions)
    expected = sweep(VirtualMachine(bytecode), "main", EXAMPLE_ARGS)
    assert sweep(machine, "main", EXAMPLE_ARGS) == expected
    assert promoted_before >= 1
