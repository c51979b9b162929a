"""VM semantics: exact parity with the reference interpreter.

Every behaviour the reference interpreter exhibits — values, trap
messages, step counts, cycles, budget timing, profile hooks,
observer callbacks — must be reproduced bit-for-bit by the VM.  The VM
always meters cycles, so every comparison runs against a reference
metered with ``cycles_of``.
"""

import pytest

from repro.costmodel.model import cycles_of
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import (
    BudgetExceeded,
    Interpreter,
    ProfileCollector,
    observable_outcome,
)
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm import VirtualMachine, translate_program

APPS = {
    "nqueens": ("examples/apps/nqueens.mini", [6]),
    "wordfreq": ("examples/apps/wordfreq.mini", [120]),
    "matrix": ("examples/apps/matrix.mini", [8]),
}


def metered_reference(program, **kwargs) -> Interpreter:
    return Interpreter(
        program, cycle_cost=cycles_of, terminator_cost=cycles_of, **kwargs
    )


def engines_for(source: str, **vm_kwargs):
    program = compile_source(source)
    reference = metered_reference(program, **vm_kwargs)
    vm = VirtualMachine(translate_program(program), **vm_kwargs)
    return reference, vm


def both(source: str, args):
    reference, vm = engines_for(source)
    ref = reference.run("main", list(args))
    out = vm.run("main", list(args))
    return (reference, ref), (vm, out)


def assert_parity(source: str, args):
    (reference, ref), (vm, out) = both(source, args)
    assert observable_outcome(ref, reference.state) == observable_outcome(
        out, vm.state
    )
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)
    return ref, out


# ----------------------------------------------------------------------
# Values, steps, cycles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_value_step_cycle_parity(name):
    path, args = APPS[name]
    assert_parity(open(path).read(), args)


def test_parity_on_optimized_program():
    source = open("examples/apps/nqueens.mini").read()
    program, _ = compile_and_profile(source, "main", [[5]], DBDS)
    reference = metered_reference(program)
    vm = VirtualMachine(translate_program(program))
    ref = reference.run("main", [7])
    out = vm.run("main", [7])
    assert (ref.value, ref.steps, ref.cycles) == (out.value, out.steps, out.cycles)


def test_wrapping_arithmetic_and_division():
    source = """
    fn main(x: int) -> int {
      var big: int = 4611686018427387904;
      var wrapped: int = big * 4 + x;
      var q: int = (0 - 7) / 2;
      var r: int = (0 - 7) % 2;
      var sh: int = 1 << 70;
      return wrapped + q * 100 + r * 10 + sh;
    }
    """
    ref, out = assert_parity(source, [5])
    assert ref.value == out.value


# ----------------------------------------------------------------------
# Traps: identical messages at identical step counts
# ----------------------------------------------------------------------
TRAP_SOURCES = {
    "division by zero": "fn main(x: int) -> int { return 1 / x; }",
    "modulo by zero": "fn main(x: int) -> int { return 1 % x; }",
    "negative array length": """
        fn main(x: int) -> int {
          var a: int[] = new int[0 - 3];
          return len(a);
        }
    """,
    "array index": """
        fn main(x: int) -> int {
          var a: int[] = new int[2];
          return a[x + 5];
        }
    """,
}


@pytest.mark.parametrize("label", sorted(TRAP_SOURCES))
def test_trap_message_and_step_parity(label):
    (reference, ref), (vm, out) = both(TRAP_SOURCES[label], [0])
    assert ref.trap is not None and label in ref.trap
    assert ref.trap == out.trap
    assert ref.steps == out.steps
    assert ref.cycles == out.cycles


def test_null_field_trap_messages():
    source = """
    class P { x: int; }
    fn main(n: int) -> int {
      var p: P = null;
      if (n > 0) { p.x = 1; } else { return p.x; }
      return 0;
    }
    """
    for args in ([0], [1]):
        (reference, ref), (vm, out) = both(source, args)
        assert ref.trap == out.trap
        assert "null dereference" in out.trap
        assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


def test_stack_overflow_parity():
    source = "fn main(x: int) -> int { return main(x + 1); }"
    (reference, ref), (vm, out) = both(source, [0])
    assert ref.trap == out.trap == "stack overflow"
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


# ----------------------------------------------------------------------
# Step budget: checked BEFORE executing, identical timing
# ----------------------------------------------------------------------
LOOP = """
fn main(n: int) -> int {
  var i: int = 0;
  while (i < 1000000) { i = i + 1; }
  return i;
}
"""


def test_budget_exceeded_matches_reference():
    program = compile_source(LOOP)
    reference = metered_reference(program, max_steps=500)
    vm = VirtualMachine(translate_program(program), max_steps=500)
    with pytest.raises(BudgetExceeded) as ref_exc:
        reference.run("main", [0])
    with pytest.raises(BudgetExceeded) as vm_exc:
        vm.run("main", [0])
    assert str(ref_exc.value) == str(vm_exc.value) == "exceeded 500 interpreter steps"
    assert reference.state.steps == vm.state.steps
    assert reference.state.cycles == vm.state.cycles


def test_budget_not_hit_just_below_threshold():
    program = compile_source(LOOP)
    reference = Interpreter(program)
    steps = reference.run("main", [0]).steps
    vm = VirtualMachine(translate_program(program), max_steps=steps)
    assert vm.run("main", [0]).value == 1000000


# ----------------------------------------------------------------------
# Globals, reset, call protocol
# ----------------------------------------------------------------------
def test_globals_survive_within_run_and_reset_between():
    source = """
    global total: int;
    fn bump(v: int) -> int { total = total + v; return total; }
    fn main(x: int) -> int { bump(x); bump(x); return total; }
    """
    reference, vm = engines_for(source)
    assert vm.run("main", [5]).value == reference.run("main", [5]).value == 10
    vm.reset()
    reference.reset()
    assert vm.run("main", [3]).value == reference.run("main", [3]).value == 6


def test_arity_mismatch_raises_typeerror_like_reference():
    source = "fn main(x: int) -> int { return x; }"
    reference, vm = engines_for(source)
    with pytest.raises(TypeError) as ref_exc:
        reference.run("main", [1, 2])
    with pytest.raises(TypeError) as vm_exc:
        vm.run("main", [1, 2])
    assert str(ref_exc.value) == str(vm_exc.value)


def test_unknown_entry_raises_keyerror():
    reference, vm = engines_for("fn main(x: int) -> int { return x; }")
    with pytest.raises(KeyError):
        vm.run("nope", [1])


# ----------------------------------------------------------------------
# Profile hooks
# ----------------------------------------------------------------------
BRANCHY = """
fn main(n: int) -> int {
  var i: int = 0;
  var odd: int = 0;
  while (i < n) {
    if (i % 2 == 1) { odd = odd + 1; }
    i = i + 1;
  }
  return odd;
}
"""


def test_profile_collectors_record_identically():
    program = compile_source(BRANCHY)
    ref_profile, vm_profile = ProfileCollector(), ProfileCollector()
    ref = metered_reference(program, profile=ref_profile).run("main", [9])
    out = VirtualMachine(translate_program(program), profile=vm_profile).run(
        "main", [9]
    )
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)
    assert ref_profile.block_counts == vm_profile.block_counts
    assert ref_profile.branch_counts == vm_profile.branch_counts


# ----------------------------------------------------------------------
# Observer hook
# ----------------------------------------------------------------------
def test_observer_sees_same_instruction_value_sequence():
    program = compile_source(BRANCHY)
    seen_ref, seen_vm = [], []
    ref = metered_reference(
        program, observer=lambda i, v: seen_ref.append((i, v))
    ).run("main", [7])
    out = VirtualMachine(
        translate_program(program), observer=lambda i, v: seen_vm.append((i, v))
    ).run("main", [7])
    assert seen_ref == seen_vm
    # The observer loop meters like the unobserved one.
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


def test_observer_fires_for_self_move_phis():
    # A loop-carried phi whose value does not change still produces an
    # observation per iteration, even though the move is dropped.
    source = """
    fn main(n: int) -> int {
      var keep: int = 42;
      var i: int = 0;
      while (i < n) { i = i + 1; }
      return keep + i;
    }
    """
    program = compile_source(source)
    seen_ref, seen_vm = [], []
    Interpreter(program, observer=lambda i, v: seen_ref.append((i, v))).run(
        "main", [4]
    )
    VirtualMachine(
        translate_program(program), observer=lambda i, v: seen_vm.append((i, v))
    ).run("main", [4])
    assert seen_ref == seen_vm
