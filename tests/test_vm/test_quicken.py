"""Quickening: specialization on first execution, deopt exactness.

The deopt paths carry the whole correctness burden: a guarded site
that bails must rewrite itself back to the generic tuple *and* execute
the failing occurrence through the generic handler, so values, steps,
metered cycles and traps are bit-identical to the reference on both
sides of the escape.  These tests drive each guard through its failure
(int overflow wrap, reference-typed compare) and assert exact parity,
plus the never-deopt constant forms and the metrics they emit.
"""

import pytest

from repro.costmodel.model import cycles_of
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.vm import VirtualMachine, translate_program
from repro.vm.quicken import (
    OP_ADD_Q,
    OP_ADD_RC,
    OP_DIV_RC,
    OP_EQ_II,
    OP_MUL_Q,
    quicken_function,
)


def quickened_main(source: str, *run_args):
    """Translate, run once (forcing quickening), return (vm, fn)."""
    program = compile_source(source)
    bytecode = translate_program(program)
    vm = VirtualMachine(bytecode)
    for args in run_args or ([0],):
        vm.reset()
        vm.run("main", list(args))
    return vm, bytecode.function("main")


def assert_parity(source: str, arg_sets):
    program = compile_source(source)
    bytecode = translate_program(program)
    reference = Interpreter(
        program, cycle_cost=cycles_of, terminator_cost=cycles_of
    )
    vm = VirtualMachine(bytecode)
    for args in arg_sets:
        reference.reset()
        vm.reset()
        ref = reference.run("main", list(args))
        out = vm.run("main", list(args))
        assert (ref.value, ref.trap) == (out.value, out.trap)
        assert (ref.steps, ref.cycles) == (out.steps, out.cycles)
    return vm, bytecode.function("main")


# ----------------------------------------------------------------------
# Const-operand baking (never deoptimizes)
# ----------------------------------------------------------------------
# Sites under test sit between array ops: trapping instructions can
# neither lead nor trail a superinstruction, so the site stays a plain
# weight-1 tuple for quickening to rewrite.
BAKE_ADD = """
fn main(x: int) -> int {
  var a: int[] = new int[3];
  a[0] = x;
  a[1] = a[0] + 7;
  return a[1];
}
"""


def test_const_right_operand_is_baked():
    vm, fn = quickened_main(BAKE_ADD, [3])
    baked = [ins for ins in fn.xcode if ins[0] == OP_ADD_RC]
    assert baked and baked[0][5] == 7  # the value, not a register


def test_const_left_operand_uses_mirrored_form():
    # `5 < x` has the constant on the LEFT; commutative/mirrored forms
    # bake it anyway (K < x becomes x > K).
    source = """
    fn main(x: int) -> int {
      var a: int[] = new int[3];
      a[0] = x;
      var c: bool = 5 < a[0];
      a[1] = 7 * a[2];
      if (c) { return a[1] + 1; }
      return a[1];
    }
    """
    vm, fn = assert_parity(source, [[0], [5], [6], [100]])
    from repro.vm.quicken import OP_GT_RC, OP_MUL_RC

    ops = {ins[0] for ins in fn.xcode}
    assert OP_GT_RC in ops  # 5 < y quickened as y > 5
    assert OP_MUL_RC in ops  # 7 * y quickened with the const baked


def test_div_by_nonzero_const_drops_zero_check():
    vm, fn = quickened_main(
        "fn main(x: int) -> int { return x / 3; }", [10]
    )
    assert any(ins[0] == OP_DIV_RC for ins in fn.xcode)


def test_div_by_zero_const_stays_generic():
    # x / 0 must still trap like the reference — never specialized.
    source = "fn main(x: int) -> int { return x / 0; }"
    vm, fn = assert_parity(source, [[1]])
    assert not any(ins[0] == OP_DIV_RC for ins in fn.xcode)


def test_baked_sites_keep_cost_and_weight():
    vm, fn = quickened_main(BAKE_ADD, [3])
    for pc, ins in enumerate(fn.xcode):
        if ins[0] == OP_ADD_RC:
            assert ins[1] == fn.code[pc][1]  # original baked cycle cost
            assert ins[-1] == 1  # still one step


def test_superinstruction_sites_are_skipped():
    # Quickening must not touch fused slots or their padding.
    source = """
    fn main(n: int) -> int {
      var h: int = 7;
      var i: int = 0;
      while (i < n) { h = (h ^ i) * 31 + i; i = i + 1; }
      return h;
    }
    """
    program = compile_source(source)
    bytecode = translate_program(program)
    fn = bytecode.function("main")
    before = [(ins[0], ins[-1]) for ins in fn.xcode if ins[-1] > 1]
    quicken_function(fn)
    after = [(ins[0], ins[-1]) for ins in fn.xcode if ins[-1] > 1]
    assert before == after and fn.quickened


# ----------------------------------------------------------------------
# Guarded fast paths and their deopts
# ----------------------------------------------------------------------
# The guarded add sits between an array load and an array store
# (trapping neighbours block fusion, so the site stays weight-1 and
# quickens to the int fast path); a[0] starts n below INT_MAX, so the
# sum leaves the signed range once i exceeds n — quicken first, then
# deopt mid-run.
OVERFLOW = """
fn main(n: int) -> int {
  var a: int[] = new int[2];
  a[0] = 9223372036854775807 - n;
  var i: int = 0;
  while (i < 40) {
    a[1] = a[0] + i;
    i = i + 1;
  }
  return a[1];
}
"""


def test_add_overflow_deopts_with_exact_wrap_and_accounting():
    # n=50 never overflows (the guard holds for all 40 iterations);
    # n=3 quickens on the early iterations and then the guard fails —
    # the generic handler wraps this occurrence, and values, steps and
    # cycles stay identical to the reference throughout.
    assert_parity(OVERFLOW, [[50], [3], [0]])


def test_mul_overflow_deopts():
    source = """
    fn main(n: int) -> int {
      var a: int[] = new int[2];
      a[0] = 3037000499 + n;
      a[1] = a[0] * a[0];
      return a[1];
    }
    """
    # 3037000499^2 < 2^63; larger n push the square past INT_MAX, so
    # the quickened mul guard fails and the generic handler wraps.
    registry = MetricsRegistry()
    with use_registry(registry):
        assert_parity(source, [[0], [1], [1000000000]])
    assert registry.snapshot().counter_value(
        "repro_vm_deopts_total", opcode="mul"
    ) > 0


def test_eq_type_change_deopts():
    # First calls compare ints (quickens to the int-int fast path);
    # the later call compares references, failing the class guard.
    source = """
    class Box { v: int; }
    fn same(a: Box, b: Box) -> bool { return a == b; }
    fn main(n: int) -> int {
      var i: int = 0;
      var hits: int = 0;
      while (i < n) {
        if (i == 3) { hits = hits + 1; }
        i = i + 1;
      }
      var p: Box = new Box;
      var q: Box = new Box;
      if (same(p, p)) { hits = hits + 100; }
      if (same(p, q)) { hits = hits + 1000; }
      return hits;
    }
    """
    assert_parity(source, [[0], [5], [10]])


def test_deopt_is_permanent():
    program = compile_source(OVERFLOW)
    bytecode = translate_program(program)
    vm = VirtualMachine(bytecode)
    fn = bytecode.function("main")
    vm.run("main", [3])  # quickens, then deopts on the overflow
    guarded_after_first = sum(
        1 for ins in fn.xcode if ins[0] in (OP_ADD_Q, OP_MUL_Q)
    )
    snapshot = [ins[0] for ins in fn.xcode]
    vm.reset()
    vm.run("main", [3])
    # Deopted sites stay generic (no re-quickening churn on later runs)
    assert [ins[0] for ins in fn.xcode] == snapshot
    assert sum(
        1 for ins in fn.xcode if ins[0] in (OP_ADD_Q, OP_MUL_Q)
    ) == guarded_after_first


def test_guarded_site_installed_before_deopt():
    source = """
    fn main(x: int) -> int {
      var a: int[] = new int[3];
      a[0] = x;
      a[1] = a[0] + a[2];
      return a[1];
    }
    """
    vm, fn = quickened_main(source, [4])
    assert any(ins[0] == OP_ADD_Q for ins in fn.xcode)


def test_eq_ii_guard_installed_for_reg_reg_compare():
    vm, fn = quickened_main(
        "fn main(x: int) -> int { var y: int = x; if (x == y) { return 1; } return 0; }",
        [4],
    )
    # Depending on fusion the compare may be consumed by cmp+branch;
    # when it survives as a weight-1 site it must be the guarded form.
    survivors = [ins for ins in fn.xcode if ins[0] == OP_EQ_II]
    fused = [ins for ins in fn.xcode if ins[-1] > 1]
    assert survivors or fused


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_quicken_and_deopt_metrics():
    registry = MetricsRegistry()
    with use_registry(registry):
        program = compile_source(OVERFLOW)
        vm = VirtualMachine.for_program(program)
        vm.run("main", [3])
    snap = registry.snapshot()
    assert snap.counter_total("repro_vm_quickened_sites_total") > 0
    assert snap.counter_total("repro_vm_deopts_total") > 0
    assert snap.counter_value("repro_vm_deopts_total", opcode="add") > 0


def test_budget_timing_unchanged_by_quickening():
    # Run once to quicken, then sweep caps: the rewritten stream must
    # stop at exactly the same step as the reference every time.
    from repro.interp.interpreter import BudgetExceeded

    program = compile_source(OVERFLOW)
    bytecode = translate_program(program)
    warm = VirtualMachine(bytecode)
    total = warm.run("main", [3]).steps
    for cap in range(1, total + 2, 7):
        reference = Interpreter(
            program,
            max_steps=cap,
            cycle_cost=cycles_of,
            terminator_cost=cycles_of,
        )
        vm = VirtualMachine(bytecode, max_steps=cap)
        ref_msg = vm_msg = None
        try:
            reference.run("main", [3])
        except BudgetExceeded as exc:
            ref_msg = str(exc)
        try:
            vm.run("main", [3])
        except BudgetExceeded as exc:
            vm_msg = str(exc)
        assert ref_msg == vm_msg
        assert reference.state.steps == vm.state.steps
        assert reference.state.cycles == vm.state.cycles
