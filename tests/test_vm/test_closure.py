"""The closure engine: compiled-block exactness and fallbacks.

``ClosureVirtualMachine`` compiles each translated function's basic
blocks to Python closures and accounts steps/cycles per segment, so
every observable — values, traps at exact step counts, budget stops
mid-segment, globals, reset — must match the reference interpreter
bit-for-bit, and hooked or legacy (no block spans) functions must fall
back to the machine loops transparently.
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
from repro.vm import ClosureVirtualMachine, translate_program
from repro.vm.closure import compile_function, function_source

APPS = {
    "nqueens": ("examples/apps/nqueens.mini", [6]),
    "wordfreq": ("examples/apps/wordfreq.mini", [120]),
    "matrix": ("examples/apps/matrix.mini", [8]),
}

LOOP = """
fn main(n: int) -> int {
  var h: int = 99;
  var i: int = 0;
  while (i < n) {
    h = (h * 31 + i) % 100003;
    i = i + 1;
  }
  return h;
}
"""


def engines_for(source: str, **kwargs):
    program = compile_source(source)
    reference = Interpreter(
        program, cycle_cost=cycles_of, terminator_cost=cycles_of, **kwargs
    )
    closure = ClosureVirtualMachine(translate_program(program), **kwargs)
    return reference, closure


# ----------------------------------------------------------------------
# Values, steps, cycles, traps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_value_step_cycle_parity(name):
    path, args = APPS[name]
    reference, closure = engines_for(open(path).read())
    ref = reference.run("main", list(args))
    out = closure.run("main", list(args))
    assert observable_outcome(ref, reference.state) == observable_outcome(
        out, closure.state
    )
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


@pytest.mark.parametrize(
    "source, label",
    [
        ("fn main(x: int) -> int { return 1 / x; }", "division by zero"),
        ("fn main(x: int) -> int { return 1 % x; }", "modulo by zero"),
        (
            """
            fn main(x: int) -> int {
              var a: int[] = new int[2];
              return a[x + 9];
            }
            """,
            "array index",
        ),
    ],
    ids=["div", "mod", "index"],
)
def test_trap_messages_and_accounting(source, label):
    reference, closure = engines_for(source)
    ref = reference.run("main", [0])
    out = closure.run("main", [0])
    assert ref.trap == out.trap and label in out.trap
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


def test_mid_block_trap_flushes_partial_segment():
    # The trap site is preceded by several straight-line instructions
    # in the same segment; the flushed steps/cycles must include the
    # executed prefix only.
    source = """
    fn main(x: int) -> int {
      var a: int = x + 1;
      var b: int = a * 3;
      var c: int = b - x;
      return c / x;
    }
    """
    reference, closure = engines_for(source)
    ref = reference.run("main", [0])
    out = closure.run("main", [0])
    assert ref.trap == out.trap
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


# ----------------------------------------------------------------------
# Budget stops (the segment guard's cold path)
# ----------------------------------------------------------------------
def test_budget_stop_exact_at_every_cap():
    program = compile_source(LOOP)
    bytecode = translate_program(program)
    total = ClosureVirtualMachine(bytecode).run("main", [9]).steps
    for cap in range(1, total + 2):
        reference = Interpreter(
            program,
            max_steps=cap,
            cycle_cost=cycles_of,
            terminator_cost=cycles_of,
        )
        closure = ClosureVirtualMachine(bytecode, max_steps=cap)
        ref_msg = clo_msg = None
        try:
            reference.run("main", [9])
        except BudgetExceeded as exc:
            ref_msg = str(exc)
        try:
            closure.run("main", [9])
        except BudgetExceeded as exc:
            clo_msg = str(exc)
        assert ref_msg == clo_msg
        assert reference.state.steps == closure.state.steps
        assert reference.state.cycles == closure.state.cycles


def test_changing_max_steps_recompiles_drivers():
    program = compile_source(LOOP)
    closure = ClosureVirtualMachine(translate_program(program), max_steps=50)
    with pytest.raises(BudgetExceeded):
        closure.run("main", [1000])
    closure.reset()
    closure.max_steps = 50_000_000
    assert closure.run("main", [10]).value is not None


# ----------------------------------------------------------------------
# Globals, reset, recursion
# ----------------------------------------------------------------------
def test_globals_and_reset():
    source = """
    global total: int;
    fn bump(v: int) -> int { total = total + v; return total; }
    fn main(x: int) -> int { bump(x); bump(x); return total; }
    """
    reference, closure = engines_for(source)
    assert closure.run("main", [5]).value == reference.run("main", [5]).value
    closure.reset()
    reference.reset()
    assert closure.run("main", [3]).value == reference.run("main", [3]).value


def test_recursion_and_stack_overflow():
    fib = """
    fn fib(n: int) -> int {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main(x: int) -> int { return fib(x); }
    """
    reference, closure = engines_for(fib)
    ref = reference.run("main", [12])
    out = closure.run("main", [12])
    assert (ref.value, ref.steps, ref.cycles) == (out.value, out.steps, out.cycles)

    deep = "fn main(x: int) -> int { return main(x + 1); }"
    reference, closure = engines_for(deep)
    ref = reference.run("main", [0])
    out = closure.run("main", [0])
    assert ref.trap == out.trap == "stack overflow"
    assert (ref.steps, ref.cycles) == (out.steps, out.cycles)


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------
def test_profile_hook_falls_back_to_machine_loops():
    program = compile_source(LOOP)
    ref_profile, clo_profile = ProfileCollector(), ProfileCollector()
    Interpreter(program, profile=ref_profile).run("main", [9])
    ClosureVirtualMachine(
        translate_program(program), profile=clo_profile
    ).run("main", [9])
    assert ref_profile.block_counts == clo_profile.block_counts
    assert ref_profile.branch_counts == clo_profile.branch_counts


def test_observer_hook_falls_back_to_machine_loops():
    program = compile_source(LOOP)
    seen_ref, seen_clo = [], []
    Interpreter(program, observer=lambda i, v: seen_ref.append((i, v))).run(
        "main", [7]
    )
    ClosureVirtualMachine(
        translate_program(program),
        observer=lambda i, v: seen_clo.append((i, v)),
    ).run("main", [7])
    assert seen_ref == seen_clo


def test_legacy_function_without_blocks_falls_back():
    # A schema-v2 cache artifact has no block spans: not compilable,
    # but the engine still runs it through the machine loops.
    program = compile_source(LOOP)
    bytecode = translate_program(program)
    fn = bytecode.function("main")
    fn.blocks = ()
    assert compile_function(fn, 1000, 200) is None
    closure = ClosureVirtualMachine(bytecode)
    reference = Interpreter(
        program, cycle_cost=cycles_of, terminator_cost=cycles_of
    )
    ref = reference.run("main", [21])
    out = closure.run("main", [21])
    assert (ref.value, ref.steps, ref.cycles) == (out.value, out.steps, out.cycles)


# ----------------------------------------------------------------------
# Generated source
# ----------------------------------------------------------------------
def test_function_source_is_real_python():
    program = compile_source(LOOP)
    fn = translate_program(program).function("main")
    src = function_source(fn)
    assert "def " in src and "_blk_" in src
    compile(src, "<closure-test>", "exec")  # must parse
