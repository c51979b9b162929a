"""Superinstruction fusion: the fast stream and its exactness contract.

``fuse_function`` builds ``fn.xcode`` — a mutable list parallel to
``fn.code`` where mined hot pairs, always-fused families (cmp+branch,
wrap64 binop pairs/triples) and op+goto latches collapse into single
tuples.  The contract under test: step weights sum exactly, cycle
costs sum exactly, consumed slots stay as unreachable padding, jump
targets never land mid-superinstruction, and the fused machine remains
bit-identical to the reference interpreter — including budget stops
that land *inside* a superinstruction.
"""

import pytest

from repro.costmodel.model import cycles_of
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import BudgetExceeded, Interpreter
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.vm import VirtualMachine, translate_program
from repro.vm.bytecode import (
    OP_ADD,
    OP_GOTO,
    OP_IF,
    OP_LT,
    OP_MUL,
)
from repro.vm.fusion import (
    _GOTO_XOPS,
    _PAIR_XOPS,
    _TRIPLE_XOPS,
    OP_IF_LT,
    mine_hot_pairs,
)

COUNTUP = """
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) {
    acc = acc + i * 3;
    i = i + 1;
  }
  return acc;
}
"""

MIXER = """
fn main(n: int) -> int {
  var h: int = 1469598103934665603;
  var i: int = 0;
  while (i < n) {
    h = (h ^ i) * 1099511628211;
    h = h + (h >> 13);
    i = i + 1;
  }
  return h;
}
"""


def fused_main(source: str):
    program = compile_source(source)
    bytecode = translate_program(program)
    return program, bytecode, bytecode.function("main")


# ----------------------------------------------------------------------
# Stream structure
# ----------------------------------------------------------------------
def test_xcode_is_parallel_list_with_padding_slots():
    _, _, fn = fused_main(COUNTUP)
    assert isinstance(fn.xcode, list)
    assert len(fn.xcode) == len(fn.code)
    pc = 0
    while pc < len(fn.xcode):
        ins = fn.xcode[pc]
        w = ins[-1]
        assert w in (1, 2, 3)
        # Consumed slots keep their original tuples (plus the weight
        # suffix) as unreachable padding, so pcs stay addressable.
        for k in range(1, w):
            assert fn.xcode[pc + k][:-1] == fn.code[pc + k]
        pc += w


def test_fusion_happened_at_all():
    _, _, fn = fused_main(COUNTUP)
    assert any(ins[-1] > 1 for ins in fn.xcode), "expected fused sites"


def test_fused_costs_and_weights_sum_exactly():
    _, _, fn = fused_main(MIXER)
    for pc, ins in enumerate(fn.xcode):
        w = ins[-1]
        if w == 1:
            continue
        originals = fn.code[pc : pc + w]
        assert ins[1] == sum(o[1] for o in originals)
        assert ins[-1] == len(originals)
        # Slot -2 carries the w-1 unfused prefix halves for the
        # budget-stop replay, in execution order.
        assert ins[-2] == tuple(originals[:-1])


def test_wrap64_pair_layout_is_flat():
    # add;mul under a pair superinstruction: operands at fixed slots,
    # no nested tuple indexing on the hot path.
    program = compile_source(COUNTUP)
    bytecode = translate_program(program)
    fn = bytecode.function("main")
    pairs = [
        (pc, ins)
        for pc, ins in enumerate(fn.xcode)
        if ins[-1] == 2 and ins[0] in _PAIR_XOPS.values()
    ]
    for pc, ins in pairs:
        a, b = fn.code[pc], fn.code[pc + 1]
        assert ins[2] == a[2]  # source node of the first half
        assert (ins[3], ins[4], ins[5]) == (a[3], a[4], a[5])
        assert (ins[6], ins[7], ins[8]) == (b[3], b[4], b[5])


def test_wrap64_triple_layout_is_flat():
    _, _, fn = fused_main(MIXER)
    triples = [
        (pc, ins) for pc, ins in enumerate(fn.xcode) if ins[-1] == 3
    ]
    assert triples, "expected a wrap64 run of three in the mixer loop"
    for pc, ins in triples:
        a, b, c = fn.code[pc : pc + 3]
        assert ins[0] == _TRIPLE_XOPS[(a[0], b[0], c[0])]
        assert (ins[3], ins[4], ins[5]) == (a[3], a[4], a[5])
        assert (ins[6], ins[7], ins[8]) == (b[3], b[4], b[5])
        assert (ins[9], ins[10], ins[11]) == (c[3], c[4], c[5])
        assert ins[-2] == (a, b)


def test_cmp_branch_always_fuses():
    _, _, fn = fused_main(COUNTUP)
    assert any(ins[0] == OP_IF_LT for ins in fn.xcode)


def test_jump_targets_never_fall_inside_a_superinstruction():
    for source in (COUNTUP, MIXER):
        _, _, fn = fused_main(source)
        starts = set()
        pc = 0
        while pc < len(fn.xcode):
            starts.add(pc)
            pc += fn.xcode[pc][-1]
        for ins in fn.code:
            if ins[0] == OP_GOTO:
                assert ins[4][0] in starts
            elif ins[0] == OP_IF:
                assert ins[5][0] in starts and ins[6][0] in starts


# ----------------------------------------------------------------------
# Mining
# ----------------------------------------------------------------------
def test_mine_hot_pairs_is_deterministic_and_ranked():
    program = compile_source(COUNTUP)
    bytecode = translate_program(program)
    plan = mine_hot_pairs(program, bytecode)
    assert plan == mine_hot_pairs(program, bytecode)
    assert len(plan) == len(set(plan))
    assert (OP_LT, OP_IF) in plan or (OP_ADD, OP_ADD) in plan


def test_fused_sites_metric_emitted():
    registry = MetricsRegistry()
    with use_registry(registry):
        fused_main(COUNTUP)
    assert registry.snapshot().counter_total("repro_vm_fused_sites_total") > 0


# ----------------------------------------------------------------------
# Exactness: parity and budget stops across fused boundaries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", [COUNTUP, MIXER], ids=["countup", "mixer"])
def test_fused_machine_matches_reference(source):
    program = compile_source(source)
    bytecode = translate_program(program)
    reference = Interpreter(
        program,
        cycle_cost=cycles_of,
        terminator_cost=cycles_of,
    )
    vm = VirtualMachine(bytecode)
    for args in ([0], [1], [13], [57]):
        reference.reset()
        vm.reset()
        ref = reference.run("main", list(args))
        out = vm.run("main", list(args))
        assert (ref.value, ref.steps, ref.cycles) == (
            out.value, out.steps, out.cycles
        )


@pytest.mark.parametrize("source", [COUNTUP, MIXER], ids=["countup", "mixer"])
def test_budget_stop_exact_at_every_step_cap(source):
    # Sweeping the cap one step at a time forces the budget to trip on
    # every pc — including mid-superinstruction, where the prefix
    # halves replay through the base table before the stop.
    program = compile_source(source)
    bytecode = translate_program(program)
    reference_full = Interpreter(program)
    total = reference_full.run("main", [9]).steps
    for cap in range(1, total + 2):
        reference = Interpreter(
            program,
            max_steps=cap,
            cycle_cost=cycles_of,
            terminator_cost=cycles_of,
        )
        vm = VirtualMachine(bytecode, max_steps=cap)
        ref_stop = vm_stop = None
        try:
            reference.run("main", [9])
        except BudgetExceeded as exc:
            ref_stop = str(exc)
        try:
            vm.run("main", [9])
        except BudgetExceeded as exc:
            vm_stop = str(exc)
        assert ref_stop == vm_stop
        assert reference.state.steps == vm.state.steps
        assert reference.state.cycles == vm.state.cycles


def test_nofuse_machine_ignores_the_fast_stream():
    # The ablation row: fused=False pins the flat loops but computes
    # the same thing with the same accounting.
    program = compile_source(MIXER)
    bytecode = translate_program(program)
    fused = VirtualMachine(bytecode)
    flat = VirtualMachine(bytecode, fused=False)
    a = fused.run("main", [23])
    b = flat.run("main", [23])
    assert (a.value, a.steps, a.cycles) == (b.value, b.steps, b.cycles)


def test_goto_latch_fuses_when_mined():
    # `i = i + 1; goto header` is the canonical loop latch; when the
    # miner ranks (add, goto) it becomes a specialized op+goto site.
    source = """
    fn main(n: int) -> int {
      var i: int = 0;
      while (i < n) { i = i + 1; }
      return i;
    }
    """
    program = compile_source(source)
    bytecode = translate_program(program)
    fn = bytecode.function("main")
    plan = mine_hot_pairs(program, bytecode)
    assert (OP_ADD, OP_GOTO) in plan
    assert any(ins[0] == _GOTO_XOPS[OP_ADD] for ins in fn.xcode)


def test_every_wrap64_pair_and_triple_handler_exists():
    assert len(_PAIR_XOPS) == 81
    assert len(_GOTO_XOPS) == 9
    assert len(_TRIPLE_XOPS) == 729
    assert (OP_MUL, OP_ADD) in _PAIR_XOPS
    # Deterministic numbering: regenerating the tables yields the same
    # opcode for the same pair (pickle-stable across workers).
    assert _PAIR_XOPS[(OP_ADD, OP_ADD)] == min(_PAIR_XOPS.values())
