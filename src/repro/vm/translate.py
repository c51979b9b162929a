"""IR → bytecode translation.

Register allocation of SSA values is trivial by construction — every
value gets one dense slot, assigned in a fixed layout::

    [parameters][interned constants][phi/instruction results][void][scratch]

* **parameters** occupy slots ``0..nparams-1`` so a frame is entered by
  copying the template and overwriting the argument prefix;
* **constants** are materialized once into the frame template, so the
  dispatch loop never checks ``isinstance(value, Constant)``;
* **instructions and phis** each own a slot (SSA single-assignment
  makes slot reuse unnecessary for correctness; re-executions in loops
  simply overwrite);
* the shared **void** slot is the destination of stores, which produce
  ``None`` exactly like the reference's ``env[store] = None``;
* the **scratch** slot breaks cycles when sequentializing phi copies.

Phis are lowered into per-edge **parallel-copy move sequences** folded
into the predecessor's branch instruction: the edge descriptor carries
``(dst, src)`` register moves sequentialized with the classic
readers-count algorithm (a swap cycle borrows the scratch register),
which preserves the reference's read-all-before-write-any semantics.
Step parity falls out of the encoding: every executed bytecode tuple
is exactly one reference step (instructions + terminators), and phi
moves ride along with the branch at zero extra steps.

Cycle costs are baked into each tuple at translation time.  Phi entry
costs (zero under the default model) are folded into the cost of the
successor block's first instruction — total metered cycles match the
reference exactly on completed runs.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..costmodel.model import cycles_of
from ..ir.cfgutils import reverse_post_order
from ..ir.graph import Graph, Program
from ..ir.nodes import (
    ArithOp,
    ArrayLength,
    ArrayLoad,
    ArrayStore,
    Call,
    Compare,
    Constant,
    Goto,
    If,
    LoadField,
    LoadGlobal,
    Neg,
    New,
    NewArray,
    Not,
    Return,
    StoreField,
    StoreGlobal,
)
from .bytecode import (
    ARITH_OPCODES,
    CMP_OPCODES,
    OP_ARRAY_LENGTH,
    OP_ARRAY_LOAD,
    OP_ARRAY_STORE,
    OP_CALL,
    OP_GOTO,
    OP_IF,
    OP_LOAD_FIELD,
    OP_LOAD_GLOBAL,
    OP_NEG,
    OP_NEW,
    OP_NEW_ARRAY,
    OP_NOT,
    OP_RETURN,
    OP_STORE_FIELD,
    OP_STORE_GLOBAL,
    BytecodeFunction,
    BytecodeProgram,
)

_STORE_CLASSES = (StoreField, StoreGlobal, ArrayStore)


def _sequentialize(pairs: list[tuple[int, int]], scratch: int) -> tuple:
    """Order a parallel copy into sequential moves.

    ``pairs`` are ``(dst, src)`` with all destinations distinct.  A
    move is emittable when its destination is not read by any pending
    move; when none is (a cycle), the value of some destination is
    saved to ``scratch`` and remaining readers are redirected there.
    """
    pending = [(d, s) for d, s in pairs if d != s]
    out: list[tuple[int, int]] = []
    while pending:
        srcs = [s for _, s in pending]
        for i, (d, s) in enumerate(pending):
            if d not in srcs:
                out.append((d, s))
                pending.pop(i)
                break
        else:  # every destination is still read: break the cycle
            d = pending[0][0]
            out.append((scratch, d))
            pending = [
                (dd, scratch if ss == d else ss) for dd, ss in pending
            ]
    return tuple(out)


class _GraphTranslator:
    """Translates one graph; see module docstring for the layout."""

    def __init__(
        self,
        program: Program,
        graph: Graph,
        functions: dict[str, BytecodeFunction],
        cycle_cost: Callable,
        terminator_cost: Callable,
    ) -> None:
        self.program = program
        self.graph = graph
        self.functions = functions
        self.cycle_cost = cycle_cost
        self.terminator_cost = terminator_cost
        self.regmap: dict = {}
        self.order = reverse_post_order(graph)
        assert self.order and self.order[0] is graph.entry

    # -- register layout ------------------------------------------------
    def _assign_registers(self) -> None:
        regmap = self.regmap
        next_reg = 0
        for param in self.graph.parameters:
            regmap[param] = next_reg
            next_reg += 1
        self.first_const = next_reg
        self.constants: list[Constant] = []
        for block in self.order:
            for user in block.all_instructions():
                for value in user.inputs:
                    if isinstance(value, Constant) and value not in regmap:
                        regmap[value] = next_reg
                        self.constants.append(value)
                        next_reg += 1
            if block.terminator is not None:
                for value in block.terminator.inputs:
                    if isinstance(value, Constant) and value not in regmap:
                        regmap[value] = next_reg
                        self.constants.append(value)
                        next_reg += 1
        for block in self.order:
            for phi in block.phis:
                regmap[phi] = next_reg
                next_reg += 1
            for ins in block.instructions:
                if isinstance(ins, _STORE_CLASSES):
                    continue  # stores share the void slot
                regmap[ins] = next_reg
                next_reg += 1
        self.void = next_reg
        self.scratch = next_reg + 1
        self.nregs = next_reg + 2
        for block in self.order:
            for ins in block.instructions:
                if isinstance(ins, _STORE_CLASSES):
                    regmap[ins] = self.void

    def _reg(self, value) -> int:
        return self.regmap[value]

    # -- instruction encoding -------------------------------------------
    def _encode(self, ins) -> list:
        """One pre-decoded tuple (as a mutable list until backpatch)."""
        cost = self.cycle_cost(ins)
        dest = self.regmap[ins]
        reg = self._reg
        if isinstance(ins, ArithOp):
            return [ARITH_OPCODES[ins.op], cost, ins, dest, reg(ins.x), reg(ins.y)]
        if isinstance(ins, Compare):
            return [CMP_OPCODES[ins.op], cost, ins, dest, reg(ins.x), reg(ins.y)]
        if isinstance(ins, Not):
            return [OP_NOT, cost, ins, dest, reg(ins.x)]
        if isinstance(ins, Neg):
            return [OP_NEG, cost, ins, dest, reg(ins.x)]
        if isinstance(ins, New):
            decl = self.program.class_table.lookup(ins.object_type.class_name)
            fields = tuple((f.name, f.type.default_value()) for f in decl.fields)
            return [OP_NEW, cost, ins, dest, decl.name, fields]
        if isinstance(ins, LoadField):
            return [OP_LOAD_FIELD, cost, ins, dest, reg(ins.obj), ins.field]
        if isinstance(ins, StoreField):
            return [
                OP_STORE_FIELD, cost, ins, dest,
                reg(ins.obj), ins.field, reg(ins.value),
            ]
        if isinstance(ins, LoadGlobal):
            return [OP_LOAD_GLOBAL, cost, ins, dest, ins.global_name]
        if isinstance(ins, StoreGlobal):
            return [OP_STORE_GLOBAL, cost, ins, dest, ins.global_name, reg(ins.value)]
        if isinstance(ins, NewArray):
            default = ins.element_type.default_value()
            return [OP_NEW_ARRAY, cost, ins, dest, reg(ins.length), default]
        if isinstance(ins, ArrayLoad):
            return [OP_ARRAY_LOAD, cost, ins, dest, reg(ins.array), reg(ins.index)]
        if isinstance(ins, ArrayStore):
            return [
                OP_ARRAY_STORE, cost, ins, dest,
                reg(ins.array), reg(ins.index), reg(ins.value),
            ]
        if isinstance(ins, ArrayLength):
            return [OP_ARRAY_LENGTH, cost, ins, dest, reg(ins.array)]
        if isinstance(ins, Call):
            callee = self.functions[ins.callee]
            return [
                OP_CALL, cost, ins, dest,
                callee, tuple(reg(a) for a in ins.args),
            ]
        raise AssertionError(f"cannot translate {type(ins).__name__}")

    def _encode_terminator(self, term) -> list:
        cost = self.terminator_cost(term)
        if isinstance(term, Return):
            value = -1 if term.value is None else self._reg(term.value)
            return [OP_RETURN, cost, term, -1, value]
        if isinstance(term, Goto):
            return [OP_GOTO, cost, term, -1, term.target]
        if isinstance(term, If):
            return [
                OP_IF, cost, term, -1,
                self._reg(term.condition), term.true_target, term.false_target,
            ]
        raise AssertionError(f"unknown terminator {term!r}")

    # -- edges -----------------------------------------------------------
    def _edge(self, pred_block, target) -> tuple:
        pc = self.block_pc[target]
        if target.phis:
            index = target.predecessor_index(pred_block)
            pairs = [
                (self.regmap[phi], self._reg(phi.input(index)))
                for phi in target.phis
            ]
            moves = _sequentialize(pairs, self.scratch)
            phis = tuple((phi, self.regmap[phi]) for phi in target.phis)
        else:
            moves, phis = (), ()
        return (pc, moves, phis, target)

    # -- driver ----------------------------------------------------------
    def translate(self, fn: BytecodeFunction) -> BytecodeFunction:
        self._assign_registers()
        code: list[list] = []
        spans: list[tuple[int, int, str]] = []
        self.block_pc: dict = {}
        for block in self.order:
            self.block_pc[block] = len(code)
            first = len(code)
            for ins in block.instructions:
                code.append(self._encode(ins))
            code.append(self._encode_terminator(block.terminator))
            spans.append((first, len(code) - first, block.name))
            if block.phis:
                # Phi entry cost rides on the block's first instruction
                # (always present: at minimum the terminator).
                code[first][1] += sum(self.cycle_cost(p) for p in block.phis)
        # Backpatch branch targets now that every block has a pc.
        for ins in code:
            op = ins[0]
            if op == OP_GOTO:
                ins[4] = self._edge(ins[2].block, ins[4])
            elif op == OP_IF:
                ins[5] = self._edge(ins[2].block, ins[5])
                ins[6] = self._edge(ins[2].block, ins[6])
        template = [None] * self.nregs
        for const in self.constants:
            template[self.regmap[const]] = const.value
        fn.nregs = self.nregs
        fn.code = tuple(tuple(ins) for ins in code)
        fn.template = template
        fn.entry_block = self.graph.entry
        fn.blocks = tuple(spans)
        fn.const_base = self.first_const
        fn.const_count = len(self.constants)
        return fn


def translate_graph(
    program: Program,
    graph: Graph,
    functions: Optional[dict[str, BytecodeFunction]] = None,
    cycle_cost: Callable = cycles_of,
    terminator_cost: Callable = cycles_of,
) -> BytecodeFunction:
    """Translate one function graph (callees resolve via ``functions``)."""
    if functions is None:
        functions = {
            name: BytecodeFunction(name, len(g.parameters))
            for name, g in program.functions.items()
        }
    fn = functions[graph.name]
    return _GraphTranslator(
        program, graph, functions, cycle_cost, terminator_cost
    ).translate(fn)


def translate_program(
    program: Program,
    cycle_cost: Callable = cycles_of,
    terminator_cost: Callable = cycles_of,
    fuse: bool = True,
    vmprofile=None,
    check_bc: str = "off",
) -> BytecodeProgram:
    """Translate a whole program into executable bytecode.

    Cost functions default to the node cost model so VM runs (always
    metered) report the same cycle totals as the reference interpreter
    metered with ``cycles_of``;
    pass custom functions to bake a different model.

    ``fuse=True`` (default) also builds each function's fused fast
    stream (:mod:`repro.vm.fusion`), mining hot pairs from
    ``vmprofile`` when given and from static block frequencies
    otherwise — cached artifacts therefore carry superinstructions.
    ``fuse=False`` yields the plain flat-tuple stream only.

    ``check_bc="rewrite"`` runs the static bytecode verifier
    (:mod:`repro.analysis.bcverify`) on the freshly built streams —
    including a quickened clone of every fused function, so both rewrite
    passes are covered — and raises
    :class:`~repro.analysis.bcverify.BytecodeVerificationError` on any
    violation.  The retranslation-equivalence layer is skipped (it
    would compare the result with itself); ``"load"`` and ``"off"``
    are no-ops here, load-time checking lives in the artifact cache.
    """
    functions = {
        name: BytecodeFunction(name, len(graph.parameters))
        for name, graph in program.functions.items()
    }
    for name, graph in program.functions.items():
        translate_graph(program, graph, functions, cycle_cost, terminator_cost)
    globals_init = tuple(
        (name, ty.default_value()) for name, ty in program.globals.items()
    )
    bytecode = BytecodeProgram(functions, globals_init)
    if fuse:
        from .fusion import fuse_program

        fuse_program(program, bytecode, vmprofile=vmprofile)
    if check_bc == "rewrite":
        from ..analysis.bcverify import (
            BytecodeVerificationError,
            verify_bytecode,
        )

        report = verify_bytecode(
            bytecode, retranslate=False, lint=True, quicken=fuse
        )
        if not report.ok:
            raise BytecodeVerificationError(report)
    return bytecode
