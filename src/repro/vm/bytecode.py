"""Bytecode containers and the instruction encoding.

One translated function is a flat tuple of **pre-decoded instruction
tuples**.  Every tuple shares a fixed prefix::

    (opcode, cycle_cost, source_node, dest_register, ...operands)

* ``opcode`` — an integer index into the machine's handler table;
* ``cycle_cost`` — the node's cost-model cycles, baked at translation
  time so every run adds a float instead of calling ``cycles_of``;
* ``source_node`` — the originating IR node (kept for the observer
  hook, ``ProfileCollector.record_branch`` and diagnostics);
* ``dest_register`` — index into the flat register file, or ``-1``
  for terminators (which produce no value and are never observed).

Operand fields after the prefix are opcode-specific; the layouts are
documented per-opcode below and in docs/VM.md.  Branch operands are
**edge descriptors** ``(target_pc, moves, phis, target_block)``:
``moves`` is the sequentialized parallel-copy list lowered from the
target's phis for this edge, ``phis`` pairs each phi node with its
destination register (observer mode only), ``target_block`` feeds
``ProfileCollector.record_block``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..ir.ops import BinOp, CmpOp

# ----------------------------------------------------------------------
# Opcodes.  The numeric values index the machine's handler table; keep
# them dense and stable within one process (they are also pickled into
# cached artifacts, so bump the cache schema when reordering).
# ----------------------------------------------------------------------
(
    OP_ADD,
    OP_SUB,
    OP_MUL,
    OP_DIV,
    OP_MOD,
    OP_AND,
    OP_OR,
    OP_XOR,
    OP_SHL,
    OP_SHR,
    OP_USHR,
    OP_EQ,
    OP_NE,
    OP_LT,
    OP_LE,
    OP_GT,
    OP_GE,
    OP_NOT,
    OP_NEG,
    OP_NEW,
    OP_LOAD_FIELD,
    OP_STORE_FIELD,
    OP_LOAD_GLOBAL,
    OP_STORE_GLOBAL,
    OP_NEW_ARRAY,
    OP_ARRAY_LOAD,
    OP_ARRAY_STORE,
    OP_ARRAY_LENGTH,
    OP_CALL,
    OP_GOTO,
    OP_IF,
    OP_RETURN,
) = range(32)

OPCODE_NAMES = (
    "add", "sub", "mul", "div", "mod", "and", "or", "xor",
    "shl", "shr", "ushr",
    "eq", "ne", "lt", "le", "gt", "ge",
    "not", "neg", "new",
    "load_field", "store_field", "load_global", "store_global",
    "new_array", "array_load", "array_store", "array_length",
    "call", "goto", "if", "return",
)

#: BinOp -> opcode (arithmetic handlers inline ``eval_binop`` semantics)
ARITH_OPCODES = {
    BinOp.ADD: OP_ADD,
    BinOp.SUB: OP_SUB,
    BinOp.MUL: OP_MUL,
    BinOp.DIV: OP_DIV,
    BinOp.MOD: OP_MOD,
    BinOp.AND: OP_AND,
    BinOp.OR: OP_OR,
    BinOp.XOR: OP_XOR,
    BinOp.SHL: OP_SHL,
    BinOp.SHR: OP_SHR,
    BinOp.USHR: OP_USHR,
}

#: CmpOp -> opcode (EQ/NE keep the reference identity semantics)
CMP_OPCODES = {
    CmpOp.EQ: OP_EQ,
    CmpOp.NE: OP_NE,
    CmpOp.LT: OP_LT,
    CmpOp.LE: OP_LE,
    CmpOp.GT: OP_GT,
    CmpOp.GE: OP_GE,
}


class BytecodeFunction:
    """One translated function: flat code plus its register frame shape.

    ``template`` is the ready-made register file — length ``nregs``,
    constants already materialized in their slots — copied per call
    (``regs = template[:]``) with the arguments overwriting slots
    ``0..nparams-1``.  ``entry_block`` is the IR entry block, recorded
    at frame entry by profiling runs exactly like the reference
    interpreter's block-entry hook.

    ``xcode`` is the fused fast stream built by :mod:`repro.vm.fusion`:
    a mutable *list* parallel to ``code`` where every tuple carries a
    trailing step weight (1 for plain ops, 2 for superinstructions) and
    quickening (:mod:`repro.vm.quicken`) rewrites sites in place on a
    function's first execution.  ``blocks`` records the basic-block
    layout as ``(start_pc, instruction_count, block_name)`` spans, and
    ``const_base``/``const_count`` delimit the interned-constant
    register range — both feed fusion mining, constant baking and the
    closure engine's block-at-a-time lowering.  The extended fields are
    **class-level defaults** so schema-v2 pickles (plain flat-tuple
    bytecode) rehydrate cleanly and simply skip the fast paths.
    """

    xcode: Optional[list] = None
    quickened: bool = True
    blocks: tuple = ()
    const_base: int = 0
    const_count: int = 0

    def __init__(self, name: str, nparams: int) -> None:
        self.name = name
        self.nparams = nparams
        self.nregs = 0
        self.code: tuple = ()
        self.template: list = []
        self.entry_block: Optional[Any] = None

    def __repr__(self) -> str:
        return (
            f"<BytecodeFunction {self.name}: {len(self.code)} ops, "
            f"{self.nregs} regs>"
        )


class BytecodeProgram:
    """A whole translated program.

    ``globals_init`` is the flattened global-variable initialization —
    ``(name, default_value)`` pairs with the defaults already computed
    (defaults are immutable, so one pair list serves every reset).
    """

    def __init__(
        self,
        functions: dict[str, BytecodeFunction],
        globals_init: tuple,
    ) -> None:
        self.functions = functions
        self.globals_init = globals_init

    def function(self, name: str) -> BytecodeFunction:
        return self.functions[name]

    def __repr__(self) -> str:
        return f"<BytecodeProgram: {len(self.functions)} function(s)>"


# ----------------------------------------------------------------------
# Disassembler (debugging aid; also keeps docs/VM.md examples honest).
# ----------------------------------------------------------------------
def _format_edge(edge: tuple) -> str:
    pc, moves, _phis, block = edge
    copies = "".join(f" r{d}<-r{s}" for d, s in moves)
    return f"@{pc}({block.name}){copies}"


def _format_ins(pc: int, ins: tuple) -> str:
    op = ins[0]
    name = OPCODE_NAMES[op]
    dest = f"r{ins[3]} = " if ins[3] >= 0 else ""
    if op == OP_GOTO:
        body = _format_edge(ins[4])
    elif op == OP_IF:
        body = f"r{ins[4]} ? {_format_edge(ins[5])} : {_format_edge(ins[6])}"
    elif op == OP_RETURN:
        body = f"r{ins[4]}" if ins[4] >= 0 else ""
    elif op == OP_CALL:
        args = ", ".join(f"r{r}" for r in ins[5])
        body = f"{ins[4].name}({args})"
    else:
        body = " ".join(
            f"r{o}" if isinstance(o, int) else repr(o) for o in ins[4:]
        )
    return f"  {pc:4d}: {dest}{name} {body}".rstrip()


def _format_xins(pc: int, ins: tuple) -> str:
    # Lazy import: opspec depends on this module.
    from .opspec import BASE_FAMILIES, OPCODE_SPECS

    spec = OPCODE_SPECS.get(ins[0])
    if spec is None:
        return f"  {pc:4d}: ?op{ins[0]} {ins[1:]!r}"
    if spec.family in BASE_FAMILIES:
        return _format_ins(pc, ins[:-1])
    operands = " ".join(
        f"r{o}" if isinstance(o, int) else "<edge>" if isinstance(o, tuple)
        and o and isinstance(o[0], int) and len(o) == 4 else repr(o)
        for o in ins[3:-2]
    )
    return f"  {pc:4d}: {spec.name} [{spec.family} w={ins[-1]}] {operands}"


def disassemble(fn: BytecodeFunction, stream: str = "code") -> str:
    """Human-readable listing of one translated function.

    ``stream="xcode"`` lists the fused/quickened fast stream instead
    (falling back to ``fn.code`` when no fast stream exists), tagging
    superinstructions with their family and step weight.
    """
    lines = [f"fn {fn.name}: {fn.nparams} param(s), {fn.nregs} reg(s)"]
    if stream == "xcode" and fn.xcode is not None:
        for pc, ins in enumerate(fn.xcode):
            lines.append(_format_xins(pc, ins))
    else:
        for pc, ins in enumerate(fn.code):
            lines.append(_format_ins(pc, ins))
    return "\n".join(lines)
