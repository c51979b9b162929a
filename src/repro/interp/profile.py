"""Profile collection and application.

Mirrors the paper's setup: HotSpot's interpreter profiles branches, the
compiler reads those profiles as edge probabilities and loop
frequencies.  Here a profiling run of the unoptimized program on the
bytecode VM's hooked flat-tuple loop fills the counters, and
:func:`apply_profile` writes them into ``If.true_probability`` and
``Block.profile_trip_count`` on the very graphs the compiler will
transform; clones carry the data along.

The VM fires ``record_block``/``record_branch`` at the reference
interpreter's points, keyed by the same IR ``Block``/``If`` objects,
and stops at the same step, so the collector equals the one
``Interpreter(profile=...)`` fills — traps, budget stops and partial
counts included.  The interpreter stays the oracle for that parity
(``tests/test_interp/test_profile.py``).
"""

from __future__ import annotations

from typing import Any, Iterable

from ..ir.graph import Program
from ..ir.loops import DEFAULT_TRIP_COUNT
from ..ir.nodes import If
from ..vm.machine import VirtualMachine
from ..vm.translate import translate_program
from .interpreter import ProfileCollector


def profile_program(
    program: Program,
    entry: str,
    arg_sets: Iterable[list[Any]],
    max_steps: int = 50_000_000,
) -> ProfileCollector:
    """Run ``entry`` over every argument set, collecting counters.

    Each set runs on fresh globals and meters.  A trap ends that run
    only; :class:`~repro.interp.interpreter.BudgetExceeded` (more than
    ``max_steps`` steps in one run) propagates.  The bytecode is
    translated unfused: it serves this one hooked run and is dropped.
    """
    collector = ProfileCollector()
    vm = VirtualMachine(
        translate_program(program, fuse=False),
        max_steps=max_steps,
        profile=collector,
    )
    for args in arg_sets:
        vm.reset()
        vm.run(entry, list(args))
    return collector


def apply_profile(program: Program, collector: ProfileCollector) -> None:
    """Write collected counters back into the IR as probabilities.

    * Each executed ``If`` gets its observed true-probability (clamped
      away from exactly 0/1 — the runtime can always see a new path).
    * Each loop header gets an observed trip count:
      executions / entries.
    """
    for graph in program.functions.values():
        for block in graph.blocks:
            term = block.terminator
            if isinstance(term, If):
                p = collector.true_probability(term)
                if p is not None:
                    term.true_probability = min(max(p, 0.01), 0.99)
        forest = graph.loop_forest()
        for loop in forest.loops:
            header_runs = collector.block_counts.get(loop.header, 0)
            entries = sum(
                collector.block_counts.get(pred, 0)
                for pred in loop.header.predecessors
                if pred not in loop.back_edge_predecessors
            )
            if header_runs and entries:
                loop.header.profile_trip_count = max(header_runs / entries, 1.0)
        # Probabilities and trip counts feed the frequency analysis (and
        # LoopForest snapshots trip counts at build time): recompute.
        graph.invalidate_analyses()


def profiled_trip_count(block) -> float:
    """Trip count recorded on a loop header, or the static default."""
    return getattr(block, "profile_trip_count", DEFAULT_TRIP_COUNT)
