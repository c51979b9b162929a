"""Tiered adaptive execution: threshold boundaries, swap invariants.

The contract under test (docs/TIERING.md): every function starts in
the unfused tier-0 baseline with zero-cost hotness counters; at
``calls + backedges >= threshold`` it is promoted exactly once —
recompiled from the live profile, optionally verified by the
``bcverify`` rewrite checkers, hot-swapped at call boundaries — and
promotion never perturbs steps, cycles, values or budget timing.
"""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import BudgetExceeded
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.compiler import compile_and_profile, make_engine
from repro.pipeline.config import DBDS
from repro.vm import (
    DEFAULT_TIER_THRESHOLD,
    TieredVirtualMachine,
    TieringPolicy,
    VirtualMachine,
    translate_program,
)

LOOPY = """
fn hot(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) {
    acc = acc + i * 3;
    i = i + 1;
  }
  return acc;
}

fn cold(x: int) -> int {
  return x + 41;
}

fn main(n: int) -> int {
  return hot(n) + cold(1);
}
"""

RECURSIVE = """
fn fib(n: int) -> int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}

fn main(n: int) -> int {
  return fib(n);
}
"""


def optimized(source, entry="main", profile_args=((8,),)):
    program, _ = compile_and_profile(
        source, entry, [list(a) for a in profile_args], DBDS
    )
    return program


def tiered(program, threshold, **kwargs):
    return TieredVirtualMachine(
        program,
        policy=TieringPolicy(threshold=threshold, **kwargs.pop("policy_kw", {})),
        **kwargs,
    )


def vm_baseline(program, entry, args):
    vm = VirtualMachine(translate_program(program))
    result = vm.run(entry, list(args))
    return result, vm


# ----------------------------------------------------------------------
# Threshold boundaries
# ----------------------------------------------------------------------
def test_exactly_at_threshold_promotes_on_entry():
    program = optimized(LOOPY)
    machine = tiered(program, threshold=3)
    # Two calls stay cold (hotness 1, then 2 plus backedges — use a
    # loop-free argument so backedges stay at zero).
    for _ in range(2):
        machine.reset()
        machine.run("hot", [0])
    assert machine.controller.promotions == []
    # The third call makes hotness == threshold exactly: promoted at
    # the call boundary, and the promoting call itself runs optimized.
    machine.reset()
    machine.run("hot", [0])
    [promo] = machine.controller.promotions
    assert promo["function"] == "hot"
    assert promo["trigger"] == "entry"
    assert promo["hotness"] == 3
    assert machine.bytecode.functions["hot"].xcode is not None


def test_one_below_threshold_stays_cold():
    program = optimized(LOOPY)
    machine = tiered(program, threshold=3)
    for _ in range(2):
        machine.reset()
        machine.run("hot", [0])
    assert machine.controller.promotions == []
    assert machine.bytecode.functions["hot"].xcode is None


def test_backedges_count_toward_hotness():
    program = optimized(LOOPY)
    machine = tiered(program, threshold=10)
    # One call plus >=9 loop back edges crosses the threshold inside
    # the frame: a backedge-triggered promotion.
    machine.run("hot", [20])
    [promo] = machine.controller.promotions
    assert promo["trigger"] == "backedge"
    assert promo["backedges"] >= 9


def test_cold_function_stays_sub_threshold():
    program = optimized(LOOPY)
    machine = tiered(program, threshold=50)
    for _ in range(10):
        machine.reset()
        machine.run("main", [30])
    promoted = {p["function"] for p in machine.controller.promotions}
    # The loop (in main, or in hot when the optimizer kept the call)
    # crosses 50 via back edges on the first run; cold — at most one
    # call per run, no loops — stays far below threshold, in tier-0.
    assert promoted & {"main", "hot"}
    assert "cold" not in promoted
    assert machine.bytecode.functions["cold"].xcode is None


def test_never_called_function_stays_tier0():
    program = optimized(LOOPY)
    machine = tiered(program, threshold=2)
    for _ in range(10):
        machine.reset()
        machine.run("hot", [10])
    assert machine.bytecode.functions["cold"].xcode is None
    assert "cold" not in machine.controller.states


def test_recursive_function_promotes_exactly_once():
    program = optimized(RECURSIVE, profile_args=((10,),))
    machine = tiered(program, threshold=16)
    machine.run("main", [12])
    promos = [p for p in machine.controller.promotions if p["function"] == "fib"]
    assert len(promos) == 1
    # Deep recursion means many tier-0 frames were live at the swap:
    # none of them may re-promote.
    machine.reset()
    machine.run("main", [12])
    assert len(machine.controller.promotions) == len(promos)


def test_backedge_promotion_swaps_only_at_call_boundaries():
    program = optimized(LOOPY)
    machine = tiered(program, threshold=10)
    fn = machine.bytecode.functions["hot"]
    result = machine.run("hot", [50])
    # Promotion happened mid-frame; the frame that triggered it ran to
    # completion in tier-0, and the swap is in place for the next call.
    assert fn.xcode is not None
    expected, _ = vm_baseline(program, "hot", [50])
    assert (result.value, result.steps, result.cycles) == (
        expected.value, expected.steps, expected.cycles,
    )
    machine.reset()
    again = machine.run("hot", [50])
    assert (again.value, again.steps, again.cycles) == (
        expected.value, expected.steps, expected.cycles,
    )


# ----------------------------------------------------------------------
# Accounting invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threshold", [1, 2, 3, 7, 64])
def test_counters_cost_zero_steps_and_cycles(threshold):
    program = optimized(LOOPY)
    expected, _ = vm_baseline(program, "main", [9])
    machine = tiered(program, threshold=threshold)
    for _ in range(3):
        machine.reset()
        result = machine.run("main", [9])
        assert (result.value, result.steps, result.cycles) == (
            expected.value, expected.steps, expected.cycles,
        )


@pytest.mark.parametrize("budget", [5, 37, 150, 600])
def test_budget_stops_identically_mid_promotion(budget):
    # Budget exhaustion must land on the same step whether or not the
    # run promoted first — including budgets that stop the run in the
    # middle of the frame whose back edge triggered promotion.
    program = optimized(LOOPY)
    baseline = VirtualMachine(
        translate_program(program), max_steps=budget
    )
    with pytest.raises(BudgetExceeded) as ref_exc:
        baseline.run("main", [200])
    machine = tiered(program, threshold=8, max_steps=budget)
    with pytest.raises(BudgetExceeded) as tier_exc:
        machine.run("main", [200])
    assert str(tier_exc.value) == str(ref_exc.value)
    assert machine.state.steps == baseline.state.steps
    assert machine.state.cycles == baseline.state.cycles


def test_promotions_survive_reset():
    program = optimized(LOOPY)
    machine = tiered(program, threshold=4)
    machine.run("hot", [30])
    assert machine.controller.promotions
    machine.reset()
    # Globals and meters reset; tiering state (a property of the
    # machine, not of one run) does not.
    assert machine.bytecode.functions["hot"].xcode is not None
    assert machine.controller.promotions


# ----------------------------------------------------------------------
# Verification, events, metrics
# ----------------------------------------------------------------------
def test_rewrite_mode_verifies_promoted_streams():
    program = optimized(LOOPY)
    machine = tiered(program, threshold=4, policy_kw={"check_bc": "rewrite"})
    result = machine.run("hot", [30])
    assert machine.controller.promotions
    expected, _ = vm_baseline(program, "hot", [30])
    assert (result.value, result.steps, result.cycles) == (
        expected.value, expected.steps, expected.cycles,
    )


def test_promotion_emits_events_and_metrics():
    from repro.obs.sinks import validate_record, event_to_dict

    program = optimized(LOOPY)
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        machine = tiered(program, threshold=4)
        machine.run("hot", [30])
    names = [e.name for e in tracer.events]
    assert "tier.promote" in names
    assert "tier.compile" in names
    assert tracer.counters.get("tier.promote") == len(
        machine.controller.promotions
    )
    for event in tracer.events:
        assert validate_record(event_to_dict(event)) == []
    snapshot = registry.snapshot().to_json()
    assert "repro_tier_promotions_total" in snapshot["counters"]
    assert "repro_tier_compile_seconds" in snapshot["histograms"]


def test_plan_cache_round_trip(tmp_path):
    program = optimized(LOOPY)
    cache = ArtifactCache(tmp_path / "cache")
    first = TieredVirtualMachine(
        program,
        policy=TieringPolicy(threshold=4), plan_cache=cache,
    )
    first.run("hot", [30])
    [promo] = first.controller.promotions
    assert promo["plan_cached"] is False
    # A second machine over a fresh translation of the same program
    # reaches the same profile fingerprint and reuses the stored plan.
    second = TieredVirtualMachine(
        program,
        policy=TieringPolicy(threshold=4), plan_cache=cache,
    )
    second.run("hot", [30])
    [promo2] = second.controller.promotions
    assert promo2["plan_cached"] is True
    assert promo2["plan"] == promo["plan"]
    assert promo2["digest"] == promo["digest"]
    assert cache.stats.hits >= 1


def test_policy_fingerprint_tracks_knobs():
    a = TieringPolicy(threshold=8)
    b = TieringPolicy(threshold=8)
    c = TieringPolicy(threshold=9)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert TieringPolicy().threshold == DEFAULT_TIER_THRESHOLD


def test_make_engine_constructs_cold_tiered_machine():
    program = optimized(LOOPY)
    machine = make_engine("tiered", program)
    assert isinstance(machine, TieredVirtualMachine)
    # Even when a fused artifact exists, the tiered engine starts cold.
    fused = translate_program(program)
    machine = make_engine("tiered", program, bytecode=fused)
    assert all(
        fn.xcode is None for fn in machine.bytecode.functions.values()
    )


def test_hooked_runs_pause_tiering():
    events = []
    program = optimized(LOOPY)
    machine = TieredVirtualMachine(
        program,
        policy=TieringPolicy(threshold=1),
        observer=lambda node, value: events.append((node, value)),
    )
    machine.run("hot", [10])
    assert events  # the observer saw the run...
    assert machine.controller.promotions == []  # ...and tiering paused
