"""Tiering determinism: promotion order and digests across processes.

Identical (source, seed, thresholds) must yield identical promotion
order, an identical ``tier.*`` event stream and identical final
bytecode digests — in two *fresh* interpreter processes, so any hidden
dependence on hash randomization, dict order or wall-clock leaks out
as a cross-process diff.  In-process re-runs are checked too (cheaper,
catches ordering bugs earlier).
"""

import json
import os
import subprocess
import sys
import pathlib

import pytest

from repro.analysis.progen import random_program
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm import TieredVirtualMachine, TieringPolicy

REPO = pathlib.Path(__file__).parent.parent.parent
NQUEENS = REPO / "examples" / "apps" / "nqueens.mini"

#: the subprocess driver: compile, run tiered, print the controller
#: report (promotion order + stream digests) and the tier event stream
DRIVER = """
import json, sys
from repro.obs.tracer import Tracer, use_tracer
from repro.pipeline.compiler import compile_and_profile
from repro.pipeline.config import DBDS
from repro.vm import TieredVirtualMachine, TieringPolicy

source = sys.stdin.read()
threshold = int(sys.argv[1])
runs = int(sys.argv[2])
program, _ = compile_and_profile(source, "main", [[5]], DBDS)
tracer = Tracer()
with use_tracer(tracer):
    machine = TieredVirtualMachine(
        program, policy=TieringPolicy(threshold=threshold)
    )
    for _ in range(runs):
        machine.reset()
        machine.run("main", [6])
report = machine.controller.report()
events = [
    {"name": e.name, "attrs": {k: v for k, v in e.attrs.items() if k != "seconds"}}
    for e in tracer.events
    if e.name.startswith("tier.")
]
print(json.dumps({"report": report, "events": events}, sort_keys=True))
"""


def run_fresh_process(source, threshold=8, runs=3):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    # Fresh random hash seed per process: determinism must not depend
    # on it.
    env.pop("PYTHONHASHSEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(threshold), str(runs)],
        input=source, capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def normalize(payload):
    # Compile seconds vary run to run; everything else must not.
    for promo in payload["report"]["promotions"]:
        promo.pop("seconds", None)
    return payload


def test_two_fresh_processes_agree():
    source = NQUEENS.read_text()
    first = normalize(run_fresh_process(source))
    second = normalize(run_fresh_process(source))
    assert first == second
    assert first["report"]["promotions"], "expected promotions to compare"
    assert any(e["name"] == "tier.promote" for e in first["events"])


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_generated_programs_agree_across_processes(seed):
    source = random_program(seed)
    first = normalize(run_fresh_process(source, threshold=4, runs=2))
    second = normalize(run_fresh_process(source, threshold=4, runs=2))
    assert first == second


def test_in_process_reruns_agree():
    source = NQUEENS.read_text()
    program, _ = compile_and_profile(source, "main", [[5]], DBDS)

    def one_report():
        machine = TieredVirtualMachine(
            program, policy=TieringPolicy(threshold=8)
        )
        for _ in range(3):
            machine.reset()
            machine.run("main", [6])
        return machine.controller.report()

    # Each machine translates its own baseline stream, so both start
    # cold even though they share the program object.
    assert one_report() == one_report()


def test_promotion_order_is_execution_order():
    source = NQUEENS.read_text()
    program, _ = compile_and_profile(source, "main", [[5]], DBDS)
    machine = TieredVirtualMachine(
        program, policy=TieringPolicy(threshold=8)
    )
    machine.run("main", [6])
    order = [p["function"] for p in machine.controller.promotions]
    assert order == sorted(set(order), key=order.index)  # no duplicates
    # conflicts goes hot before place accumulates enough back edges:
    # the order is a semantic artifact of execution, stable by contract.
    machine2 = TieredVirtualMachine(
        program, policy=TieringPolicy(threshold=8)
    )
    machine2.run("main", [6])
    assert [p["function"] for p in machine2.controller.promotions] == order
