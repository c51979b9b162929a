"""The requests each workload issues, and the pass loop that times them.

Importing this module imports the ``repro`` layers the requests call;
the set-up measurement times exactly that import.

A request is one user-visible JIT job:

* ``cold-suites``: parse, profile with the suite's profile arguments,
  compile under ``dbds``, translate, store the artifact in the pass's
  fresh cache directory, run on ``megaunit`` with the codegen cache
  on — ``repro run --cache-dir`` on an empty cache.
* ``long-run``: the same pipeline without a cache, profiling with the
  arguments it then runs with — ``repro run``.
* ``warm-exec``: a verifying cache read (``--check-bc load``), engine
  construction and the run, on the engine the request names.  A miss
  recompiles and stores, as ``repro run --cache-dir`` does.

Every exception a request raises is caught and recorded against the
layer that was running; a request whose values differ from the
expected ones counts as failed too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.bench.workloads.suites import ALL_SUITES, PAPER_SUITES, generate_suite
from repro.frontend.irbuilder import compile_source
from repro.interp.interpreter import Interpreter
from repro.interp.profile import apply_profile, profile_program
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracer import Tracer
from repro.pipeline.cache import ArtifactCache, cache_key, make_entry
from repro.pipeline.compiler import Compiler, make_engine
from repro.pipeline.config import DBDS
from repro.vm import translate_program

from .clock import calibrate, speed
from .spans import LAYER_OF, SpanRecorder, probes

ENTRY = "main"

#: the long-run workload's hand-written programs and their arguments,
#: sized so the reference-interpreter profiling run dominates
APPS = (("nqueens", [8]), ("wordfreq", [2000]), ("matrix", [10**15]))

#: warm-exec runs each suite program's measured arguments times this
WARM_SCALE = 3

#: engines a warm-exec pass rotates over (every program on each)
WARM_ENGINES = ("vm", "tiered", "megaunit")

#: warm-exec engines with an aux store (tier plans, generated source)
#: that the prefill fills
PREFILL_ENGINES = ("tiered", "megaunit")

#: generation seed of the suite programs.  Fixed: programs generated
#: from other seeds differ in size, so one pass's work moved by up to 24 %
#: across seeds 0-3, and different programs hit the pickling defect.
#: The benchmark's ``--seed`` draws the request order instead.
CORPUS_SEED = 0


@dataclass(frozen=True)
class Program:
    """One generated request input: a source and its arguments."""

    key: str
    source: str
    profile_args: tuple[tuple[int, ...], ...]
    run_args: tuple[tuple[int, ...], ...]


def _suite_programs(suites, scale: int = 1) -> list[Program]:
    return [
        Program(
            key=f"{w.suite}/{w.name}",
            source=w.source,
            profile_args=tuple(tuple(a) for a in w.profile_args),
            run_args=tuple(tuple(x * scale for x in a) for a in w.measure_args),
        )
        for suite in suites
        for w in generate_suite(ALL_SUITES[suite], CORPUS_SEED)
    ]


def corpus(workload: str, root: Path) -> list[Program]:
    """The programs a workload's requests compile or run."""
    if workload == "cold-suites":
        return _suite_programs(PAPER_SUITES)
    if workload == "warm-exec":
        return _suite_programs(PAPER_SUITES, WARM_SCALE)
    if workload == "long-run":
        apps = [
            Program(
                key=f"apps/{name}",
                source=(root / "examples" / "apps" / f"{name}.mini").read_text(),
                profile_args=(tuple(args),),
                run_args=(tuple(args),),
            )
            for name, args in APPS
        ]
        recursion = [
            Program(p.key, p.source, p.run_args, p.run_args)
            for p in _suite_programs(("recursion",))
        ]
        return apps + recursion
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Expected values: the reference interpreter on the unoptimized IR
# ----------------------------------------------------------------------
def reference_outcomes(program: Program) -> list[dict]:
    """Each run's value (or trap) from the tree-walking interpreter on
    the program as parsed — no profile, no optimizing compiler."""
    ir = compile_source(program.source)
    interpreter = Interpreter(ir)
    outcomes = []
    for args in program.run_args:
        interpreter.reset()
        outcomes.append(_outcome(interpreter.run(ENTRY, list(args))))
    return outcomes


def _outcome(result) -> dict:
    return {"trap": result.trap} if result.trapped else {"value": result.value}


def expectation_key(program: Program) -> str:
    """Identity of one expectation: the source and the run arguments."""
    digest = hashlib.sha256(program.source.encode("utf-8")).hexdigest()[:16]
    return f"{program.key}@{digest}:{json.dumps(program.run_args)}"


def expected_outcomes(
    programs: list[Program], committed: dict[str, list[dict]]
) -> tuple[dict[str, list[dict]], int]:
    """Expected outcomes for ``programs``: the committed ones where the
    source and arguments match, the reference interpreter's otherwise.
    Returns the table and how many had to be computed."""
    table: dict[str, list[dict]] = {}
    computed = 0
    for program in programs:
        key = expectation_key(program)
        if key in committed:
            table[key] = committed[key]
        else:
            table[key] = reference_outcomes(program)
            computed += 1
    return table, computed


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass
class Request:
    """What one request did: timings, deterministic outputs, failure.

    ``stage`` names the layer call in progress (a span name); after a
    failure it says where the request failed.  Timings are wall
    seconds; ``speed`` converts them to reference seconds."""

    program: str
    engine: str
    #: the request id its spans carry
    id: int = -1
    ok: bool = False
    stage: str = ""
    #: what failed it: the exception type, or the wrong result
    error: str = ""
    #: the exception's message, for the failure report
    message: str = ""
    wall_s: float = 0.0
    #: machine speed during the request (see :mod:`jitbench.clock`)
    speed: float = 1.0
    compile_s: float = 0.0
    exec_s: float = 0.0
    cycles: float = 0.0
    steps: int = 0
    code_size: float = 0.0
    duplications: int = 0
    outcomes: list = field(default_factory=list)
    #: traced passes only: per-layer counts this request produced
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """The layer a failed request failed in."""
        return LAYER_OF.get(self.stage.split(":", 1)[0], self.stage)

    def fingerprint(self) -> list:
        """The outputs that must repeat exactly across runs."""
        if not self.ok:
            return ["failed", self.stage, self.error]
        return [self.outcomes, self.cycles, self.code_size, self.duplications]


class Context:
    """Per-run state the requests share: the span recorder, the
    artifact cache, and whether the current pass traces."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.cache: Optional[ArtifactCache] = None
        self.traced = False

    def step(self, req: Request, stage: str):
        """Enter ``stage``: remember it for failure reports, span it."""
        req.stage = stage
        return self.recorder.span(stage)


def _artifact_key(program: Program) -> str:
    return cache_key(
        program.source, DBDS, entry=ENTRY,
        profile_args=[list(a) for a in program.profile_args],
    )


def _compile(ctx: Context, program: Program, req: Request, tracer: Tracer):
    """Parse, profile and compile; returns (ir program, report)."""
    with ctx.step(req, "frontend.parse"):
        ir = compile_source(program.source)
    if ctx.traced:
        req.counts["frontend.ir_nodes"] = sum(
            g.instruction_count() for g in ir.functions.values()
        )
    with ctx.step(req, "interp.profile"):
        collector = profile_program(ir, ENTRY, [list(a) for a in program.profile_args])
        apply_profile(ir, collector)
    if ctx.traced:
        req.counts["interp.profile_blocks"] = sum(collector.block_counts.values())
    compiler = Compiler(DBDS, tracer=tracer)
    with ctx.step(req, "compiler.compile"):
        start = time.perf_counter()
        report = compiler.compile_program(ir)
        req.compile_s += time.perf_counter() - start
    req.code_size = report.total_code_size
    req.duplications = report.total_duplications
    if ctx.traced:
        _tally_compile(req.counts, tracer)
    return ir, report


def _tally_compile(counts: dict, tracer: Tracer) -> None:
    counts["dbds.candidates"] = tracer.counter("dbds.candidates")
    counts["dbds.duplications"] = tracer.counter("dbds.duplications")
    for event in tracer.spans("phase"):
        phase = str(event.attrs.get("phase", "?"))
        name = f"phase.{phase}_s"
        counts[name] = counts.get(name, 0.0) + (event.dur or 0.0)
        if phase == "canonicalize":
            counts["opts.canonicalize_runs"] = counts.get("opts.canonicalize_runs", 0) + 1


def _translate(ctx: Context, req: Request, ir):
    with ctx.step(req, "vm.translate"):
        return translate_program(ir)


def _store(ctx: Context, program: Program, req: Request, ir, report, tracer, bytecode):
    """Pack and store the artifact, as ``repro run --cache-dir`` does."""
    with ctx.step(req, "cache.put"):
        ctx.cache.put(
            make_entry(
                _artifact_key(program), ir, report, events=tracer.events,
                counters=tracer.counters, bytecode=bytecode,
            )
        )


def _execute(ctx: Context, program: Program, req: Request, ir, bytecode) -> None:
    """Build the engine and run every argument set."""
    start = time.perf_counter()
    with ctx.step(req, "vm.build"):
        runner = make_engine(req.engine, ir, bytecode=bytecode, plan_cache=ctx.cache)
    with ctx.step(req, f"vm.run:{req.engine}"):
        for args in program.run_args:
            runner.reset()
            result = runner.run(ENTRY, list(args))
            req.cycles += result.cycles
            req.steps += result.steps
            req.outcomes.append(_outcome(result))
    req.exec_s += time.perf_counter() - start


def _recording(ctx: Context, stores: bool) -> Tracer:
    # A compile that is stored records its decision trace into the
    # artifact, as ``repro run --cache-dir`` does; a traced pass always
    # records, for the phase spans and DBDS counters.
    return Tracer() if (stores or ctx.traced) else Tracer(enabled=False)


def cold_request(ctx: Context, program: Program, req: Request) -> None:
    tracer = _recording(ctx, stores=True)
    ir, report = _compile(ctx, program, req, tracer)
    bytecode = _translate(ctx, req, ir)
    _store(ctx, program, req, ir, report, tracer, bytecode)
    _execute(ctx, program, req, ir, bytecode)


def long_request(ctx: Context, program: Program, req: Request) -> None:
    ir, _ = _compile(ctx, program, req, _recording(ctx, stores=False))
    _execute(ctx, program, req, ir, _translate(ctx, req, ir))


def warm_request(ctx: Context, program: Program, req: Request) -> None:
    with ctx.step(req, "cache.get"):
        entry = ctx.cache.get(_artifact_key(program))
        if entry is not None:
            ir, bytecode = entry.program(), entry.bytecode()
    if entry is None:
        cold_request(ctx, program, req)
        return
    req.code_size = entry.report.total_code_size
    req.duplications = entry.report.total_duplications
    _execute(ctx, program, req, ir, bytecode)


REQUESTS: dict[str, Callable[[Context, Program, Request], None]] = {
    "cold-suites": cold_request,
    "long-run": long_request,
    "warm-exec": warm_request,
}


def request_plan(workload: str, programs: list[Program]) -> list[tuple[Program, str]]:
    """One pass: every (program, engine) pair the workload issues."""
    if workload == "warm-exec":
        return [(p, engine) for p in programs for engine in WARM_ENGINES]
    return [(p, "megaunit") for p in programs]


def check(req: Request, expected: list[dict]) -> None:
    """Fail ``req`` when its outcomes differ from the expected ones."""
    if req.outcomes != expected:
        req.ok = False
        req.stage = "check"
        req.error = f"wrong result: expected {expected}, got {req.outcomes}"


def issue(
    ctx: Context,
    handler: Callable[[Context, Program, Request], None],
    program: Program,
    engine: str,
    expected: list[dict],
) -> Request:
    """Run one request; any exception fails it, never the benchmark."""
    req = Request(program=program.key, engine=engine, id=ctx.recorder.request)
    start = time.perf_counter()
    with ctx.recorder.span("request"):
        try:
            handler(ctx, program, req)
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            req.error = type(exc).__name__
            req.message = str(exc)
        else:
            req.ok = True
            check(req, expected)
    req.wall_s = time.perf_counter() - start
    return req


@dataclass
class PassResult:
    """One timed pass over the workload's request plan."""

    traced: bool
    requests: list[Request]
    #: traced passes only: the metrics snapshot, spans and tallies
    metrics: Any = None
    spans: list = field(default_factory=list)
    tallies: dict = field(default_factory=dict)


def run_pass(
    workload: str,
    ctx: Context,
    plan: list[tuple[Program, str]],
    expected: dict[str, list[dict]],
    order_seed: str,
    fresh_cache: Optional[Path] = None,
) -> PassResult:
    """Issue every request of ``plan`` once, in an order drawn from
    ``order_seed``.  A ``fresh_cache`` directory becomes the pass's own
    (empty) artifact cache and is removed after the timed region."""
    handler = REQUESTS[workload]
    order = list(plan)
    random.Random(order_seed).shuffle(order)
    if fresh_cache is not None:
        ctx.cache = ArtifactCache(fresh_cache)
    registry = MetricsRegistry() if ctx.traced else None
    requests = []
    try:
        with contextlib.ExitStack() as stack:
            if ctx.traced:
                stack.enter_context(use_registry(registry))
                stack.enter_context(probes(ctx.recorder))
                ctx.recorder.begin()
            before = calibrate()
            for program, engine in order:
                ctx.recorder.request += 1
                req = issue(ctx, handler, program, engine,
                            expected[expectation_key(program)])
                after = calibrate()
                req.speed = speed(before, after)
                before = after
                requests.append(req)
    finally:
        ctx.recorder.enabled = False
        if fresh_cache is not None:
            shutil.rmtree(fresh_cache, ignore_errors=True)
    result = PassResult(traced=ctx.traced, requests=requests)
    if ctx.traced:
        result.metrics = registry.snapshot()
        result.spans = ctx.recorder.spans
        result.tallies = ctx.recorder.tallies
    return result


# ----------------------------------------------------------------------
# Warm-exec prefill
# ----------------------------------------------------------------------
def prefill(programs: list[Program], cache_dir: Path) -> float:
    """Compile and store every program, then run each once on every
    engine with an aux store, at the arguments the timed requests use:
    tier plans are keyed by the live profile, which the arguments
    shape.  Programs whose store fails stay uncached — their timed
    requests miss and fail the same way.  Returns the reference
    seconds the prefill took, calibrated per program."""
    ctx = Context(SpanRecorder())
    ctx.cache = ArtifactCache(cache_dir)
    total = 0.0
    for program in programs:
        before = calibrate()
        start = time.perf_counter()
        _prefill_one(ctx, program)
        elapsed = time.perf_counter() - start
        total += elapsed * speed(before, calibrate())
    return total


def _prefill_one(ctx: Context, program: Program) -> None:
    req = Request(program=program.key, engine="")
    tracer = Tracer()
    try:
        ir, report = _compile(ctx, program, req, tracer)
        bytecode = _translate(ctx, req, ir)
        _store(ctx, program, req, ir, report, tracer, bytecode)
    except Exception:  # noqa: BLE001 - recorded by the timed requests
        return
    for engine in PREFILL_ENGINES:
        runner = make_engine(engine, ir, bytecode=bytecode, plan_cache=ctx.cache)
        for args in program.run_args:
            runner.reset()
            runner.run(ENTRY, list(args))
