"""The benchmark command: set-up probes, timed passes, checks, report.

This module imports no ``repro`` code at import time: the set-up
probes time that import in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from . import metrics
from .clock import timed
from .spans import LAYERS, SpanRecorder, write_spans

WORKLOADS = ("cold-suites", "long-run", "warm-exec")

#: fresh-interpreter set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 3

#: a set-up probe that takes longer than this has hung
PROBE_TIMEOUT_S = 120

BENCH_DIR = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="jitbench/run.py",
        description="End-to-end JIT request benchmark (one closed-loop client).",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="draws the order of every pass's requests",
    )
    parser.add_argument(
        "--seconds", type=float, default=18.0,
        help="keep issuing whole passes until this much time was measured",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str], root: Path) -> int:
    args = parse_args(argv)
    if not (root / "src" / "repro").is_dir():
        print(f"error: no repro sources under {root / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        print(json.dumps(setup(args.workload, root, args.setup_probe)))
        return 0
    work = root / ".jitbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup(workload: str, root: Path, cache_dir: Path) -> dict:
    """What a fresh process pays before its first request: importing
    the layers, generating the workload and, for warm-exec, prefilling
    and warming ``cache_dir``; in reference seconds."""
    jit, import_s = timed(importlib.import_module, "jitbench.jit")
    programs, generate_s = timed(jit.corpus, workload, root)
    prefill_s = jit.prefill(programs, cache_dir) if workload == "warm-exec" else 0.0
    return {
        "import_s": import_s,
        "generate_s": generate_s,
        "prefill_s": prefill_s,
        "setup_s": import_s + generate_s + prefill_s,
    }


def measure_setup(args: argparse.Namespace, root: Path, work: Path):
    """Run the set-up in ``SETUP_SAMPLES`` fresh interpreters, one after
    another; returns the samples and the last probe's cache directory
    (the warm cache the timed passes read)."""
    samples = []
    cache_dir = work
    for number in range(SETUP_SAMPLES):
        cache_dir = work / f"setup-{number}"
        command = [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", args.workload,
            "--setup-probe", str(cache_dir),
        ]
        try:
            proc = subprocess.run(
                command, cwd=root, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe timed out after {exc.timeout} s")
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
        if number < SETUP_SAMPLES - 1:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return samples, cache_dir


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
def run(args: argparse.Namespace, root: Path, work: Path) -> int:
    from . import jit
    from repro.pipeline.cache import ArtifactCache

    samples, warm_cache = measure_setup(args, root, work)
    programs = jit.corpus(args.workload, root)
    committed = json.loads((BENCH_DIR / "expected.json").read_text())
    expected, computed = jit.expected_outcomes(programs, committed)
    if computed:
        print(
            f"note: computed {computed} expected outcome(s) with the "
            "reference interpreter (not committed)", file=sys.stderr,
        )

    ctx = jit.Context(SpanRecorder())
    cold = args.workload == "cold-suites"
    if args.workload == "warm-exec":
        ctx.cache = ArtifactCache(warm_cache, verify_bytecode="load")
    plan = jit.request_plan(args.workload, programs)

    # Untimed warm-up: the first program's requests, so lazy imports
    # and first-call set-up inside the layers land outside the passes.
    first = plan[0][0]
    jit.run_pass(
        args.workload, ctx, [item for item in plan if item[0] is first],
        expected, "warm-up", work / "warm-up" if cold else None,
    )

    passes = []
    start = perf_counter()
    while True:
        number = len(passes)
        # A traced run alternates untraced and traced passes, so the
        # tracing overhead is measured in the same run.
        ctx.traced = bool(args.trace) and number % 2 == 1
        passes.append(
            jit.run_pass(
                args.workload, ctx, plan, expected, f"{args.seed}/{number}",
                work / f"pass-{number}" if cold else None,
            )
        )
        if perf_counter() - start >= args.seconds and (
            not args.trace or len(passes) >= 2
        ):
            break

    keys = {p.key: jit.expectation_key(p) for p in programs}
    problems = determinism_problems(
        passes, keys, state_file(root, args.workload)
    )
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if traced:
        write_spans(
            root / ".jitbench" / "spans" / f"{args.workload}-seed{args.seed}.jsonl",
            [p.spans for p in traced],
        )
        values = metrics.per_layer(untraced, traced, samples)
        units = metrics.PER_LAYER
        report_layers(args.workload, values)
    else:
        values = metrics.end_to_end(untraced, samples)
        units = metrics.END_TO_END

    requests = [r for p in passes for r in p.requests]
    known = known_failures()
    report_failures(requests, len(passes), programs, known)
    for problem in problems:
        print(f"DETERMINISM VIOLATION: {problem}", file=sys.stderr)
    for name in units:
        print(f"{name:<36s} {values[name]:>18.6f} {units[name][0]}")
    print(json.dumps(summary(requests, problems, known, values, units)))
    return 0


def summary(
    requests: list, problems: list[str], known: set, values: dict, units: dict
) -> dict:
    """The result line: correct only when every failed request is a
    known defect and every deterministic output repeated."""
    return {
        "correct": not unexpected_failures(requests, known) and not problems,
        "attempted": len(requests),
        "failed": sum(1 for r in requests if not r.ok),
        "metrics": {
            name: {"value": values[name], "unit": units[name][0]} for name in units
        },
    }


# ----------------------------------------------------------------------
# Checks and reports
# ----------------------------------------------------------------------
def code_digest(root: Path) -> str:
    """Digest of the compiler's and the benchmark's sources: outputs
    recorded under one digest must repeat under it."""
    digest = hashlib.sha256()
    files = sorted((root / "src" / "repro").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def state_file(root: Path, workload: str) -> Path:
    name = f"{workload}-{code_digest(root)}.json"
    return root / ".jitbench" / "state" / name


def determinism_problems(passes: list, keys: dict[str, str], state: Path) -> list[str]:
    """Compare every request's deterministic outputs (values, simulated
    cycles, code size, duplications — or its failure) with every other
    request for the same program in this run, then with the outputs
    earlier runs of the same code recorded in ``state``."""
    seen: dict[str, str] = {}
    problems = []
    for result in passes:
        for req in result.requests:
            key = keys[req.program]
            fingerprint = json.dumps(req.fingerprint(), sort_keys=True)
            first = seen.setdefault(key, fingerprint)
            if first != fingerprint:
                problems.append(
                    f"{req.program} on {req.engine}: {fingerprint} != {first}"
                )
    earlier = json.loads(state.read_text()) if state.exists() else {}
    for key, fingerprint in seen.items():
        if key in earlier and earlier[key] != fingerprint:
            problems.append(
                f"{key}: {fingerprint} differs from an earlier run's "
                f"{earlier[key]}"
            )
    if not problems:
        state.parent.mkdir(parents=True, exist_ok=True)
        tmp = state.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**earlier, **seen}, sort_keys=True))
        os.replace(tmp, state)
    return problems


def known_failures() -> set[tuple[str, str, str]]:
    """(program, layer, exception type) of each committed known defect."""
    entries = json.loads((BENCH_DIR / "expected_failures.json").read_text())
    return {(e["program"], e["layer"], e["error"]) for e in entries}


def unexpected_failures(requests: list, known: set) -> list:
    """Failed requests no known defect explains: a wrong result, or an
    exception in another program, layer or of another type."""
    return [
        r for r in requests
        if not r.ok and (r.program, r.layer, r.error) not in known
    ]


def report_failures(requests: list, passes: int, programs: list, known: set) -> None:
    failures = Counter(
        (r.program, r.engine, r.layer, r.error[:120], r.message[:120])
        for r in requests if not r.ok
    )
    failed = sum(failures.values())
    print(f"requests: {len(requests)} attempted over {passes} pass(es), {failed} failed")
    for (program, engine, layer, error, message), count in sorted(failures.items()):
        detail = f" ({message})" if message else ""
        tag = "known" if (program, layer, error) in known else "UNEXPECTED"
        print(f"  failed x{count} ({tag}): {program} [{engine}] in {layer}: {error}{detail}")
    keys = {p.key for p in programs}
    seen = {(r.program, r.layer, r.error) for r in requests if not r.ok}
    for program, layer, error in sorted(known - seen):
        if program in keys:
            print(f"  known failure did not occur: {program} in {layer}: {error}")


def report_layers(workload: str, values: dict) -> None:
    print(f"per-layer self time, one traced pass of {workload} (median):")
    for layer in LAYERS:
        print(
            f"  {layer:<18s} {values[f'self.{layer}_s']:>9.4f} s "
            f"{values[f'share.{layer}_pct']:>6.1f} %"
        )
    print(
        f"  profiling-run share {values['share.interp_pct']:.1f} %, "
        f"compile share {values['share.pipeline.compiler_pct']:.1f} %, "
        f"unattributed {values['share.unattributed_pct']:.1f} %"
    )
    print(
        f"  tracing overhead {values['trace.overhead_pct']:.1f} % "
        f"({values['trace.untraced_requests_per_s']:.3f} untraced vs "
        f"{values['trace.traced_requests_per_s']:.3f} traced requests/s)"
    )
    print(
        f"  request latency p50 {values['request.p50_s']:.4f} s, "
        f"p90 {values['request.p90_s']:.4f} s over "
        f"{values['request.samples']:.0f} untraced requests"
    )
