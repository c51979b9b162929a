"""A request that raises is counted as failed, with its layer."""

from __future__ import annotations

from jitbench import cli, jit
from jitbench.spans import SpanRecorder

from .conftest import nqueens


def _run(workload, programs, expected, tmp_path):
    ctx = jit.Context(SpanRecorder())
    return jit.run_pass(
        workload, ctx, jit.request_plan(workload, programs), expected, "0/0",
        tmp_path / "cache",
    )


def test_unparsable_program_fails_in_the_frontend(tmp_path):
    broken = jit.Program("bad/syntax", "fn main( -> int {", ((1,),), ((1,),))
    programs = [nqueens(4), broken]
    expected = {jit.expectation_key(nqueens(4)): [{"value": 2}],
                jit.expectation_key(broken): []}
    result = _run("cold-suites", programs, expected, tmp_path)
    by_program = {r.program: r for r in result.requests}
    assert len(result.requests) == 2
    assert by_program["apps/nqueens4"].ok
    failed = by_program["bad/syntax"]
    assert not failed.ok
    assert failed.layer == "frontend"
    assert failed.error == "CompileError"


def test_injected_store_failure_is_counted_not_dropped(monkeypatch, small, expected, tmp_path, capsys):
    real = jit.make_entry

    def make_entry(key, program, *args, **kwargs):
        if "place" in program.functions and len(make_entry.calls) == 0:
            make_entry.calls.append(key)
            raise RecursionError("maximum recursion depth exceeded")
        return real(key, program, *args, **kwargs)

    make_entry.calls = []
    monkeypatch.setattr(jit, "make_entry", make_entry)
    result = _run("cold-suites", small, expected, tmp_path)
    failed = [r for r in result.requests if not r.ok]
    assert len(result.requests) == 2
    assert len(failed) == 1
    assert failed[0].layer == "pipeline.cache"
    assert failed[0].error == "RecursionError"
    assert failed[0].fingerprint() == ["failed", "cache.put", "RecursionError"]

    known = {(failed[0].program, "pipeline.cache", "RecursionError")}
    cli.report_failures(result.requests, 1, small, known)
    out = capsys.readouterr().out
    assert "2 attempted over 1 pass(es), 1 failed" in out
    assert f"(known): {failed[0].program} [megaunit] in pipeline.cache: RecursionError" in out
    assert cli.summary(result.requests, [], known, {}, {})["correct"] is True
    assert cli.summary(result.requests, [], set(), {}, {})["correct"] is False


def test_injected_engine_failure_makes_the_run_incorrect(monkeypatch, small, expected, tmp_path):
    real = jit.make_engine

    def make_engine(engine, program, *args, **kwargs):
        if "place" in program.functions:
            raise RuntimeError("engine crashed")
        return real(engine, program, *args, **kwargs)

    monkeypatch.setattr(jit, "make_engine", make_engine)
    result = _run("cold-suites", small, expected, tmp_path)
    failed = [r for r in result.requests if not r.ok]
    assert len(failed) == len(small)
    assert {(r.layer, r.error) for r in failed} == {("vm", "RuntimeError")}
    line = cli.summary(result.requests, [], cli.known_failures(), {}, {})
    assert line == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}
    assert cli.unexpected_failures(result.requests, cli.known_failures()) == failed


def test_known_failures_name_the_pickling_defect():
    assert cli.known_failures() == {
        ("scala-dacapo/scalaxb", "pipeline.cache", "RecursionError"),
        ("octane/regexp", "pipeline.cache", "RecursionError"),
    }


def test_warm_miss_recompiles_and_fails_the_same_way(monkeypatch, small, expected, tmp_path):
    def make_entry(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    from repro.pipeline.cache import ArtifactCache

    monkeypatch.setattr(jit, "make_entry", make_entry)
    ctx = jit.Context(SpanRecorder())
    ctx.cache = ArtifactCache(tmp_path / "empty", verify_bytecode="load")
    plan = jit.request_plan("warm-exec", small)
    result = jit.run_pass("warm-exec", ctx, plan, expected, "0/0")
    assert len(result.requests) == len(small) * len(jit.WARM_ENGINES)
    assert all(r.layer == "pipeline.cache" for r in result.requests)
    assert all(r.error == "RecursionError" for r in result.requests)
