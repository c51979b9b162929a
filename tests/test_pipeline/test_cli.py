"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main

PROGRAM = """
fn foo(x: int) -> int {
  var p: int;
  if (x > 0) { p = x; } else { p = 0; }
  return 2 + p;
}
fn main(n: int) -> int {
  var acc: int = 0;
  var i: int = 0;
  while (i < n) { acc = acc + foo(i - 3); i = i + 1; }
  return acc;
}
"""

TRAPPING = """
fn main(n: int) -> int { return 10 / n; }
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mini"
    path.write_text(PROGRAM)
    return path


class TestRun:
    def test_run_prints_result(self, source_file, capsys):
        code = main(["run", str(source_file), "--args", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "result" in out and "176" in out
        assert "simulated cycles" in out

    def test_run_all_configs(self, source_file, capsys):
        for config in ("baseline", "dbds", "dupalot", "backtracking", "path-dbds"):
            code = main(["run", str(source_file), "--args", "20", "--config", config])
            assert code == 0
            assert "176" in capsys.readouterr().out

    def test_trap_reported(self, tmp_path, capsys):
        path = tmp_path / "trap.mini"
        path.write_text(TRAPPING)
        code = main(["run", str(path), "--args", "0"])
        assert code == 1
        assert "trap" in capsys.readouterr().err

    def test_front_end_error_is_one_stderr_line(self, tmp_path, capsys):
        path = tmp_path / "bad.mini"
        path.write_text("fn main() -> int {\n  var x: bool = 3;\n  return 0;\n}\n")
        code = main(["run", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{path}:2:0: error: cannot assign int to bool"
        ]
        assert "Traceback" not in captured.err

    def test_custom_entry(self, source_file, capsys):
        code = main(["run", str(source_file), "--entry", "foo", "--args", "5"])
        assert code == 0
        assert "7" in capsys.readouterr().out


class TestCheck:
    def test_front_end_error_names_file_and_keeps_going(
        self, source_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.mini"
        bad.write_text("fn main() -> int {\n  var x: bool = 3;\n  return 0;\n}\n")
        code = main(["check", str(bad), str(source_file), "--args", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{bad}:2:0: error: cannot assign int to bool"
        ]
        # The good file after the bad one is still checked.
        assert "check: 2 file(s)" in captured.out
        assert "1 failure(s)" in captured.out


class TestCompile:
    def test_metrics_table(self, source_file, capsys):
        code = main(["compile", str(source_file), "--config", "dbds"])
        assert code == 0
        out = capsys.readouterr().out
        assert "foo" in out and "main" in out and "size" in out

    def test_dump_prints_ir(self, source_file, capsys):
        code = main(["compile", str(source_file), "--dump"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fn main" in out and "entry:" in out


class TestBench:
    def test_bench_suite_table(self, capsys, monkeypatch):
        # Shrink the suite for test speed.
        import repro.bench.workloads.suites as suites
        import dataclasses

        tiny = dataclasses.replace(
            suites.MICRO, benchmark_names=suites.MICRO.benchmark_names[:1]
        )
        monkeypatch.setitem(suites.ALL_SUITES, "micro", tiny)
        code = main(["bench", "--suite", "micro"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Geometric mean" in out


class TestObservabilityFlags:
    def test_compile_json(self, source_file, capsys):
        import json

        code = main(["compile", str(source_file), "--config", "dbds", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == "dbds"
        assert {u["function"] for u in report["units"]} == {"foo", "main"}
        assert report["totals"]["compile_time"] > 0

    def test_compile_trace_out_valid_jsonl(self, source_file, tmp_path, capsys):
        from repro.obs import read_jsonl, validate_trace_file

        out = tmp_path / "trace.jsonl"
        code = main(
            ["compile", str(source_file), "--config", "dbds", "--trace-out", str(out)]
        )
        assert code == 0
        assert validate_trace_file(out) > 0
        events = read_jsonl(out)
        phases = {
            e.attrs.get("phase") for e in events if e.name == "phase"
        }
        assert "dbds" in phases and "canonicalize" in phases
        decisions = [e for e in events if e.name == "dbds.decision"]
        assert decisions
        assert all("benefit" in e.attrs for e in decisions)

    def test_run_profile_compile(self, source_file, capsys):
        code = main(["run", str(source_file), "--args", "20", "--profile-compile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "176" in out and "compile profile" in out

    def test_trace_verb(self, source_file, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["trace", str(source_file), "--decisions", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "compile profile" in text and "DBDS decisions" in text
        assert out.exists()

    def test_bench_trace_out_json(self, tmp_path, capsys, monkeypatch):
        import dataclasses
        import json

        import repro.bench.workloads.suites as suites

        tiny = dataclasses.replace(
            suites.MICRO, benchmark_names=suites.MICRO.benchmark_names[:1]
        )
        monkeypatch.setitem(suites.ALL_SUITES, "micro", tiny)
        out = tmp_path / "suite.json"
        code = main(["bench", "--suite", "micro", "--trace-out", str(out)])
        assert code == 0
        assert "Compile-time breakdown by phase" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["suite"] == "micro"
        assert data["rows"][0]["configs"]["dbds"]["phase_times"]


class TestProfileAndMetrics:
    def test_profile_verb_prints_reconciled_tables(self, source_file, capsys):
        code = main(["profile", str(source_file), "--args", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "result          : 176" in out
        assert "opcode" in out and "function" in out and "block" in out
        assert "-> exact" in out

    def test_profile_trap_reported(self, tmp_path, capsys):
        path = tmp_path / "trap.mini"
        path.write_text(TRAPPING)
        code = main(["profile", str(path), "--args", "0"])
        assert code == 1
        assert "trap" in capsys.readouterr().err

    def test_profile_collapsed_and_json_outputs(self, source_file, tmp_path):
        import json

        folded = tmp_path / "stacks.folded"
        blob = tmp_path / "profile.json"
        code = main(
            [
                "profile", str(source_file), "--args", "20",
                "--collapsed", str(folded), "--json", str(blob),
            ]
        )
        assert code == 0
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:  # flamegraph.pl input: "a;b;c <int>"
            frames, weight = line.rsplit(" ", 1)
            assert frames and weight.isdigit()
        data = json.loads(blob.read_text())
        assert data["schema"] == 1
        assert data["total_cycles"] == sum(data["stacks"].values())

    def test_run_profile_run_flag(self, source_file, capsys):
        code = main(["run", str(source_file), "--args", "20", "--profile-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "176" in out and "reconciliation" in out

    def test_metrics_out_json(self, source_file, tmp_path):
        import json

        out = tmp_path / "metrics.json"
        code = main(
            ["run", str(source_file), "--args", "20", "--metrics-out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["counters"]["repro_compile_units_total"][""] == 2
        assert "repro_dbds_decisions_total" in data["counters"]

    def test_metrics_prometheus_text(self, source_file, tmp_path):
        out = tmp_path / "metrics.prom"
        code = main(
            ["run", str(source_file), "--args", "20", "--metrics-prom", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "# TYPE repro_compile_units_total counter" in text
        assert "# TYPE repro_compile_phase_seconds histogram" in text


class TestTrajectoryCli:
    @pytest.fixture
    def tiny_suite(self, monkeypatch):
        import dataclasses

        import repro.bench.workloads.suites as suites

        tiny = dataclasses.replace(
            suites.MICRO, benchmark_names=suites.MICRO.benchmark_names[:1]
        )
        monkeypatch.setitem(suites.ALL_SUITES, "micro", tiny)

    def test_append_then_check_passes(self, tiny_suite, tmp_path, capsys):
        import json

        path = tmp_path / "traj.json"
        code = main(["bench", "--suite", "micro", "--append-trajectory", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert len(data["entries"]) == 1
        code = main(
            [
                "bench", "--suite", "micro",
                "--check-regression", str(path),
                "--append-trajectory", str(path),
            ]
        )
        assert code == 0
        assert "regression check: ok" in capsys.readouterr().err
        assert len(json.loads(path.read_text())["entries"]) == 2

    def test_regression_fails_and_skips_append(self, tiny_suite, tmp_path, capsys):
        import json

        path = tmp_path / "traj.json"
        assert main(["bench", "--suite", "micro", "--append-trajectory", str(path)]) == 0
        # Doctor the committed history: pretend the past was 2× faster.
        data = json.loads(path.read_text())
        for config in data["entries"][0]["configs"].values():
            config["median_cycles"] /= 2.0
        path.write_text(json.dumps(data))
        code = main(
            [
                "bench", "--suite", "micro",
                "--check-regression", str(path),
                "--append-trajectory", str(path),
            ]
        )
        assert code == 1
        assert "regression:" in capsys.readouterr().err
        # The failing run must not be committed to the history.
        assert len(json.loads(path.read_text())["entries"]) == 1


class TestArgparse:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_config_rejected(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", str(source_file), "--config", "nonsense"])


class TestWorkloadCommand:
    def test_prints_source(self, capsys):
        code = main(["workload", "--suite", "micro", "--name", "akkaPP"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fn main" in out and "micro/akkaPP" in out

    def test_default_name(self, capsys):
        assert main(["workload", "--suite", "octane"]) == 0
        assert "octane/box2d" in capsys.readouterr().out

    def test_unknown_name_rejected(self, capsys):
        assert main(["workload", "--suite", "micro", "--name", "nope"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err
