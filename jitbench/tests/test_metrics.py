"""Every metric BENCHMARK.json names is emitted, with its unit."""

from __future__ import annotations

import json

from jitbench import jit, metrics
from jitbench.spans import SpanRecorder


def _declared(root, group: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec[group]}


def test_benchmark_json_lists_the_emitted_metrics(root):
    assert _declared(root, "end_to_end") == metrics.END_TO_END
    assert _declared(root, "per_layer") == metrics.PER_LAYER
    assert metrics.END_TO_END["setup_s"] == ("s", "lower")


def test_benchmark_json_names_the_workloads(root):
    from jitbench.cli import WORKLOADS

    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS


def _passes(workload, small, expected, tmp_path, traced):
    ctx = jit.Context(SpanRecorder())
    plan = jit.request_plan(workload, small)
    results = []
    for number, trace in enumerate(traced):
        ctx.traced = trace
        results.append(
            jit.run_pass(workload, ctx, plan, expected, f"0/{number}",
                         tmp_path / f"pass-{number}")
        )
    return results


def test_end_to_end_values_cover_every_metric(small, expected, tmp_path):
    passes = _passes("cold-suites", small, expected, tmp_path, [False, False])
    sample = {"import_s": 0.5, "generate_s": 0.0, "prefill_s": 0.0, "setup_s": 0.5}
    values = metrics.end_to_end(passes, [sample])
    assert set(values) == set(metrics.END_TO_END)
    assert values["requests_per_s"] > 0
    assert values["sim_cycles"] == passes[0].requests[0].cycles + passes[0].requests[1].cycles


def test_per_layer_values_cover_every_metric(small, expected, tmp_path):
    passes = _passes("cold-suites", small, expected, tmp_path, [False, True])
    sample = {"import_s": 0.5, "generate_s": 0.0, "prefill_s": 0.0, "setup_s": 0.5}
    values = metrics.per_layer([passes[0]], [passes[1]], [sample])
    assert list(values) == list(metrics.PER_LAYER)
    assert values["frontend.parse_s"] > 0
    assert values["compiler.compile_s"] > 0
    assert values["cache.put_s"] > 0
    assert values["vm.run_s.megaunit"] > 0
    assert values["request.samples"] == 2
    shares = sum(values[f"share.{layer}_pct"] for layer in metrics.LAYERS)
    assert abs(shares - 100.0) < 1e-6


def test_self_times_subtract_children():
    from jitbench.spans import self_times

    spans = [
        ["request", 0.0, 10.0, None, 0],
        ["vm.run:vm", 1.0, 9.0, 0, 0],
        ["vm.codegen", 2.0, 5.0, 1, 0],
    ]
    times = self_times(spans)
    assert times["unattributed"] == 2.0
    assert times["vm"] == 5.0
    assert times["vm.megaunit"] == 3.0


def test_prefill_serves_every_warm_request_from_the_aux_stores(small, expected, tmp_path):
    from repro.pipeline.cache import ArtifactCache

    assert jit.prefill(small, tmp_path / "warm") > 0
    ctx = jit.Context(SpanRecorder())
    ctx.cache = ArtifactCache(tmp_path / "warm", verify_bytecode="load")
    ctx.traced = True
    result = jit.run_pass("warm-exec", ctx, jit.request_plan("warm-exec", small),
                          expected, "0/0")
    assert all(r.ok and r.compile_s == 0.0 for r in result.requests)
    values = metrics.traced_pass_layers(result)
    assert values["cache.misses"] == 0
    assert values["tier.plan_cache_hits"] > 0
    assert values["tier.plan_cache_misses"] == 0
    assert values["vm.codegen_cache_misses"] == 0
    assert values["cache.aux_put_s"] == 0
