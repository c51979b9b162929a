"""Metric names, units and how each is computed from the timed passes.

End-to-end metrics come from untraced passes; per-layer metrics from
the traced passes of a ``--trace 1`` run.  A timing is the median over
passes of its per-pass sum, so one disturbed pass cannot move it, and
is in reference seconds (see :mod:`jitbench.clock`); the per-layer
``machine.speed`` and ``wall.requests_per_s`` show the raw figures.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Iterable

from .spans import LAYERS, self_times, span_totals

#: name -> (unit, better)
END_TO_END = {
    "requests_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "compile_s": ("s", "lower"),
    "exec_s": ("s", "lower"),
    "sim_cycles": ("cycles", "lower"),
    "code_size": ("units", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PHASES = (
    "inlining", "canonicalize", "global-value-numbering",
    "loop-invariant-code-motion", "conditional-elimination",
    "read-elimination", "partial-escape-analysis", "dbds",
)

ENGINES = ("vm", "tiered", "megaunit")

#: name -> (unit, better)
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "setup.generate_s": ("s", "lower"),
    "setup.prefill_s": ("s", "lower"),
    "frontend.parse_s": ("s", "lower"),
    "frontend.ir_nodes": ("count", "lower"),
    "interp.profile_s": ("s", "lower"),
    "interp.profile_blocks": ("count", "lower"),
    "interp.blocks_per_s": ("1/s", "higher"),
    **{f"phase.{p}_s": ("s", "lower") for p in PHASES},
    "opts.canonicalize_runs": ("count", "lower"),
    "dbds.candidates": ("count", "higher"),
    "dbds.duplications": ("count", "higher"),
    "dbds.accept_ratio": ("ratio", "higher"),
    "compiler.compile_s": ("s", "lower"),
    "vm.translate_s": ("s", "lower"),
    "vm.codegen_s": ("s", "lower"),
    "vm.codegen_cache_hits": ("count", "higher"),
    "vm.codegen_cache_misses": ("count", "lower"),
    "vm.codegen_source_kb": ("KiB", "lower"),
    "vm.exec_s": ("s", "lower"),
    **{f"vm.run_s.{e}": ("s", "lower") for e in ENGINES},
    "vm.steps": ("count", "lower"),
    **{f"vm.steps_per_s.{e}": ("1/s", "higher") for e in ENGINES},
    "vm.fallbacks": ("count", "lower"),
    "tier.promotions": ("count", "higher"),
    "tier.compile_s": ("s", "lower"),
    "tier.plan_cache_hits": ("count", "higher"),
    "tier.plan_cache_misses": ("count", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.aux_get_s": ("s", "lower"),
    "cache.aux_put_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.put_failed": ("count", "lower"),
    "cache.entry_kb": ("KiB", "lower"),
    "bcverify.load_s": ("s", "lower"),
    "bcverify.rejected": ("count", "lower"),
    **{f"self.{layer}_s": ("s", "lower") for layer in LAYERS},
    **{f"share.{layer}_pct": ("%", "lower") for layer in LAYERS},
    "request.p50_s": ("s", "lower"),
    "request.p90_s": ("s", "lower"),
    "request.samples": ("count", "higher"),
    "trace.untraced_requests_per_s": ("1/s", "higher"),
    "trace.traced_requests_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "machine.speed": ("x", "higher"),
    "wall.requests_per_s": ("1/s", "higher"),
}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_totals(result: Any) -> dict[str, float]:
    """The end-to-end sums of one pass, in reference seconds."""
    reqs = result.requests
    ok = [r for r in reqs if r.ok]
    return {
        "requests_per_s": len(ok) / sum(r.wall_s * r.speed for r in reqs),
        "compile_s": sum(r.compile_s * r.speed for r in reqs),
        "exec_s": sum(r.exec_s * r.speed for r in reqs),
        "sim_cycles": sum(r.cycles for r in ok),
        "code_size": sum(r.code_size for r in ok),
    }


def end_to_end(passes: list, setup_samples: list[dict]) -> dict[str, float]:
    totals = [pass_totals(p) for p in passes]
    values = {
        name: median(t[name] for t in totals) for name in totals[0]
    }
    values["setup_s"] = median(s["setup_s"] for s in setup_samples)
    values["peak_rss_mb"] = peak_rss_mb()
    return {name: values[name] for name in END_TO_END}


def _labelled(series: dict, **want: str) -> float:
    """Sum of a snapshot series over label sets containing ``want``."""
    from repro.obs.metrics import parse_label_key

    total = 0.0
    for key, value in series.items():
        labels = parse_label_key(key)
        if all(labels.get(k) == v for k, v in want.items()):
            total += value
    return total


def traced_pass_layers(result: Any) -> dict[str, float]:
    """Per-layer numbers of one traced pass from its spans, the
    requests' counts and the pass's metrics snapshot."""
    reqs = result.requests
    speed_of = {r.id: r.speed for r in reqs}
    # span durations in reference seconds, by their request's speed
    spans = [
        [name, 0.0, (end - start) * speed_of[request], parent, request]
        for name, start, end, parent, request in result.spans
    ]
    pass_speed = median(speed_of.values())
    snap = result.metrics
    counters = snap.counters
    out: dict[str, float] = {}

    def count(name: str) -> float:
        return sum(r.counts.get(name, 0) for r in reqs)

    out["frontend.parse_s"] = span_totals(spans, "frontend.parse")
    out["frontend.ir_nodes"] = count("frontend.ir_nodes")
    out["interp.profile_s"] = span_totals(spans, "interp.profile")
    out["interp.profile_blocks"] = count("interp.profile_blocks")
    out["interp.blocks_per_s"] = (
        out["interp.profile_blocks"] / out["interp.profile_s"]
        if out["interp.profile_s"] else 0.0
    )
    for phase in PHASES:
        out[f"phase.{phase}_s"] = count(f"phase.{phase}_s")
    out["opts.canonicalize_runs"] = count("opts.canonicalize_runs")
    out["dbds.candidates"] = count("dbds.candidates")
    out["dbds.duplications"] = count("dbds.duplications")
    out["dbds.accept_ratio"] = (
        out["dbds.duplications"] / out["dbds.candidates"]
        if out["dbds.candidates"] else 0.0
    )
    out["compiler.compile_s"] = span_totals(spans, "compiler.compile")
    out["vm.translate_s"] = span_totals(spans, "vm.translate")
    out["vm.codegen_s"] = span_totals(spans, "vm.codegen")
    codegen = counters.get("repro_codegen_cache_total", {})
    out["vm.codegen_cache_hits"] = _labelled(codegen, result="hit")
    out["vm.codegen_cache_misses"] = _labelled(codegen, result="miss")
    out["vm.codegen_source_kb"] = (
        result.tallies.get("vm.codegen_source_bytes", 0.0) / 1024.0
    )
    out["vm.exec_s"] = sum(r.exec_s * r.speed for r in reqs)
    out["vm.steps"] = sum(r.steps for r in reqs)
    for engine in ENGINES:
        run_s = span_totals(spans, f"vm.run:{engine}")
        steps = sum(r.steps for r in reqs if r.engine == engine)
        out[f"vm.run_s.{engine}"] = run_s
        out[f"vm.steps_per_s.{engine}"] = steps / run_s if run_s else 0.0
    out["vm.fallbacks"] = snap.counter_total("repro_vm_fallback_total")
    out["tier.promotions"] = snap.counter_total("repro_tier_promotions_total")
    out["tier.compile_s"] = pass_speed * sum(
        h.sum for h in snap.histograms.get("repro_tier_compile_seconds", {}).values()
    )
    plans = counters.get("repro_tier_plan_cache_total", {})
    out["tier.plan_cache_hits"] = _labelled(plans, result="hit")
    out["tier.plan_cache_misses"] = _labelled(plans, result="miss")
    for op in ("get", "put", "aux_get", "aux_put"):
        out[f"cache.{op}_s"] = span_totals(spans, f"cache.{op}")
    lookups = counters.get("repro_cache_lookups_total", {})
    out["cache.hits"] = _labelled(lookups, result="hit")
    out["cache.misses"] = _labelled(lookups, result="miss")
    out["cache.put_failed"] = sum(1 for r in reqs if r.stage == "cache.put")
    entry_sizes = snap.histograms.get("repro_cache_entry_bytes", {}).values()
    entries = sum(h.count for h in entry_sizes)
    out["cache.entry_kb"] = (
        sum(h.sum for h in entry_sizes) / entries / 1024.0 if entries else 0.0
    )
    out["bcverify.load_s"] = span_totals(spans, "bcverify.load")
    out["bcverify.rejected"] = snap.counter_total(
        "repro_bcverify_rejected_artifacts_total"
    )
    selfs = self_times(spans)
    request_total = span_totals(spans, "request")
    for layer in LAYERS:
        out[f"self.{layer}_s"] = selfs[layer]
        out[f"share.{layer}_pct"] = (
            100.0 * selfs[layer] / request_total if request_total else 0.0
        )
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_layer(
    untraced: list, traced: list, setup_samples: list[dict]
) -> dict[str, float]:
    """Median over traced passes of each layer number, plus set-up,
    per-request latency of the untraced passes and tracing overhead."""
    out: dict[str, float] = {}
    for name in ("import_s", "generate_s", "prefill_s"):
        out[f"setup.{name}"] = median(s[name] for s in setup_samples)
    layers = [traced_pass_layers(p) for p in traced]
    for name in layers[0]:
        out[name] = median(numbers[name] for numbers in layers)
    latencies = [r.wall_s * r.speed for p in untraced for r in p.requests]
    out["request.p50_s"] = percentile(latencies, 50)
    out["request.p90_s"] = percentile(latencies, 90)
    out["request.samples"] = len(latencies)
    plain = median(pass_totals(p)["requests_per_s"] for p in untraced)
    with_spans = median(pass_totals(p)["requests_per_s"] for p in traced)
    out["trace.untraced_requests_per_s"] = plain
    out["trace.traced_requests_per_s"] = with_spans
    out["trace.overhead_pct"] = (plain / with_spans - 1.0) * 100.0 if with_spans else 0.0
    everything = [r for p in untraced + traced for r in p.requests]
    out["machine.speed"] = median(r.speed for r in everything)
    out["wall.requests_per_s"] = median(
        sum(r.ok for r in p.requests) / sum(r.wall_s for r in p.requests)
        for p in untraced
    )
    return {name: out[name] for name in PER_LAYER}
