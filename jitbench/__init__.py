"""End-to-end JIT request benchmark.

One client issues JIT requests back to back (a closed loop in one
process and one thread): parse, reference-interpreter profiling run,
optimizing compile, translate, cache, execute — each driven through
the public functions of its ``repro`` layer.  ``run.py`` is the
command; ``BENCHMARK.json`` at the repository root lists the workloads
and metrics.
"""
