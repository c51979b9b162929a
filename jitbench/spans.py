"""In-memory spans for the traced run, and per-layer self times.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (``None`` at the top), ``request`` the id
of the request it belongs to.  The benchmark opens a ``request`` span
per request and one span around each call it makes into a layer; the
probes below add spans around the calls layers make into each other
(codegen inside an engine run, bytecode verification inside a cache
read, aux-store traffic).  With recording off, :meth:`SpanRecorder.span`
returns one shared no-op context, so untraced passes time no spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

_OFF = contextlib.nullcontext()

#: span name -> the ``repro`` layer its time (and a failure in it) is
#: charged to; ``request`` spans hold the benchmark's own remainder
LAYER_OF = {
    "request": "unattributed",
    "frontend.parse": "frontend",
    "interp.profile": "interp",
    "compiler.compile": "pipeline.compiler",
    "vm.translate": "vm.translate",
    "cache.get": "pipeline.cache",
    "cache.put": "pipeline.cache",
    "cache.aux_get": "pipeline.cache",
    "cache.aux_put": "pipeline.cache",
    "bcverify.load": "analysis.bcverify",
    "vm.codegen": "vm.megaunit",
    "vm.build": "vm",
    "vm.run": "vm",
}

#: layers in pipeline order, for reports
LAYERS = (
    "frontend", "interp", "pipeline.compiler", "vm.translate",
    "pipeline.cache", "analysis.bcverify", "vm.megaunit", "vm", "unattributed",
)


class _Span:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        rec = self.recorder
        parent = rec.stack[-1] if rec.stack else None
        self.index = len(rec.spans)
        rec.spans.append([self.name, perf_counter(), 0.0, parent, rec.request])
        rec.stack.append(self.index)
        return self

    def __exit__(self, *exc: Any) -> bool:
        rec = self.recorder
        rec.spans[self.index][2] = perf_counter()
        rec.stack.pop()
        return False


class SpanRecorder:
    """Collects spans while ``enabled``; a no-op otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        #: byte/size tallies the probes observe (e.g. generated source)
        self.tallies: dict[str, float] = {}

    def begin(self) -> None:
        """Start recording into fresh span and tally tables."""
        self.enabled = True
        self.spans = []
        self.stack = []
        self.tallies = {}

    def span(self, name: str):
        if not self.enabled:
            return _OFF
        return _Span(self, name)

    def tally(self, name: str, amount: float) -> None:
        self.tallies[name] = self.tallies.get(name, 0.0) + amount



def write_spans(path: Path, passes: list[list[list]]) -> None:
    """Write every traced pass's spans as JSON lines, one per span;
    ``parent`` indexes spans of the same pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("name", "start", "end", "parent", "request")
    with path.open("w") as fh:
        for number, spans in enumerate(passes):
            for span in spans:
                record = dict(zip(keys, span), traced_pass=number)
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> dict[str, float]:
    """Layer -> summed self time: each span's duration minus the part
    its child spans cover (children of one span never overlap — the
    benchmark is single-threaded)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = {layer: 0.0 for layer in LAYERS}
    for index, (name, start, end, _, _) in enumerate(spans):
        layer = LAYER_OF[name.split(":", 1)[0]]
        totals[layer] += (end - start) - covered[index]
    return totals


def span_totals(spans: list[list], name: str) -> float:
    """Summed inclusive duration of every span called ``name``."""
    return sum(end - start for n, start, end, _, _ in spans if n == name)


def _wrapped(
    recorder: SpanRecorder,
    span_name: str,
    original: Callable,
    observe: Optional[Callable[[SpanRecorder, Any], None]],
) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(span_name):
            result = original(*args, **kwargs)
        if observe is not None:
            observe(recorder, result)
        return result

    return wrapper


def _codegen_size(recorder: SpanRecorder, module: Any) -> None:
    if module is not None:
        recorder.tally("vm.codegen_source_bytes", len(module.source))


@contextlib.contextmanager
def probes(recorder: SpanRecorder) -> Iterator[None]:
    """Span the calls layers make into each other, for the duration.

    Patches module attributes the callers look up at call time
    (``compile_module`` from the megaunit engine, ``verify_artifact``
    from the verifying cache, the cache's aux-store methods) and
    restores them on exit.
    """
    import repro.analysis.bcverify as bcverify
    import repro.vm.megaunit as megaunit
    from repro.pipeline.cache import ArtifactCache

    targets = (
        (megaunit, "compile_module", "vm.codegen", _codegen_size),
        (bcverify, "verify_artifact", "bcverify.load", None),
        (ArtifactCache, "get_aux", "cache.aux_get", None),
        (ArtifactCache, "put_aux", "cache.aux_put", None),
    )
    saved = []
    for owner, attr, span_name, observe in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrapped(recorder, span_name, original, observe))
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
