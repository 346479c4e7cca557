"""Spans recorded from outside the program, and the two protocol proxies.

Nothing under ``src/`` knows about this module.  A :class:`Tracer` keeps an
in-memory list of spans — ``name``, ``layer`` (a package under
``src/repro``), ``start_ns``, ``end_ns``, ``parent`` (index of the enclosing
span, ``-1`` at the root) and ``op_id`` (the round / event / destination
block / simulation the span belongs to).  Spans are opened only by
``bench/`` code: around each call into a layer, and inside the two proxies
below, which stand in for the program's own injectable seams
(:class:`repro.bgp.propagation.RoutingSource` and
:class:`repro.flowsim.providers.PathProvider`).

A span's *self* time is its duration minus the part its direct children
cover; a layer's time is the sum of the self times of its spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

from repro.flowsim.providers import PathProvider

__all__ = [
    "NULL_TRACER",
    "Tracer",
    "TracedProvider",
    "TracedRouting",
    "layer_self_seconds",
    "name_totals",
]

# span record layout
NAME, LAYER, START, END, PARENT, OP = range(6)


class _Span:
    __slots__ = ("_tracer", "_name", "_layer", "_idx")

    def __init__(self, tracer: "Tracer", name: str, layer: str) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __enter__(self) -> None:
        tr = self._tracer
        stack = tr._stack
        self._idx = len(tr.spans)
        tr.spans.append(
            [self._name, self._layer, perf_counter_ns(), 0, stack[-1] if stack else -1, tr.op_id]
        )
        stack.append(self._idx)

    def __exit__(self, *exc: object) -> None:
        end = perf_counter_ns()
        tr = self._tracer
        tr.spans[self._idx][END] = end
        tr._stack.pop()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


class Tracer:
    """In-memory span recorder; written out once, when the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: stamped on every span opened from now on.
        self.op_id = -1

    def span(self, name: str, layer: str) -> _Span:
        """Context manager recording one span."""
        return _Span(self, name, layer)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in opening order."""
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "op_id")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


class _NullTracer:
    """Tracing off: ``span`` costs one attribute lookup and no record."""

    enabled = False
    spans: list[list] = []
    op_id = -1
    _span = _NullSpan()

    def span(self, name: str, layer: str) -> _NullSpan:
        return self._span


NULL_TRACER = _NullTracer()


def _self_ns(spans: list[list]) -> list[int]:
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def layer_self_seconds(spans: list[list], under: str) -> dict[str, float]:
    """Self seconds per layer over the spans enclosed by root span ``under``."""
    inside = _descendants(spans, under)
    out: dict[str, float] = defaultdict(float)
    for idx, ns in enumerate(_self_ns(spans)):
        if inside[idx]:
            out[spans[idx][LAYER]] += ns / 1e9
    return dict(out)


def name_totals(spans: list[list], under: str) -> dict[str, tuple[float, float, int]]:
    """``name -> (total_s, self_s, count)`` over spans enclosed by ``under``."""
    inside = _descendants(spans, under)
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for idx, ns in enumerate(_self_ns(spans)):
        if inside[idx]:
            rec = spans[idx]
            cell = out[rec[NAME]]
            cell[0] += (rec[END] - rec[START]) / 1e9
            cell[1] += ns / 1e9
            cell[2] += 1
    return {name: (c[0], c[1], c[2]) for name, c in out.items()}


def _descendants(spans: list[list], under: str) -> list[bool]:
    """Flags the spans named ``under`` and everything they enclose."""
    inside = [False] * len(spans)
    for idx, rec in enumerate(spans):  # parents always precede children
        inside[idx] = rec[NAME] == under or (rec[PARENT] >= 0 and inside[rec[PARENT]])
    return inside


class TracedRouting:
    """:class:`~repro.bgp.propagation.RoutingSource` proxy around a
    :class:`~repro.bgp.propagation.RoutingCache`: a lazy miss — a
    destination converged on demand inside a query — becomes a
    ``bgp.propagate`` span; hits pass straight through."""

    def __init__(self, cache, tracer: Tracer) -> None:
        self.cache = cache
        self.tracer = tracer

    def __call__(self, dest: int):
        if dest in self.cache:
            return self.cache(dest)
        with self.tracer.span("bgp.propagate", "bgp"):
            return self.cache(dest)


class TracedProvider(PathProvider):
    """:class:`~repro.flowsim.providers.PathProvider` proxy: every path
    decision the fluid simulator asks for becomes one span, so
    ``flowsim.run``'s self time excludes the routing scheme's work."""

    def __init__(self, inner: PathProvider, tracer: Tracer, span_name: str, layer: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.span_name = span_name
        self.layer = layer
        self.name = inner.name
        self.supports_reroute = inner.supports_reroute

    def initial_path(self, spec, view):
        with self.tracer.span(self.span_name, self.layer):
            return self.inner.initial_path(spec, view)

    def reroute(self, flow, view):
        with self.tracer.span(self.span_name, self.layer):
            return self.inner.reroute(flow, view)
