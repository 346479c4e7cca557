"""Instrument registry, immutable snapshots, and the module-level sink.

Design constraints:

* **Near-zero disabled cost.**  The process-wide sink is one module
  global, ``_active``; every convenience function and every instrumented
  call site in the pipeline guards on ``_active is None`` — a single
  load + branch, no string formatting, no allocation.  Disabled spans
  return one shared no-op handle.
* **Deltas by subtraction.**  A :class:`TelemetrySnapshot` is an
  immutable copy of one registry; :meth:`TelemetrySnapshot.subtract`
  turns two of them into what happened in between, which is how an
  experiment run reports its own share of a shared registry
  (:class:`TelemetrySession`).
* **Only this module touches the clock.**  ``time.perf_counter`` lives
  here; everywhere else in ``src/repro`` a direct timer call raises
  under ``tests/test_determinism_guard.py``, so every measured interval
  is a span.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import itertools
import time
from collections import deque
from collections.abc import Iterator

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "EventValue",
    "SpanHandle",
    "Stopwatch",
    "Telemetry",
    "TelemetrySession",
    "TelemetrySnapshot",
    "activate",
    "active",
    "event",
    "inc",
    "observe",
    "set_gauge",
    "span",
    "telemetry_session",
]

#: JSON-scalar values an event field may carry.
EventValue = int | float | str | bool | None

#: default ring-buffer capacity for the structured event trace.
DEFAULT_TRACE_CAPACITY = 10_000

#: default histogram bucket upper bounds (values above the last bound land
#: in the overflow bucket); chosen for AS-hop path lengths but serviceable
#: for any small-count metric.
DEFAULT_BOUNDS: tuple[float, ...] = (1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0)


class Stopwatch:
    """The sanctioned wall-clock for code outside this package.

    Direct ``time.time()`` / ``perf_counter()`` calls are not allowed in
    the rest of ``src/repro``; ad-hoc elapsed-time needs (CLI progress
    lines, the verifier's ``elapsed_s`` field) use a ``Stopwatch`` instead
    so every timing in the codebase is attributable to one clock
    implementation.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.perf_counter() - self._t0

    def restart(self) -> None:
        """Reset the reference instant to now."""
        self._t0 = time.perf_counter()

    @staticmethod
    def wall_time() -> float:
        """Seconds since the epoch — for report timestamps only."""
        return time.time()


class SpanHandle:
    """No-op span — the shared handle every disabled ``span()`` returns."""

    __slots__ = ()

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NOOP_SPAN = SpanHandle()


class _Span(SpanHandle):
    """Live span: aggregates elapsed wall-clock into its telemetry's table."""

    __slots__ = ("_telemetry", "_name", "_t0")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._stack.append(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        dt = time.perf_counter() - self._t0
        t = self._telemetry
        stack = t._stack
        if stack and stack[-1] == self._name:
            stack.pop()
        cell = t.spans.get(self._name)
        if cell is None:
            t.spans[self._name] = [dt, 1]
        else:
            cell[0] += dt
            cell[1] += 1


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable aggregate of one telemetry registry (or a delta of two)."""

    counters: dict[str, int] = dataclasses.field(default_factory=dict)
    gauges: dict[str, float] = dataclasses.field(default_factory=dict)
    #: name -> (bucket upper bounds, per-bucket counts incl. overflow).
    histograms: dict[str, tuple[tuple[float, ...], tuple[int, ...]]] = dataclasses.field(
        default_factory=dict
    )
    #: name -> (total seconds, completion count).
    spans: dict[str, tuple[float, int]] = dataclasses.field(default_factory=dict)
    events: tuple[dict[str, EventValue], ...] = ()
    events_total: int = 0
    events_dropped: int = 0

    def subtract(self, base: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """This snapshot minus an earlier one of the same registry.

        Gauges keep their current values (levels, not totals).  Events
        keep only those recorded after the base was taken (identified by
        their monotone ``seq``), so a delta still carries its trace.
        """
        counters = {
            k: v - base.counters.get(k, 0)
            for k, v in self.counters.items()
            if v != base.counters.get(k, 0)
        }
        spans = {}
        for k, (total, count) in self.spans.items():
            b = base.spans.get(k, (0.0, 0))
            if count != b[1] or total != b[0]:
                spans[k] = (total - b[0], count - b[1])
        histograms = {}
        for k, (bounds, buckets) in self.histograms.items():
            b_bounds, b_buckets = base.histograms.get(k, (bounds, (0,) * len(buckets)))
            if b_bounds != bounds:
                raise ValueError(f"histogram {k!r}: bucket bounds changed")
            delta = tuple(a - b for a, b in zip(buckets, b_buckets))
            if any(delta):
                histograms[k] = (bounds, delta)
        first_new = base.events_total
        events = tuple(
            e for e in self.events if isinstance(e.get("seq"), int) and e["seq"] >= first_new
        )
        return TelemetrySnapshot(
            counters=counters,
            gauges=dict(self.gauges),
            histograms=histograms,
            spans=spans,
            events=events,
            events_total=self.events_total - base.events_total,
            events_dropped=self.events_dropped - base.events_dropped,
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form for ``ExperimentResult.meta['telemetry']``.

        Raw events are deliberately excluded (the JSONL trace is their
        export format); only their totals ride along.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "spans": {
                name: {"total_s": total, "count": count}
                for name, (total, count) in sorted(self.spans.items())
            },
            "histograms": {
                name: {"bounds": list(bounds), "counts": list(buckets)}
                for name, (bounds, buckets) in sorted(self.histograms.items())
            },
            "events_total": self.events_total,
            "events_dropped": self.events_dropped,
        }

    def render(self) -> str:
        """Human-readable phase-timer / counter report (CLI ``--metrics``)."""
        lines = ["telemetry:"]
        if self.spans:
            lines.append("  phases:")
            width = max(len(n) for n in self.spans)
            for name, (total, count) in sorted(
                self.spans.items(), key=lambda kv: -kv[1][0]
            ):
                mean_ms = total / count * 1e3 if count else 0.0
                lines.append(
                    f"    {name:<{width}}  {total:9.3f} s  x{count:<7d} "
                    f"({mean_ms:8.3f} ms avg)"
                )
        if self.counters:
            lines.append("  counters:")
            width = max(len(n) for n in self.counters)
            for name, value in sorted(self.counters.items()):
                lines.append(f"    {name:<{width}}  {value}")
        if self.gauges:
            lines.append("  gauges:")
            width = max(len(n) for n in self.gauges)
            for name, gauge in sorted(self.gauges.items()):
                lines.append(f"    {name:<{width}}  {gauge:g}")
        for name, (bounds, buckets) in sorted(self.histograms.items()):
            lines.append(f"  histogram {name} (bounds {list(bounds)}):")
            lines.append(f"    counts {list(buckets)}")
        lines.append(
            f"  trace: {self.events_total} event(s), {self.events_dropped} dropped"
        )
        return "\n".join(lines)


class Telemetry:
    """One live instrument registry.

    Not thread-safe by design: the pipeline is single-threaded.
    """

    __slots__ = (
        "counters",
        "gauges",
        "spans",
        "_histograms",
        "_trace",
        "_events_total",
        "_stack",
    )

    def __init__(self, *, trace_capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if trace_capacity < 1:
            raise ValueError(f"trace_capacity must be >= 1, got {trace_capacity}")
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [bounds tuple, mutable bucket counts]
        self._histograms: dict[str, tuple[tuple[float, ...], list[int]]] = {}
        #: name -> [total seconds, completion count]
        self.spans: dict[str, list[float | int]] = {}
        self._trace: deque[dict[str, EventValue]] = deque(maxlen=trace_capacity)
        self._events_total = 0
        self._stack: list[str] = []

    # -- instruments ----------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauges[name] = float(value)

    def observe(
        self, name: str, value: float, *, bounds: tuple[float, ...] = DEFAULT_BOUNDS
    ) -> None:
        """Record one sample into the named histogram.

        The first observation fixes the bucket bounds; later calls with
        different ``bounds`` raise (bounds must agree for subtraction).
        """
        cell = self._histograms.get(name)
        if cell is None:
            cell = (bounds, [0] * (len(bounds) + 1))
            self._histograms[name] = cell
        elif cell[0] != bounds:
            raise ValueError(f"histogram {name!r}: inconsistent bucket bounds")
        cell[1][bisect.bisect_left(cell[0], value)] += 1

    def span(self, name: str) -> _Span:
        """Context manager timing the phase ``name``."""
        return _Span(self, name)

    def current_phase(self) -> str | None:
        """Innermost open span name (annotates trace events)."""
        return self._stack[-1] if self._stack else None

    @property
    def events_total(self) -> int:
        """Events recorded so far (monotone; equals the next ``seq``).

        Callers use it as a *mark*: events recorded after the mark are
        exactly those with ``seq >= mark`` — how the scenario engine
        scopes its per-epoch trace cross-check (:meth:`events_since`)."""
        return self._events_total

    def events_since(self, mark: int) -> list[dict[str, EventValue]]:
        """The retained events recorded after ``mark`` (an earlier
        :attr:`events_total`), oldest first.

        Exactly ``events_total - mark`` events are that new and they are
        the ring's tail (an event's ``seq`` is its position in the stream
        ever recorded), so only the tail is read: the cost follows what
        was recorded since the mark, not the ring's capacity."""
        since = list(itertools.islice(reversed(self._trace), self._events_total - mark))
        since.reverse()
        return since

    def event(self, kind: str, /, **fields: EventValue) -> None:
        """Append one structured event to the bounded ring buffer."""
        record: dict[str, EventValue] = {"kind": kind, "seq": self._events_total}
        phase = self.current_phase()
        if phase is not None:
            record["phase"] = phase
        record.update(fields)
        self._trace.append(record)
        self._events_total += 1

    # -- snapshot protocol ----------------------------------------------
    def trace_events(self) -> tuple[dict[str, EventValue], ...]:
        """The retained events, oldest first."""
        return tuple(self._trace)

    def snapshot(self) -> TelemetrySnapshot:
        """An immutable copy of all current measurements."""
        return TelemetrySnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={
                name: (bounds, tuple(buckets))
                for name, (bounds, buckets) in self._histograms.items()
            },
            spans={
                name: (float(cell[0]), int(cell[1]))
                for name, cell in self.spans.items()
            },
            events=self.trace_events(),
            events_total=self._events_total,
            events_dropped=self._events_total - len(self._trace),
        )


# ----------------------------------------------------------------------
# the process-wide sink
# ----------------------------------------------------------------------

_active: Telemetry | None = None


def active() -> Telemetry | None:
    """The process-wide registry, or None when telemetry is disabled."""
    return _active


def activate(telemetry: Telemetry | None) -> None:
    """Install (or, with None, remove) the process-wide registry."""
    global _active
    _active = telemetry


def inc(name: str, n: int = 1) -> None:
    """Add ``n`` to a counter on the active telemetry, if any."""
    t = _active
    if t is not None:
        t.inc(name, n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active telemetry, if any."""
    t = _active
    if t is not None:
        t.set_gauge(name, value)


def observe(
    name: str, value: float, *, bounds: tuple[float, ...] = DEFAULT_BOUNDS
) -> None:
    """Record a histogram sample on the active telemetry."""
    t = _active
    if t is not None:
        t.observe(name, value, bounds=bounds)


def span(name: str) -> SpanHandle:
    """Time a phase on the active telemetry (no-op when off)."""
    t = _active
    if t is None:
        return _NOOP_SPAN
    return t.span(name)


def event(kind: str, /, **fields: EventValue) -> None:
    """Record a trace event on the active telemetry, if any."""
    t = _active
    if t is not None:
        t.event(kind, **fields)


class TelemetrySession:
    """Handle a ``telemetry_session`` yields: the registry + a base mark.

    ``delta()`` / ``meta()`` report only what happened *inside* the
    session, so an already-warm registry (CLI ``run all`` reusing one
    :class:`Telemetry` across experiments) still attributes counters to
    the right experiment.
    """

    __slots__ = ("telemetry", "_base")

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self._base = telemetry.snapshot()

    def delta(self) -> TelemetrySnapshot:
        """Measurements accumulated since construction."""
        return self.telemetry.snapshot().subtract(self._base)

    def meta(self) -> dict[str, object]:
        """The delta in ``ExperimentResult.meta['telemetry']`` form."""
        return self.delta().to_dict()


@contextlib.contextmanager
def telemetry_session(
    spec: "Telemetry | bool | None",
) -> Iterator[TelemetrySession | None]:
    """Scoped activation used by every experiment's ``run(telemetry=...)``.

    ``None``/``False`` — disabled, yields None (and leaves any
    already-active registry untouched so nested runs keep recording);
    ``True`` — activate a fresh :class:`Telemetry` for the scope;
    a :class:`Telemetry` — activate that instance (idempotent when it is
    already the active one).  The previous sink is restored on exit.
    """
    if spec is None or spec is False:
        yield None
        return
    t = spec if isinstance(spec, Telemetry) else Telemetry()
    prev = active()
    activate(t)
    try:
        yield TelemetrySession(t)
    finally:
        activate(prev)
