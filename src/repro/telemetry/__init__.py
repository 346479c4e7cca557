"""``repro.telemetry`` — process-wide, opt-in instrumentation.

The MIFO pipeline makes thousands of small decisions per run (deflections,
Tag-Check drops, encapsulations, cache hits, max-min filling rounds); the
paper's whole evaluation (§V) is built from exactly these events.  This
package makes them first-class:

* **Counters / gauges / histograms** — typed numeric instruments
  (``mifo.deflections``, ``cache.hits``, ``flowsim.maxmin_iterations``…);
* **Phase timers** — nested wall-clock spans (``topology.build`` →
  ``bgp.propagate`` → ``mifo.deflect`` → ``flowsim.solve`` →
  ``metrics.compute``), read back as an immutable
  :class:`TelemetrySnapshot`;
* **Structured event trace** — a bounded ring buffer of deflection /
  Tag-Check / path-switch events, exportable as JSONL
  (:mod:`repro.telemetry.trace`) and consumable by the static verifier.

Telemetry is **off by default** and the disabled path is near-zero cost:
every instrumented call site guards on a single module-global ``None``
check (no string formatting, no dict allocation) —
``benchmarks/test_micro_telemetry.py`` proves the overhead on the
array-backend routing hot path stays below 2%.

All wall-clock reads in ``src/repro`` must go through this package
(:class:`Stopwatch` / the span API); ``tests/test_determinism_guard.py``
makes every other clock read raise during a full CLI run.
"""

from .core import (
    DEFAULT_TRACE_CAPACITY,
    EventValue,
    Stopwatch,
    Telemetry,
    TelemetrySession,
    TelemetrySnapshot,
    activate,
    active,
    event,
    inc,
    observe,
    set_gauge,
    span,
    telemetry_session,
)

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "EventValue",
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
