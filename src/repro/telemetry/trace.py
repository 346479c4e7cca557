"""Structured event trace: JSONL export, schema validation, summaries.

Every event is one flat JSON object per line.  The schema below is the
single source of truth; ``docs/trace.schema.json`` is its checked-in copy
(``tests/telemetry/test_trace.py`` asserts they stay identical) so CI and
external consumers can validate traces without importing this package.

Validation implements the JSON-Schema subset the trace schema actually
uses (``type``, ``required``, ``properties``, ``enum``,
``additionalProperties``) rather than depending on a ``jsonschema``
package the runtime image may not carry.

Event kinds:

``deflection``
    One AS-level deflection decision (``repro.mifo.deflection``): the
    deciding AS, its congested default next hop, the chosen alternative,
    the spare capacity that won it, and how the packet entered the AS.
``tagcheck_drop``
    Tag-Check refused every candidate (AS level) or dropped a deflected
    packet (packet level) — the valley-free guard firing.
``path_switch``
    A mid-flow reroute in the fluid simulator (deflect or resume).
``encap``
    An IP-in-IP encapsulation toward an iBGP peer (packet engine).
``scenario_event``
    One timeline event processed by the dynamic-scenario engine
    (``repro.scenario``): what happened, what it hit, how many
    destinations went dirty and flows moved.
``solver_stats``
    End-of-run summary of one fluid simulation's max-min solver
    (``repro.flowsim``): which solver ran, the progressive-filling rounds
    it executed, and — for the incremental solver — how much work the
    path pool and the warm-start memo avoided.
``rtt_sample``
    One per-flow path RTT observation (``repro.measure.rtt``), taken
    once per epoch by the scenario engine's measurement pass (the fluid
    simulator takes none).
``changepoint``
    A confirmed RTT regime shift on one flow's series
    (``repro.measure.changepoint``): when the shift was detected
    (``epoch``), when the detector estimates it happened (``cp_epoch``),
    and its direction.
``batch_flush``
    The streaming service applied a coalesced batch of buffered ticks as
    one engine epoch (``repro.service.session``): how many stream events
    the flush covered (``batched``), the epoch they landed in, and the
    stream clock at flush time.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import Counter
from collections.abc import Iterable, Sequence

from .core import EventValue

__all__ = [
    "TRACE_SCHEMA",
    "read_jsonl",
    "summarize",
    "validate_event",
    "validate_events",
    "write_jsonl",
]

#: The JSONL trace schema (mirrored at ``docs/trace.schema.json``).
TRACE_SCHEMA: dict[str, object] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "MIFO telemetry trace event",
    "description": (
        "One structured pipeline event per JSONL line, as emitted by "
        "`python -m repro run --trace-out` (repro.telemetry.trace)."
    ),
    "type": "object",
    "required": ["kind", "seq"],
    "additionalProperties": False,
    "properties": {
        "kind": {
            "type": "string",
            "enum": [
                "deflection",
                "tagcheck_drop",
                "path_switch",
                "encap",
                "scenario_event",
                "solver_stats",
                "rtt_sample",
                "changepoint",
                "batch_flush",
            ],
        },
        "seq": {"type": "integer"},
        "phase": {"type": "string"},
        "as": {"type": "integer"},
        "dst": {"type": "integer"},
        "src": {"type": "integer"},
        "flow": {"type": "integer"},
        "upstream": {"type": ["integer", "null"]},
        "default_nh": {"type": "integer"},
        "chosen": {"type": "integer"},
        "cause": {
            "type": "string",
            "enum": [
                "congested_link",
                "deflected_to_us",
                "resume",
                "tag_check",
                "rtt_alarm",
            ],
        },
        "spare_bps": {"type": "number"},
        "candidates": {"type": "integer"},
        "tagcheck_filtered": {"type": "integer"},
        "tag_bit": {"type": "boolean"},
        "on_alt": {"type": "boolean"},
        "time_s": {"type": "number"},
        "epoch": {
            "type": "integer",
            "description": (
                "Scenario-engine epoch (timeline event index) the event "
                "was recorded under; the end-of-run trace gate skips "
                "epoch-tagged deflections because each epoch is "
                "cross-checked against its own FIB state."
            ),
        },
        "event": {
            "type": "string",
            "description": (
                "Scenario event kind (link_fail, link_recover, "
                "capacity_scale, traffic_ramp, flash_crowd, "
                "congestion_onset, measure_tick, initial)."
            ),
        },
        "target": {"type": "string"},
        "dirty": {"type": "integer"},
        "rerouted": {"type": "integer"},
        "unroutable": {"type": "integer"},
        "router": {"type": "string"},
        "peer": {"type": "string"},
        "solver": {
            "type": "string",
            "enum": ["incremental", "full"],
            "description": "Fluid max-min solver mode of a solver_stats event.",
        },
        "maxmin_iterations": {
            "type": "integer",
            "description": (
                "Progressive-filling rounds the run actually executed; the "
                "incremental solver's count never exceeds the full "
                "solver's on the same event stream (memo hits skip rounds)."
            ),
        },
        "pool_hits": {"type": "integer"},
        "cols_reused": {"type": "integer"},
        "warm_rounds_saved": {"type": "integer"},
        "rtt_ms": {
            "type": "number",
            "description": "Observed path round-trip time, milliseconds.",
        },
        "cp_epoch": {
            "type": "integer",
            "description": (
                "Detector's estimate of the epoch the RTT regime shift "
                "happened (first post-shift sample); `epoch` is when it "
                "was confirmed, so `epoch - cp_epoch` is the detection "
                "delay."
            ),
        },
        "direction": {
            "type": "string",
            "enum": ["up", "down"],
            "description": "Sign of a changepoint's level shift.",
        },
        "detector": {
            "type": "string",
            "enum": ["threshold", "changepoint"],
            "description": (
                "Which measurement-driven detector produced an "
                "rtt_sample/changepoint event (the oracle signal emits "
                "neither)."
            ),
        },
        "batched": {
            "type": "integer",
            "description": (
                "Stream events a batch_flush coalesced into one engine "
                "epoch (always >= 1; the unbatched path emits no flush "
                "events at all)."
            ),
        },
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _type_ok(value: object, expected: object) -> bool:
    names = expected if isinstance(expected, list) else [expected]
    return any(
        isinstance(n, str) and n in _TYPE_CHECKS and _TYPE_CHECKS[n](value)
        for n in names
    )


def validate_event(
    event: object, schema: dict[str, object] | None = None
) -> list[str]:
    """Problems (empty = valid) of one event against the trace schema."""
    schema = schema if schema is not None else TRACE_SCHEMA
    problems: list[str] = []
    if not _type_ok(event, schema.get("type", "object")):
        return [f"event is not an object: {event!r}"]
    assert isinstance(event, dict)
    required = schema.get("required", [])
    if isinstance(required, list):
        for key in required:
            if key not in event:
                problems.append(f"missing required field {key!r}")
    properties = schema.get("properties", {})
    if not isinstance(properties, dict):
        properties = {}
    for key, value in event.items():
        sub = properties.get(key)
        if sub is None:
            if schema.get("additionalProperties", True) is False:
                problems.append(f"unknown field {key!r}")
            continue
        if not isinstance(sub, dict):
            continue
        if "type" in sub and not _type_ok(value, sub["type"]):
            problems.append(
                f"field {key!r}: {value!r} is not of type {sub['type']}"
            )
        enum = sub.get("enum")
        if isinstance(enum, list) and value not in enum:
            problems.append(f"field {key!r}: {value!r} not in {enum}")
    return problems


def validate_events(
    events: Iterable[object], schema: dict[str, object] | None = None
) -> list[str]:
    """Flat problem list over a whole trace, prefixed with event indices."""
    problems: list[str] = []
    for i, ev in enumerate(events):
        problems.extend(f"event {i}: {p}" for p in validate_event(ev, schema))
    return problems


def write_jsonl(
    events: Iterable[dict[str, EventValue]], path: str | os.PathLike[str]
) -> int:
    """Write events one-per-line; returns the number written."""
    p = pathlib.Path(path)
    if p.parent != pathlib.Path("."):
        p.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with p.open("w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True, default=str))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str | os.PathLike[str]) -> list[dict[str, EventValue]]:
    """Parse a JSONL trace file (blank lines ignored)."""
    events: list[dict[str, EventValue]] = []
    with pathlib.Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: event is not a JSON object")
            events.append(obj)
    return events


def summarize(
    events: Sequence[dict[str, EventValue]], *, top: int = 5
) -> dict[str, object]:
    """Aggregate a trace into the ``trace summarize`` report payload."""
    by_kind = Counter(str(e.get("kind")) for e in events)
    causes = Counter(
        str(e["cause"]) for e in events if isinstance(e.get("cause"), str)
    )
    deflectors = Counter(
        int(e["as"])
        for e in events
        if e.get("kind") == "deflection" and isinstance(e.get("as"), int)
    )
    dests = Counter(
        int(e["dst"]) for e in events if isinstance(e.get("dst"), int)
    )
    spares = [
        float(e["spare_bps"])
        for e in events
        if isinstance(e.get("spare_bps"), (int, float))
    ]
    solvers: dict[str, dict[str, int]] = {}
    for e in events:
        if e.get("kind") != "solver_stats" or not isinstance(
            e.get("solver"), str
        ):
            continue
        agg = solvers.setdefault(
            str(e["solver"]),
            {
                "runs": 0,
                "maxmin_iterations": 0,
                "pool_hits": 0,
                "cols_reused": 0,
                "warm_rounds_saved": 0,
            },
        )
        agg["runs"] += 1
        for field in (
            "maxmin_iterations",
            "pool_hits",
            "cols_reused",
            "warm_rounds_saved",
        ):
            value = e.get(field)
            if isinstance(value, int):
                agg[field] += value
    # per-detector digest: [samples, detections, delay_sum, delays]
    detectors: dict[str, list[int]] = {}
    detector_series: dict[str, set[int]] = {}
    for e in events:
        name = e.get("detector")
        if not isinstance(name, str):
            continue
        agg = detectors.setdefault(name, [0, 0, 0, 0])
        flows = detector_series.setdefault(name, set())
        kind = e.get("kind")
        if kind == "rtt_sample":
            agg[0] += 1
            if isinstance(e.get("flow"), int):
                flows.add(int(e["flow"]))
        elif kind == "changepoint":
            agg[1] += 1
            epoch, cp_epoch = e.get("epoch"), e.get("cp_epoch")
            if isinstance(epoch, int) and isinstance(cp_epoch, int):
                agg[2] += epoch - cp_epoch
                agg[3] += 1
    flushes = [
        int(e["batched"])
        for e in events
        if e.get("kind") == "batch_flush" and isinstance(e.get("batched"), int)
    ]
    summary: dict[str, object] = {
        "events": len(events),
        "by_kind": dict(sorted(by_kind.items())),
        "by_cause": dict(sorted(causes.items())),
        "top_deflecting_ases": deflectors.most_common(top),
        "top_destinations": dests.most_common(top),
    }
    if flushes:
        summary["batch_stats"] = {
            "flushes": len(flushes),
            "batched_events": sum(flushes),
            "mean_batch": sum(flushes) / len(flushes),
            "max_batch": max(flushes),
        }
    if solvers:
        summary["solver_stats"] = dict(sorted(solvers.items()))
    if detectors:
        summary["detector_stats"] = {
            name: {
                "series": len(detector_series[name]),
                "samples": agg[0],
                "detections": agg[1],
                "mean_detection_delay": agg[2] / agg[3] if agg[3] else 0.0,
            }
            for name, agg in sorted(detectors.items())
        }
    if spares:
        summary["spare_bps"] = {
            "min": min(spares),
            "mean": sum(spares) / len(spares),
            "max": max(spares),
        }
    seqs = [int(e["seq"]) for e in events if isinstance(e.get("seq"), int)]
    if seqs:
        summary["seq_range"] = [min(seqs), max(seqs)]
    return summary


def render_summary(summary: dict[str, object]) -> str:
    """Human-readable form of :func:`summarize` output."""
    lines = [f"trace: {summary['events']} event(s)"]
    by_kind = summary.get("by_kind")
    if isinstance(by_kind, dict) and by_kind:
        lines.append("  by kind:")
        for kind, n in by_kind.items():
            lines.append(f"    {kind:<15} {n}")
    by_cause = summary.get("by_cause")
    if isinstance(by_cause, dict) and by_cause:
        lines.append("  by cause:")
        for cause, n in by_cause.items():
            lines.append(f"    {cause:<15} {n}")
    tops = summary.get("top_deflecting_ases")
    if isinstance(tops, list) and tops:
        pretty = ", ".join(f"AS{a} (x{n})" for a, n in tops)
        lines.append(f"  top deflecting ASes: {pretty}")
    solver_stats = summary.get("solver_stats")
    if isinstance(solver_stats, dict) and solver_stats:
        lines.append("  max-min solver:")
        for mode, agg in solver_stats.items():
            lines.append(
                f"    {mode:<12} {agg['maxmin_iterations']} filling round(s) "
                f"over {agg['runs']} run(s); pool hits {agg['pool_hits']}, "
                f"columns reused {agg['cols_reused']}, "
                f"rounds memoized away {agg['warm_rounds_saved']}"
            )
    batch_stats = summary.get("batch_stats")
    if isinstance(batch_stats, dict):
        lines.append(
            f"  batch flushes: {batch_stats['flushes']} covering "
            f"{batch_stats['batched_events']} event(s) "
            f"(mean {batch_stats['mean_batch']:.1f}, "
            f"max {batch_stats['max_batch']})"
        )
    detector_stats = summary.get("detector_stats")
    if isinstance(detector_stats, dict) and detector_stats:
        lines.append("  rtt detectors:")
        for name, agg in detector_stats.items():
            lines.append(
                f"    {name:<12} {agg['detections']} detection(s) over "
                f"{agg['series']} series ({agg['samples']} samples); "
                f"mean detection delay {agg['mean_detection_delay']:.1f} "
                "epoch(s)"
            )
    spare = summary.get("spare_bps")
    if isinstance(spare, dict):
        lines.append(
            f"  spare capacity at deflection: min {spare['min']:.3g} bps, "
            f"mean {spare['mean']:.3g} bps, max {spare['max']:.3g} bps"
        )
    return "\n".join(lines)
