"""Measurement loop shared by every workload.

One workload run is: set up several times (``setup_s`` is the median),
run whole rounds in a closed loop with one caller until ``--seconds`` have
passed (``--fixed``: the workload's own round count), read the peak RSS,
then check the outputs outside the timed region.  With tracing on, the same loop runs under
a :class:`bench.trace.Tracer` and the workload reports its per-layer
metrics; a short untraced pass over the same first rounds gives the tracing
overhead.  End-to-end metrics always come from an untraced run.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from bench.trace import NULL_TRACER, Tracer, layer_self_seconds
from bench.workloads import PER_LAYER

__all__ = ["OUT_DIR", "Check", "Recorder", "digest", "run_workload", "tail"]

#: everything a run writes goes here (ignored by git).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: share of ``--seconds`` spent on the untraced reference pass of a traced run.
REFERENCE_SHARE = 0.25
#: keep repeating the set-up until this many seconds of it were measured ...
SETUP_MIN_S = 1.0
#: ... but never more often than this.
SETUP_MAX_REPS = 25


@dataclasses.dataclass
class Check:
    """Outcome of a workload's correctness check."""

    attempted: int
    failures: list[str]
    #: digest of the outputs of round 0: same commit + same seed, same digest.
    digest: str


@dataclasses.dataclass
class Recorder:
    """What the timed loop collects."""

    units: int = 0
    lat_ns: list[int] = dataclasses.field(default_factory=list)
    failures: list[str] = dataclasses.field(default_factory=list)
    wall_s: float = 0.0
    rounds: int = 0
    #: cumulative wall seconds, and cumulative units, at the end of each round.
    round_end_s: list[float] = dataclasses.field(default_factory=list)
    round_end_units: list[int] = dataclasses.field(default_factory=list)

    def round_rates(self) -> list[float]:
        """Units per second of each round."""
        ends = zip(self.round_end_s, self.round_end_units)
        starts = zip([0.0, *self.round_end_s], [0, *self.round_end_units])
        return [(u1 - u0) / (t1 - t0) for (t1, u1), (t0, u0) in zip(ends, starts)]


def digest(*parts: object) -> str:
    """Short stable digest of ``repr`` of the parts."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


#: the tail latency keeps at least this many samples beyond it.
TAIL_BEYOND = 3


def tail(sorted_values: list[float]) -> float:
    """Nearest-rank p99 of an ascending list, but never closer to the top
    than ``TAIL_BEYOND`` samples (the 4th-largest sample below 400 samples)
    and never below the median.

    The maximum of a few dozen operations on a shared host is one neighbour's
    burst; the 4th-largest still sits among the slowest kind of operation.
    """
    n = len(sorted_values)
    k = max(min(math.ceil(0.99 * n), n - TAIL_BEYOND), math.ceil(n / 2))
    return sorted_values[k - 1]


def peak_rss_mb() -> float:
    """High-water resident set of this process (``ru_maxrss``: KB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform != "darwin" else peak / 1024.0**2


def timed_loop(inst, tr, seconds: float, rounds: int | None) -> Recorder:
    """Run whole rounds until ``seconds`` have passed, or exactly ``rounds``."""
    rec = Recorder()
    max_rounds = getattr(inst, "max_rounds", None)
    gc.collect()
    t0 = perf_counter()
    with tr.span("bench.run", "bench"):
        while True:
            tr.op_id = rec.rounds
            try:
                inst.round(rec.rounds, rec, tr)
            except Exception:  # a failed operation is a result, not a crash
                rec.failures.append(traceback.format_exc(limit=4))
                break
            rec.rounds += 1
            now = perf_counter() - t0
            rec.round_end_s.append(now)
            rec.round_end_units.append(rec.units)
            if rounds is not None:
                if rec.rounds >= rounds:
                    break
            elif now >= seconds:
                break
            if max_rounds is not None and rec.rounds >= max_rounds:
                break
    rec.wall_s = perf_counter() - t0
    return rec


def run_workload(
    cls,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    fixed: bool = False,
    trace_path: str | None = None,
) -> dict:
    """One full run of workload class ``cls``; returns the run record."""
    size = dict(cls.sizes["smoke" if smoke else "full"])
    size["seconds"] = seconds
    # fixed: the workload's own round count (about 8 s of work at full size)
    rounds = size["rounds"] if fixed else None
    tracer = Tracer() if trace else NULL_TRACER

    # Set up until there are ``setup_reps`` repetitions and SETUP_MIN_S
    # seconds of them (a 20 ms set-up needs more repetitions for a steady
    # median than a 5 s one), dropping each state before building the next.
    setup_times: list[float] = []
    inst = None
    while True:
        inst = None
        gc.collect()
        t0 = perf_counter()
        inst = cls(seed, size, NULL_TRACER)
        setup_times.append(perf_counter() - t0)
        if trace:  # a traced run reports no setup_s: one reference state is enough
            break
        if len(setup_times) >= cls.setup_reps and (
            sum(setup_times) >= SETUP_MIN_S or len(setup_times) >= SETUP_MAX_REPS
        ):
            break

    if trace:
        # untraced reference over the first rounds, then a traced state of its own
        reference = timed_loop(
            inst,
            NULL_TRACER,
            seconds * REFERENCE_SHARE,
            None if rounds is None else max(1, rounds // 4),
        )
        inst = None
        gc.collect()
        with tracer.span("bench.setup", "bench"):
            inst = cls(seed, size, tracer)

    rec = timed_loop(inst, tracer, seconds, rounds)
    rss = peak_rss_mb()
    layers = dict.fromkeys(PER_LAYER, 0)  # a layer the workload never enters reports 0
    if rec.failures:  # the loop ended on a failed operation: no sound outputs to check
        check = Check(0, [], "")
    else:
        if trace:
            layers.update(inst.layers(tracer, rec))
        check = inst.check()
    failures = rec.failures + check.failures
    lat_ms = sorted(ns / 1e6 for ns in rec.lat_ns)

    record = {
        "workload": cls.name,
        "unit": cls.unit,
        "seed": seed,
        "traced": trace,
        "smoke": smoke,
        "params": size,
        "setup_reps": len(setup_times),
        "setup_times_s": setup_times,
        "rounds": rec.rounds,
        "wall_s": rec.wall_s,
        "units": rec.units,
        "n_samples": len(lat_ms),
        "attempted": len(lat_ms) + check.attempted + len(rec.failures),
        "failed": len(failures),
        "failures": failures[:8],
        "output_digest": check.digest,
    }
    if not trace:
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            # the median round: a neighbour's burst slows a few rounds, not the median
            "units_per_s": statistics.median(rec.round_rates()) if rec.rounds else 0.0,
            "lat_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
            "lat_tail_ms": tail(lat_ms) if lat_ms else 0.0,
            "peak_rss_mb": rss,
        }
        return record

    layers["bench.wall_s"] = rec.wall_s
    layers["bench.units"] = rec.units
    shares = layer_self_seconds(tracer.spans, "bench.run")
    layers["bench.self_s"] = shares.get("bench", 0.0)
    layers["telemetry.trace_overhead_pct"] = _overhead_pct(reference, rec)
    record["metrics"] = layers
    record["layer_self_s"] = shares
    if trace_path is not None:
        tracer.write_jsonl(trace_path)
        record["trace_file"] = trace_path
    return record


def _overhead_pct(reference: Recorder, traced: Recorder) -> float:
    """Traced wall over untraced wall, on the rounds both passes completed."""
    k = min(reference.rounds, traced.rounds)
    if k == 0:
        return 0.0
    return (traced.round_end_s[k - 1] / reference.round_end_s[k - 1] - 1.0) * 100.0
