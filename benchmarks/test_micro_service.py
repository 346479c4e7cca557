"""Service-mode throughput curve and bounded-memory soak.

Two acceptance gates for ``repro.service`` at scale:

* **Throughput curve** — steady-state events/s at ``batch_max`` 1, 16
  and 64.  Best-of-reps (max rate = min wall-clock) lands in
  ``results/microbench_service.txt``.
  The CI gate: batching at 64 must clear **3x** the single-threaded
  unbatched (seed) rate — the point of coalescing N ticks into one
  delta-solve.
* **Soak** — the session must ingest an unbounded interleaved stream
  without unbounded growth.  ``MIFO_SOAK_EVENTS`` (default 100k; the
  nightly job pushes 1M) events through one batched session, then the
  resident-set high-water mark must have grown by less than
  ``RSS_CEILING_MB`` after warm-up (stdlib ``resource.getrusage`` —
  ``ru_maxrss`` is KB on Linux, so a genuine leak of even a few MB per
  10k events trips it), the record ring and live-flow population must
  have stayed bounded, and steady-state throughput must clear the floor.
"""

import os
import resource
import sys

import pytest

from repro.service import ServiceConfig, ServiceSession
from repro.telemetry import Stopwatch
from repro.topology.generator import TopologyConfig

from .conftest import write_result

#: nightly knob: MIFO_SOAK_EVENTS=1000000 pushes the soak to 1M events.
N_SOAK_EVENTS = int(os.environ.get("MIFO_SOAK_EVENTS", "100000"))
WARMUP_EVENTS = 2_000
RSS_CEILING_MB = 64.0
EVENTS_PER_SEC_FLOOR = 300.0
LIVE_FLOW_CEILING = 500

#: curve parameters: events per timed rep, reps per cell, CI speedup gate.
N_CURVE_EVENTS = 2_000
CURVE_WARMUP = 300
CURVE_REPS = 2
BATCH_SPEEDUP_GATE = 3.0
CURVE_BATCHES = (1, 16, 64)

_BASE = dict(
    seed=2014,
    arrival_rate=400.0,
    mean_lifetime_events=10.0,
    p_link_event=0.002,
    p_capacity_event=0.002,
    record_capacity=256,
)
TOPO = TopologyConfig(n_ases=120, seed=2014)


def _rss_mb() -> float:
    """Peak RSS in MB.  ``ru_maxrss`` is KB on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform != "darwin" else peak / (1024.0**2)


def _curve_rate(batch_max: int) -> float:
    """Best-of-reps steady-state events/s for one curve cell."""
    best = 0.0
    for _ in range(CURVE_REPS):
        cfg = ServiceConfig(batch_max=batch_max, **_BASE)
        session = ServiceSession(cfg, topology=TOPO)
        session.drain(CURVE_WARMUP)
        sw = Stopwatch()
        session.drain(N_CURVE_EVENTS)
        best = max(best, N_CURVE_EVENTS / sw.elapsed)
    return best


class TestServiceThroughputCurve:
    @pytest.mark.slow
    def test_batched_throughput_clears_gate(self, results_dir):
        rates = {batch_max: _curve_rate(batch_max) for batch_max in CURVE_BATCHES}
        seed_rate = rates[1]
        lines = [
            "Service-mode throughput curve (events/s, best of "
            f"{CURVE_REPS} reps, {N_CURVE_EVENTS} events/rep, "
            f"{TOPO.n_ases} ASes, array backend)",
            f"  {'batch_max':>9}  {'events/s':>10}  speedup",
        ]
        for batch_max, rate in rates.items():
            lines.append(
                f"  {batch_max:>9}  {rate:>10,.0f}  {rate / seed_rate:.2f}x"
            )
        lines.append(
            f"  gate: batch-64 >= {BATCH_SPEEDUP_GATE:g}x batch-1 "
            f"({rates[64] / seed_rate:.2f}x measured)"
        )
        write_result(results_dir, "microbench_service", "\n".join(lines))
        assert rates[64] >= BATCH_SPEEDUP_GATE * seed_rate, "\n".join(lines)
        # Batching must help monotonically at curve granularity.
        assert rates[16] > seed_rate, "\n".join(lines)


class TestServiceSoak:
    @pytest.mark.slow
    def test_soak_bounded_memory_and_throughput(self, results_dir):
        cfg = ServiceConfig(batch_max=64, **_BASE)
        session = ServiceSession(cfg, topology=TOPO)

        session.drain(WARMUP_EVENTS)
        rss_warm = _rss_mb()

        sw = Stopwatch()
        session.drain(N_SOAK_EVENTS - WARMUP_EVENTS)
        elapsed = sw.elapsed
        rss_end = _rss_mb()

        rss_delta = rss_end - rss_warm
        events_per_sec = (N_SOAK_EVENTS - WARMUP_EVENTS) / elapsed

        lines = [
            "Service-mode soak (bounded memory + throughput, batch_max=64)",
            f"  topology:        {TOPO.n_ases} ASes",
            f"  events:          {session.events_processed:,} "
            f"({session.arrivals_total:,} arrivals, "
            f"{session.retired_total:,} retired)",
            f"  live flows:      {session.engine.n_flows} at exit "
            f"(ceiling {LIVE_FLOW_CEILING})",
            f"  record ring:     {len(session.engine.records)} "
            f"(capacity {cfg.record_capacity})",
            f"  rss:             {rss_warm:.1f} MB warm -> {rss_end:.1f} MB "
            f"(delta {rss_delta:.2f} MB, ceiling {RSS_CEILING_MB:g} MB)",
            f"  throughput:      {events_per_sec:,.0f} events/s "
            f"(floor {EVENTS_PER_SEC_FLOOR:g})",
        ]
        write_result(results_dir, "microbench_service_soak", "\n".join(lines))

        assert session.events_processed == N_SOAK_EVENTS
        # Memory: the whole point of the service mode.
        assert rss_delta < RSS_CEILING_MB, "\n".join(lines)
        assert len(session.engine.records) == cfg.record_capacity
        assert session.engine.n_flows < LIVE_FLOW_CEILING
        # The population turned over many times; nothing accumulated.
        assert session.retired_total > session.engine.n_flows * 50
        assert events_per_sec >= EVENTS_PER_SEC_FLOOR, "\n".join(lines)
