"""Layer probes run by traced passes only, after the timed loop.

They measure a single layer directly, on the workload's own set-up state,
where the workload itself gives no seam to time it through.
"""

from __future__ import annotations

import gc
import os
from time import perf_counter

from repro.bgp.parallel import ParallelRoutingEngine


def _resident_bytes() -> int:
    """Current (not peak) resident set; 0 where ``/proc`` is absent."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def view_bytes_probe(graph, dests: list[int]) -> float:
    """Resident bytes per converged destination view held."""
    engine = ParallelRoutingEngine(graph, n_workers=1)
    gc.collect()
    before = _resident_bytes()
    views = engine.compute_many(dests)
    after = _resident_bytes()
    held = len(views)
    del views
    return max(0, after - before) / held if held else 0.0


def pool_probe(graph, dests: list[int], tr) -> dict[str, float]:
    """Persistent 2-worker pool against serial on the same destinations.

    Diagnostic for ROADMAP item 2: the pool is started (and the CSR
    exported) by a two-destination call outside the timed spans.
    """
    with tr.span("bench.probe", "bench"):
        serial = ParallelRoutingEngine(graph, n_workers=1)
        t0 = perf_counter()
        with tr.span("bgp.propagate", "bgp"):
            serial.compute_many(dests)
        serial_s = perf_counter() - t0
        pooled = ParallelRoutingEngine(graph, n_workers=2, persistent=True)
        try:
            pooled.compute_many(dests[:2])
            t0 = perf_counter()
            with tr.span("bgp.pool", "bgp"):
                pooled.compute_many(dests)
            pooled_s = perf_counter() - t0
        finally:
            pooled.close()
    return {
        "bgp.pool_dests_per_s": len(dests) / pooled_s,
        "bgp.pool_speedup": serial_s / pooled_s,
    }
