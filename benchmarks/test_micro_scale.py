"""Propagation throughput scale curve.

``micro_scale`` (recorded in ``results/BENCH_suite.json``) —
destinations/second of one Gao–Rexford convergence at 1k / 10k / 44k ASes
(the 44k tier is the paper's 44,340-AS UCLA IRL topology), for the serial
array backend and the 2-worker shared-memory pool.  The rendered curve
lands in ``results/microbench_scale.txt``.

Tier selection is environment-driven so CI stays fast: set
``MIFO_SCALE_TIERS`` to a comma-separated subset of ``1k,10k,44k``
(default ``1k,10k``).  The CI ``scale`` job runs the 1k smoke tier only;
run all three tiers locally to refresh the full curve.
"""

import os

from repro.bgp.parallel import ParallelRoutingEngine
from repro.telemetry import Stopwatch
from repro.topology.generator import TopologyConfig, generate_topology

from .conftest import write_result

#: Tier name -> AS count.  44k is the paper's measured topology size.
TIERS: dict[str, int] = {"1k": 1_000, "10k": 10_000, "44k": 44_340}

#: Destinations converged per tier for the throughput curve — scaled down
#: with topology size so every tier costs roughly the same wall-clock.
CURVE_DESTS: dict[str, int] = {"1k": 32, "10k": 12, "44k": 6}

_DEFAULT_TIERS = "1k,10k"


def selected_tiers() -> list[str]:
    """The tier subset this run covers, from ``MIFO_SCALE_TIERS``."""
    raw = os.environ.get("MIFO_SCALE_TIERS", _DEFAULT_TIERS)
    names = [t.strip() for t in raw.split(",") if t.strip()]
    unknown = sorted(set(names) - set(TIERS))
    if unknown:
        raise ValueError(
            f"MIFO_SCALE_TIERS has unknown tiers {unknown}; "
            f"choose from {sorted(TIERS)}"
        )
    return names


_GRAPHS: dict[str, object] = {}


def _graph(tier: str):
    """Tier topology, built once per process (the 44k build is minutes)."""
    if tier not in _GRAPHS:
        g = generate_topology(TopologyConfig(n_ases=TIERS[tier], seed=2014))
        g.csr()  # warm the adjacency outside every timed region
        _GRAPHS[tier] = g
    return _GRAPHS[tier]


class TestScaleCurve:
    def test_dests_per_second_curve(self, results_dir, bench_report):
        """Record serial + pooled throughput at each tier."""
        tiers = selected_tiers()
        rows: list[tuple[str, int, int, float, float]] = []
        for tier in tiers:
            graph = _graph(tier)
            n_dests = CURVE_DESTS[tier]
            dests = list(range(n_dests))

            serial = ParallelRoutingEngine(graph, n_workers=1)
            sw = Stopwatch()
            serial_map = serial.compute_many(dests)
            serial_tput = n_dests / sw.elapsed

            with ParallelRoutingEngine(graph, n_workers=2) as engine:
                # pool spin-up outside the timed region (>= 2 dests, or the
                # engine takes the serial path and never starts the pool)
                engine.compute_many(dests[:2])
                assert engine.pool_live
                sw.restart()
                pool_map = engine.compute_many(dests)
                pool_tput = n_dests / sw.elapsed

            # same answers at every tier, whatever the substrate
            probe = dests[n_dests // 2]
            assert pool_map[probe].reachable_count() == serial_map[
                probe
            ].reachable_count()

            rows.append((tier, len(graph), n_dests, serial_tput, pool_tput))
            bench_report(
                "micro_scale",
                tier=tier,
                n_ases=len(graph),
                n_dests=n_dests,
                serial_dests_per_s=round(serial_tput, 2),
                persistent_dests_per_s=round(pool_tput, 2),
            )

        lines = [
            f"propagation throughput scale curve (tiers: {', '.join(tiers)})",
            f"  {'tier':>5} {'ASes':>7} {'dests':>6} "
            f"{'serial d/s':>11} {'pool d/s':>9}",
        ]
        for tier, n_ases, n_dests, s_tput, p_tput in rows:
            lines.append(
                f"  {tier:>5} {n_ases:>7} {n_dests:>6} "
                f"{s_tput:>11.1f} {p_tput:>9.1f}"
            )
        write_result(results_dir, "microbench_scale", "\n".join(lines))

        # per-destination cost must grow with topology size: each larger
        # tier's serial throughput is strictly below the previous tier's
        # (the gaps are ~7x, so this cannot flake on scheduler noise).
        for (_, _, _, prev, _), (_, _, _, cur, _) in zip(rows, rows[1:]):
            assert cur < prev, (rows,)

