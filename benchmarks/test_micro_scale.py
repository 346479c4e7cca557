"""Propagation throughput scale curve.

``micro_scale`` (recorded in ``results/microbench_scale.txt``) —
destinations/second of Gao–Rexford convergence through the block kernel
at 1k / 10k / 44k ASes (the 44k tier is the paper's 44,340-AS UCLA IRL
topology), three ways: serial one destination per call (a block of one —
what a lazy cache miss costs), serial through ``compute_many`` one
kernel block (``block_dests(n)`` destinations) at a time, and the 2-worker shared-memory
pool.  Both serial loops drop each result before asking for the next, as
a full-table sweep must (44,340 views of 750 KB do not fit anywhere), so
they time the kernel rather than first-touch page faults on retained
views.  The rendered curve, with the full-table wall-clock each serial
rate implies and the process's peak RSS, lands in
``results/microbench_scale.txt``.

Tier selection is environment-driven so CI stays fast: set
``MIFO_SCALE_TIERS`` to a comma-separated subset of ``1k,10k,44k``
(default ``1k,10k``).  The CI ``scale`` job runs the 1k smoke tier only;
run all three tiers locally to refresh the full curve.
"""

import hashlib
import os
import resource

from repro.bgp.array_routing import block_dests
from repro.bgp.parallel import ParallelRoutingEngine
from repro.telemetry import Stopwatch
from repro.topology.generator import TopologyConfig, generate_topology

from .conftest import write_result

#: Tier name -> AS count.  44k is the paper's measured topology size.
TIERS: dict[str, int] = {"1k": 1_000, "10k": 10_000, "44k": 44_340}

#: Kernel blocks converged per tier for the throughput curve (the block
#: narrows as the topology grows, so every tier costs about the same).
CURVE_BLOCKS = 8

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
    """Tier topology, built once per process, with the adjacency and the
    kernel's level schedule warmed outside every timed region."""
    if tier not in _GRAPHS:
        g = generate_topology(TopologyConfig(n_ases=TIERS[tier], seed=2014))
        g.csr().pull_schedule
        _GRAPHS[tier] = g
    return _GRAPHS[tier]


def _best_rate(units: int, fn, repeats: int = 3) -> float:
    """Units per second at the minimum wall time over ``repeats`` calls —
    the recording host has slow spells a single sample would land in."""
    best = float("inf")
    sw = Stopwatch()
    for _ in range(repeats):
        sw.restart()
        fn()
        best = min(best, sw.elapsed)
    return units / best


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _routing_digest(graph, views) -> str:
    """Digest of what a view serves: class, length and next hop of every AS
    toward every destination — comparable across backends."""
    h = hashlib.sha256()
    for dest in sorted(views):
        view = views[dest]
        for x in sorted(graph.nodes()):
            served = (
                (view.best_class(x), view.best_len(x), view.next_hop(x))
                if view.has_route(x)
                else None
            )
            h.update(repr((dest, x, served)).encode())
    return h.hexdigest()


class TestScaleCurve:
    def test_block_kernel_matches_dict_oracle(self):
        """The CI gate behind the curve: at the smallest selected tier,
        two kernel blocks and a tail serve exactly what the dict oracle
        serves (the larger tiers would spend minutes in the oracle)."""
        tier = min(selected_tiers(), key=TIERS.__getitem__)
        graph = _graph(tier)
        dests = list(range(0, len(graph), len(graph) // (2 * block_dests(len(graph)) + 3)))
        array = ParallelRoutingEngine(graph, n_workers=1).compute_many(dests)
        oracle = ParallelRoutingEngine(graph, n_workers=1, backend="dict").compute_many(dests)
        assert _routing_digest(graph, array) == _routing_digest(graph, oracle)

    def test_dests_per_second_curve(self, results_dir):
        """Record block-of-one, blocked and pooled throughput at each tier."""
        tiers = selected_tiers()
        rows: list[tuple[str, int, int, int, float, float, float, float]] = []
        for tier in tiers:
            graph = _graph(tier)
            width = block_dests(len(graph))
            n_dests = CURVE_BLOCKS * width
            dests = list(range(n_dests))

            serial = ParallelRoutingEngine(graph, n_workers=1)
            probe = dests[n_dests // 2]
            reach: dict[str, int] = {}

            def one_per_call() -> None:
                for d in dests:
                    serial.compute(d)

            def block_per_call() -> None:
                for lo in range(0, n_dests, width):
                    block = serial.compute_many(dests[lo : lo + width])
                    if probe in block:
                        reach["serial"] = block[probe].reachable_count()

            serial.compute_many(dests[:width])  # allocator warm-up
            single_tput = _best_rate(n_dests, one_per_call)
            serial_tput = _best_rate(n_dests, block_per_call)

            with ParallelRoutingEngine(graph, n_workers=2) as engine:
                # pool spin-up outside the timed region (>= 2 dests, or the
                # engine takes the serial path and never starts the pool)
                engine.compute_many(dests[:2])
                assert engine.pool_live

                def pooled() -> None:
                    reach["pool"] = engine.compute_many(dests)[probe].reachable_count()

                pool_tput = _best_rate(n_dests, pooled)

            # same answers at every tier, whatever the substrate
            assert reach["pool"] == reach["serial"]

            rss = _peak_rss_mb()
            rows.append(
                (tier, len(graph), width, n_dests, single_tput, serial_tput, pool_tput, rss)
            )

        lines = [
            f"propagation throughput scale curve (tiers: {', '.join(tiers)})",
            f"  {'tier':>5} {'ASes':>7} {'block':>6} {'dests':>6} "
            f"{'block-1 d/s':>12} {'serial d/s':>11} {'pool d/s':>9} "
            f"{'full table s':>13} {'peak RSS MB':>12}",
        ]
        for tier, n_ases, width, n_dests, one_tput, s_tput, p_tput, rss in rows:
            lines.append(
                f"  {tier:>5} {n_ases:>7} {width:>6} {n_dests:>6} "
                f"{one_tput:>12.1f} {s_tput:>11.1f} {p_tput:>9.1f} "
                f"{n_ases / s_tput:>13.1f} {rss:>12.1f}"
            )
        lines.append(
            "  (full table s = one destination per AS at the serial rate; "
            "peak RSS is the process high-water mark after the tier)"
        )
        write_result(results_dir, "microbench_scale", "\n".join(lines))

        # per-destination cost must grow with topology size: each larger
        # tier's serial throughput is strictly below the previous tier's
        # (the gaps are ~3x or more, so this cannot flake on scheduler
        # noise).
        for prev, cur in zip(rows, rows[1:]):
            assert cur[5] < prev[5], (rows,)
