"""``table_44k`` — the paper-scale *write* side of routing state.

Set-up generates the 44,340-AS topology.  One round converges one block of
seeded-random destinations through ``ParallelRoutingEngine(n_workers=1)``,
sums ``reachable_count()`` and drops the views — the full-table loop of
``docs/scaling.md`` — so the per-destination propagation loop is all there
is, and the views a block holds set the peak RSS.  One operation is one block.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from bench.harness import Check, digest
from bench.workloads import SpanTable, build_graph, ratio, setup_layers
from bench.workloads.probes import pool_probe, view_bytes_probe
from repro.bgp.parallel import ParallelRoutingEngine
from repro.bgp.propagation import compute_routing

#: destinations of block 0 re-converged with the dict oracle by the check.
N_ORACLE = 5


class Table44k:
    name = "table_44k"
    unit = "dests/s"
    why = (
        "per-destination propagation at the paper's 44,340 ASes: the write side of "
        "routing state, where a batched converge_csr shows and views set peak RSS"
    )
    setup_reps = 3
    sizes = {
        "full": {"n_ases": 44_340, "block": 25, "max_blocks": 400, "probe_dests": 50, "rounds": 25},
        "smoke": {"n_ases": 1_500, "block": 5, "max_blocks": 40, "probe_dests": 10, "rounds": 2},
    }

    def __init__(self, seed: int, size: dict, tr) -> None:
        self.graph = build_graph(size["n_ases"], tr)
        rng = np.random.default_rng(seed)
        nodes = np.fromiter(self.graph.nodes(), dtype=np.int64)
        self.blocks = [
            rng.choice(nodes, size=size["block"], replace=False).tolist()
            for _ in range(size["max_blocks"])
        ]
        self.probe_dests = rng.choice(nodes, size=size["probe_dests"], replace=False).tolist()
        self.max_rounds = size["max_blocks"]
        self.engine = ParallelRoutingEngine(self.graph, n_workers=1)
        self.reachable = 0
        self.sample: list = []

    def round(self, r: int, rec, tr) -> None:
        block = self.blocks[r]
        t0 = perf_counter_ns()
        with tr.span("bgp.propagate", "bgp"):
            views = self.engine.compute_many(block)
            reachable = sum(view.reachable_count() for view in views.values())
        rec.lat_ns.append(perf_counter_ns() - t0)
        rec.units += len(views)
        self.reachable += reachable
        if r == 0:
            self.sample = [(dest, views[dest]) for dest in block[:N_ORACLE]]
            self.first_reachable = reachable

    def check(self) -> Check:
        failures = []
        summary = []
        for dest, view in self.sample:
            bad = oracle_mismatches(self.graph, dest, view)
            if bad:
                failures.append(f"dest {dest}: {bad} ASes differ from the dict oracle")
            summary.append((dest, view.reachable_count()))
        return Check(len(self.sample), failures, digest(self.first_reachable, summary))

    def layers(self, tr, rec) -> dict[str, float]:
        run = SpanTable(tr, "bench.run")
        out = setup_layers(tr, self.graph)
        out.update(
            {
                "bgp.propagate_s": run.total("bgp.propagate"),
                "bgp.dests_converged": rec.units,
                "bgp.us_per_dest": ratio(run.total("bgp.propagate") * 1e6, rec.units),
                "bgp.view_bytes": view_bytes_probe(self.graph, self.probe_dests),
            }
        )
        out.update(pool_probe(self.graph, self.probe_dests, tr))
        return out


def oracle_mismatches(graph, dest: int, view) -> int:
    """ASes whose ``next_hop``/``best_class`` differ from the dict oracle's."""
    oracle = compute_routing(graph, dest)
    return sum(
        1
        for x in graph.nodes()
        if view.next_hop(x) != oracle.next_hop(x) or view.best_class(x) != oracle.best_class(x)
    )
