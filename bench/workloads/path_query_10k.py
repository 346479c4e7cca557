"""``path_query_10k`` — the *read* side of routing state.

Set-up builds the 10,000-AS graph and pre-converges 150 destinations, so
propagation is in ``setup_s``.  One round (= one operation) answers a block
of 200 queries spread over the next 10 destinations of the cycle:
``MifoPathBuilder.build_path`` from seeded sources under a seeded hash
predicate that marks half of the links congested (every AS capable), then
``metrics.diversity.diversity_counts`` on 13 of the block's pairs.  A view
layout that converges faster but answers ``rib``/``next_hop`` slower shows
here and not in ``table_44k``.

``--seed`` draws the sources and salts the congestion predicate; the 150
destinations are a fixed draw and every block mixes ten of them, because the
cost of a destination is heavy-tailed (the diversity count explodes toward
well-connected ASes): 150 fresh destinations a run moved the throughput by
8 % between seeds, and one destination per block put the 99th percentile on
the edge of the few expensive ones (23 to 36 ms from seed to seed).
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns

import numpy as np

from bench.harness import Check, digest
from bench.trace import TracedRouting
from bench.workloads import TOPOLOGY_SEED, SpanTable, build_graph, ratio, setup_layers
from bench.workloads.probes import pool_probe, view_bytes_probe
from repro.bgp.propagation import RoutingCache
from repro.metrics.diversity import diversity_counts
from repro.mifo.deflection import MifoPathBuilder
from repro.miro.negotiation import MiroRouting
from repro.topology.relationships import Relationship

_MASK = (1 << 64) - 1


class PathQuery10k:
    name = "path_query_10k"
    unit = "paths/s"
    why = (
        "build_path + diversity counts over pre-converged views: the bgp layer read "
        "(rib, next_hop, alternatives), where a pure-propagation change predicts no change"
    )
    setup_reps = 5
    sizes = {
        "full": {"n_ases": 10_000, "n_dests": 150, "mix": 10, "paths": 200, "pairs": 13,
                 "probe_nodes": 100, "rounds": 750},
        "smoke": {"n_ases": 1_000, "n_dests": 12, "mix": 4, "paths": 40, "pairs": 4,
                  "probe_nodes": 20, "rounds": 3},
    }

    def __init__(self, seed: int, size: dict, tr) -> None:
        self.size = size
        self.seed = seed
        self.graph = build_graph(size["n_ases"], tr)
        self.nodes = np.fromiter(self.graph.nodes(), dtype=np.int64)
        self.dests = (
            np.random.default_rng(TOPOLOGY_SEED)
            .choice(self.nodes, size=size["n_dests"], replace=False)
            .tolist()
        )
        self.rng = np.random.default_rng(seed)
        self.cache = RoutingCache(self.graph, backend="array")
        with tr.span("bgp.propagate", "bgp"):
            self.cache.precompute(self.dests)
        capable = frozenset(self.graph.nodes())
        self.routing = TracedRouting(self.cache, tr) if tr.enabled else self.cache
        self.builder = MifoPathBuilder(self.graph, self.routing, capable)
        self.miro = MiroRouting(self.graph, self.routing, capable)
        self.capable = capable
        # seeded hash predicate: half of the directed links are congested
        salt = (seed * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & _MASK

        def congested(u: int, v: int) -> bool:
            return (((u * 0x9E3779B1) ^ (v * 0x85EBCA77) ^ salt) * 0xC2B2AE3D >> 17) & 1 == 1

        def spare(u: int, v: int) -> float:
            return float(((u * 31 + v * 17) ^ salt) % 1000)

        self.congested = congested
        self.spare = spare
        self.deflections = 0
        self.diversity_pairs = 0
        #: (src, dst, path) of the first cycle over the destinations, for the check.
        self.kept: list[tuple[int, int, tuple[int, ...]]] = []
        self.first: tuple = ()

    def round(self, r: int, rec, tr) -> None:
        mix, n_dests = self.size["mix"], len(self.dests)
        dsts = [self.dests[(r * mix + j) % n_dests] for j in range(mix)]
        sources = self.rng.choice(self.nodes, size=(mix, self.size["paths"] // mix)).tolist()
        queries = [(src, dst) for dst, row in zip(dsts, sources) for src in row if src != dst]
        pairs = queries[:: len(queries) // self.size["pairs"]][: self.size["pairs"]]
        build = self.builder.build_path
        congested, spare = self.congested, self.spare
        t0 = perf_counter_ns()
        if tr.enabled:
            outcomes = []
            for src, dst in queries:
                with tr.span("mifo.deflect", "mifo"):
                    outcomes.append(build(src, dst, congested, spare))
        else:
            outcomes = [build(src, dst, congested, spare) for src, dst in queries]
        with tr.span("metrics.diversity", "metrics"):
            counts = diversity_counts(
                self.graph, self.routing, pairs, mifo_capable=self.capable, miro_routing=self.miro
            )
        rec.lat_ns.append(perf_counter_ns() - t0)
        rec.units += len(outcomes)
        self.deflections += sum(o.deflections for o in outcomes)
        self.diversity_pairs += len(pairs)
        if r * mix < n_dests:  # the first cycle over the destinations
            self.kept.extend((src, dst, o.path) for (src, dst), o in zip(queries, outcomes))
        if r == 0:
            self.first = ([o.path for o in outcomes], tuple(counts[0]), tuple(counts[1]))

    def check(self) -> Check:
        failures = bad_paths(self.graph, self.kept)
        return Check(len(self.kept), failures, digest(self.first))

    def layers(self, tr, rec) -> dict[str, float]:
        run = SpanTable(tr, "bench.run")
        setup = SpanTable(tr, "bench.setup")
        stats = self.cache.stats
        out = setup_layers(tr, self.graph)
        lazy = run.total("bgp.propagate")
        out.update(
            {
                "bgp.propagate_s": setup.total("bgp.propagate") + lazy,
                "bgp.dests_converged": len(self.cache),
                "bgp.us_per_dest": ratio(setup.total("bgp.propagate") * 1e6, len(self.dests)),
                "bgp.cache_hits": stats.hits,
                "bgp.cache_misses": stats.misses,
                "bgp.hit_ratio": stats.hit_rate,
                "bgp.view_bytes": view_bytes_probe(self.graph, self.dests),
                "mifo.deflect_s": run.total("mifo.deflect"),
                "mifo.paths_built": rec.units,
                "mifo.deflections": self.deflections,
                "mifo.deflect_ratio": ratio(self.deflections, rec.units),
                "mifo.us_per_path": ratio(run.total("mifo.deflect") * 1e6, rec.units),
                "metrics.compute_s": run.total("metrics.diversity"),
                "metrics.diversity_pairs": self.diversity_pairs,
            }
        )
        out.update(self._query_probe())
        out.update(pool_probe(self.graph, self.dests, tr))
        return out

    def _query_probe(self) -> dict[str, float]:
        """Direct read loop over the converged views, six queries a node."""
        rng = np.random.default_rng(self.seed + 1)
        nodes = rng.choice(self.nodes, size=self.size["probe_nodes"]).tolist()
        queries = 0
        t0 = perf_counter()
        for dst in self.dests:
            view = self.cache(dst)
            for x in nodes:
                if x == dst or not view.has_route(x):
                    queries += 1
                    continue
                view.next_hop(x)
                view.best_class(x)
                view.rib(x)
                view.alternatives(x)
                view.best_path(x)
                queries += 6
        elapsed = perf_counter() - t0
        return {
            "bgp.query_s": elapsed,
            "bgp.queries": queries,
            "bgp.ns_per_query": ratio(elapsed * 1e9, queries),
        }


def bad_paths(graph, records: list[tuple[int, int, tuple[int, ...]]]) -> list[str]:
    """Paths that do not run src -> dst, repeat a directed link, or are not
    valley-free (``up* peer? down*``) by an independent walk over
    ``graph.relationship``."""
    failures = []
    for src, dst, path in records:
        problem = _path_problem(graph, src, dst, path)
        if problem:
            failures.append(f"{src}->{dst}: {problem}: {path}")
    return failures


def _path_problem(graph, src: int, dst: int, path: tuple[int, ...]) -> str | None:
    if not path or path[0] != src or path[-1] != dst:
        return "does not run from src to dst"
    seen = set()
    descending = False
    for u, v in zip(path, path[1:]):
        if (u, v) in seen:
            return "repeats a directed link"
        seen.add((u, v))
        if not graph.are_adjacent(u, v):
            return "uses a link the graph does not have"
        rel = graph.relationship(u, v)  # of v, seen from u
        if descending and rel is not Relationship.CUSTOMER:
            return "has a valley"
        if rel is not Relationship.PROVIDER:
            descending = True
    return None
