"""Edge cases of the parallel routing engine.

The contract: worker count changes wall-clock, never results — including
degenerate inputs (empty destination lists, unknown destinations) and the
serial fallback.
"""

import pytest

from repro.bgp.parallel import ParallelRoutingEngine, resolve_workers
from repro.bgp.propagation import RoutingCache
from repro.errors import ConfigError, TopologyError
from repro.topology.asgraph import ASGraph
from repro.topology.generator import TopologyConfig, generate_topology


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=200, seed=5))


DESTS = list(range(0, 30))


def _snapshot(routing_map, graph, probes=(3, 50, 199)):
    """A comparable digest of every destination's converged state."""
    out = {}
    for dest, r in sorted(routing_map.items()):
        out[dest] = tuple(
            (r.best_path(x), r.rib(x)) for x in probes if r.has_route(x)
        ) + (r.reachable_count(),)
    return out


class TestFallbacks:
    def test_single_worker_equals_serial(self, graph):
        serial = ParallelRoutingEngine(graph, n_workers=1)
        assert serial.effective_workers == 1
        expected = _snapshot(serial.compute_many(DESTS), graph)
        with ParallelRoutingEngine(graph, n_workers=2) as pooled:
            assert _snapshot(pooled.compute_many(DESTS), graph) == expected

    def test_dict_backend_is_always_serial(self, graph):
        engine = ParallelRoutingEngine(graph, n_workers=4, backend="dict")
        assert engine.effective_workers == 1
        result = engine.compute_many(DESTS[:3])
        assert sorted(result) == DESTS[:3]
        assert result[0].best_path(100) == engine.compute(0).best_path(100)

    def test_empty_destination_list(self, graph):
        engine = ParallelRoutingEngine(graph, n_workers=2)
        assert engine.compute_many([]) == {}
        assert engine.compute_many(iter(())) == {}

    def test_duplicates_computed_once(self, graph):
        engine = ParallelRoutingEngine(graph, n_workers=1)
        result = engine.compute_many([7, 7, 7, 8])
        assert sorted(result) == [7, 8]


class TestErrors:
    def test_missing_destination_raises_from_worker(self, graph):
        for workers in (1, 2):
            engine = ParallelRoutingEngine(graph, n_workers=workers)
            with pytest.raises(TopologyError):
                engine.compute_many([0, 1, 999_999])

    def test_rejects_unfrozen_graph(self):
        g = ASGraph()
        g.add_p2c(1, 0)
        with pytest.raises(TopologyError, match="freeze"):
            ParallelRoutingEngine(g)

    def test_rejects_bad_knobs(self, graph):
        with pytest.raises(ConfigError):
            ParallelRoutingEngine(graph, backend="quantum")
        with pytest.raises(ConfigError):
            ParallelRoutingEngine(graph, n_workers=0)
        with pytest.raises(ConfigError):
            resolve_workers(-3)


class TestDeterminism:
    # 30 destinations at ~4 chunks per worker: 2 workers cut chunks of 4,
    # 3 workers chunks of 3, so the two cases shard differently.
    @pytest.mark.parametrize("workers", [2, 3])
    def test_identical_across_worker_counts(self, graph, workers):
        baseline = _snapshot(
            ParallelRoutingEngine(graph, n_workers=1).compute_many(DESTS), graph
        )
        with ParallelRoutingEngine(graph, n_workers=workers) as engine:
            assert _snapshot(engine.compute_many(DESTS), graph) == baseline


class TestCacheIntegration:
    def test_precompute_through_engine(self, graph):
        cache = RoutingCache(graph, backend="array")
        with ParallelRoutingEngine(graph, n_workers=2) as engine:
            n = cache.precompute(DESTS[:10], engine=engine)
        assert n == 10
        assert len(cache) == 10
        # precomputation is capacity planning: no demand counters touched
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        before = cache.stats
        r = cache(DESTS[0])  # a hit, not a recompute
        assert cache.stats.hits == before.hits + 1
        assert r.best_path(150) == engine.compute(DESTS[0]).best_path(150)

    def test_precompute_skips_cached(self, graph):
        cache = RoutingCache(graph, backend="array")
        assert cache.precompute([1, 2]) == 2
        assert cache.precompute([1, 2, 3]) == 1
