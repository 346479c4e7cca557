"""LRU semantics, stats, and bulk precomputation of :class:`RoutingCache`."""

import pytest

from repro.bgp.propagation import RoutingCache
from repro.errors import ConfigError
from repro.topology.generator import TopologyConfig, generate_topology


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=120, seed=3))


class TestLru:
    def test_eviction_order_is_least_recently_used(self, graph):
        cache = RoutingCache(graph, max_entries=3)
        cache(0), cache(1), cache(2)
        cache(0)  # refresh 0: eviction order is now 1, 2, 0
        cache(3)  # evicts 1
        assert 0 in cache and 2 in cache and 3 in cache
        assert 1 not in cache
        cache(4)  # evicts 2
        assert 2 not in cache and 0 in cache

    def test_hit_returns_same_object(self, graph):
        cache = RoutingCache(graph)
        assert cache(0) is cache(0)

    def test_unbounded_by_default(self, graph):
        cache = RoutingCache(graph)
        for d in range(10):
            cache(d)
        assert len(cache) == 10
        assert cache.stats.evictions == 0

    @pytest.mark.parametrize("max_entries", [0, -1])
    def test_capacity_below_one_rejected(self, graph, max_entries):
        # used to construct fine and then raise a bare StopIteration on the
        # first miss, evicting from an empty dict
        with pytest.raises(ConfigError, match="max_entries"):
            RoutingCache(graph, max_entries=max_entries, backend="array")


class TestStats:
    def test_counters(self, graph):
        cache = RoutingCache(graph, max_entries=2)
        cache(0)
        cache(0)
        cache(1)
        cache(2)  # evicts 0
        s = cache.stats
        assert (s.hits, s.misses, s.evictions) == (1, 3, 1)
        assert s.hit_rate == pytest.approx(0.25)

    def test_empty_hit_rate(self, graph):
        assert RoutingCache(graph).stats.hit_rate == 0.0


class TestBackends:
    def test_rejects_unknown_backend(self, graph):
        with pytest.raises(ConfigError):
            RoutingCache(graph, backend="fpga")

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_backends_agree(self, graph, backend):
        cache = RoutingCache(graph, backend=backend)
        r = cache(0)
        assert r.reachable_count() == len(graph)
        assert r.best_path(100)[-1] == 0

    def test_precompute_serial(self, graph):
        cache = RoutingCache(graph, backend="array")
        assert cache.precompute(range(5)) == 5
        assert len(cache) == 5
        # precomputation is capacity planning: no demand counters touched
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        cache(0)  # a hit, not a recompute
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_precompute_respects_max_entries(self, graph):
        cache = RoutingCache(graph, max_entries=3)
        cache.precompute(range(5))
        assert len(cache) == 3
        assert cache.stats.evictions == 2
