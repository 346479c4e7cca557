"""Converging a destination set: ``compute_routings`` on both backends,
and the serial ``ParallelRoutingEngine`` shim the benchmark harness still
constructs.

The contract: one call, one result per distinct destination, first-seen
order — including degenerate inputs (empty lists, duplicates, unknown
destinations) — and the shim's accepted-and-ignored knobs change nothing.
"""

import os

import pytest

from repro.bgp.parallel import ParallelRoutingEngine
from repro.bgp.propagation import DestinationRouting, RoutingCache, compute_routings
from repro.errors import ConfigError, TopologyError
from repro.topology.asgraph import ASGraph
from repro.topology.generator import TopologyConfig, generate_topology

BACKENDS = ("dict", "array")


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


def _state_bytes(routing_map):
    return {d: b"".join(a.tobytes() for a in v.state()) for d, v in routing_map.items()}


class TestFallbacks:
    def test_single_worker_equals_serial(self, graph):
        shim = ParallelRoutingEngine(graph, n_workers=1)
        expected = _snapshot(compute_routings(graph, DESTS, "array"), graph)
        assert _snapshot(shim.compute_many(DESTS), graph) == expected

    def test_dict_backend_is_always_serial(self, graph):
        engine = ParallelRoutingEngine(graph, n_workers=4, backend="dict")
        result = engine.compute_many(DESTS[:3])
        assert sorted(result) == DESTS[:3]
        assert all(isinstance(r, DestinationRouting) for r in result.values())
        assert result[0].best_path(100) == engine.compute(0).best_path(100)

    def test_empty_destination_list(self, graph):
        for backend in BACKENDS:
            assert compute_routings(graph, [], backend) == {}
            assert compute_routings(graph, iter(()), backend) == {}
        assert ParallelRoutingEngine(graph, n_workers=2).compute_many([]) == {}

    def test_duplicates_computed_once(self, graph):
        for backend in BACKENDS:
            result = compute_routings(graph, [8, 7, 7, 8, 7], backend)
            assert list(result) == [8, 7]  # first-seen order


class TestErrors:
    def test_missing_destination_raises(self, graph):
        for backend in BACKENDS:
            with pytest.raises(TopologyError, match="999999 not in graph"):
                compute_routings(graph, [0, 1, 999_999], backend)

    def test_rejects_unfrozen_graph(self):
        g = ASGraph()
        g.add_p2c(1, 0)
        for backend in BACKENDS:
            with pytest.raises(TopologyError, match="freeze"):
                compute_routings(g, [0], backend)

    def test_rejects_bad_knobs(self, graph):
        # any backend string but the two real ones used to fall through to
        # the dict oracle
        for backend in ("quantum", "arry", "Array", ""):
            with pytest.raises(ConfigError, match="unknown routing backend"):
                compute_routings(graph, [0], backend)
        with pytest.raises(ConfigError):
            ParallelRoutingEngine(graph, backend="quantum").compute_many([0])


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_identical_across_worker_counts(self, graph, workers):
        baseline = _snapshot(compute_routings(graph, DESTS, "array"), graph)
        engine = ParallelRoutingEngine(graph, n_workers=workers)
        assert _snapshot(engine.compute_many(DESTS), graph) == baseline


class TestBenchShim:
    """The call shapes ``bench/workloads/table_44k.py`` and ``probes.py`` use."""

    @staticmethod
    def _children():
        """Child pids of this process, where ``/proc`` lists them."""
        try:
            with open(f"/proc/self/task/{os.getpid()}/children", encoding="ascii") as fh:
                return fh.read().split()
        except OSError:
            return []

    def test_bench_call_shapes(self, graph):
        shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        children_before = self._children()
        engine = ParallelRoutingEngine(graph, n_workers=2, persistent=True)
        got = engine.compute_many(DESTS + DESTS[:5])
        assert _state_bytes(got) == _state_bytes(compute_routings(graph, DESTS, "array"))
        engine.close()
        engine.close()  # idempotent: nothing to release
        assert self._children() == children_before
        if os.path.isdir("/dev/shm"):
            assert set(os.listdir("/dev/shm")) == shm_before


class TestCacheIntegration:
    def test_precompute_through_engine(self, graph):
        cache = RoutingCache(graph, backend="array")
        engine = ParallelRoutingEngine(graph, n_workers=2)
        n = cache.precompute(DESTS[:10])
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
