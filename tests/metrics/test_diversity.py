"""Tests for the Fig-7 path-diversity count (a memoised DFS)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.propagation import RoutingCache
from repro.errors import LoopDetectedError, NoRouteError
from repro.metrics.diversity import (
    count_bgp_paths,
    count_mifo_paths,
    diversity_counts,
)
from repro.mifo.tag import check_bit
from repro.miro.negotiation import MiroRouting
from repro.topology.relationships import Relationship

from ..bgp.test_array_routing import hierarchies
from ..conftest import as_graphs


class TestBgpCount:
    def test_route_exists(self, fig2a_graph):
        rc = RoutingCache(fig2a_graph)
        assert count_bgp_paths(rc, 1, 0) == 1

    def test_no_route(self):
        from repro.topology.asgraph import ASGraph

        g = ASGraph()
        g.add_p2c(1, 0)
        g.add_as(9)
        g.freeze()
        assert count_bgp_paths(RoutingCache(g), 9, 0) == 0


class TestMifoCount:
    def test_fig2a_full_deployment(self, fig2a_graph):
        rc = RoutingCache(fig2a_graph)
        capable = frozenset(fig2a_graph.nodes())
        # From AS 1 toward AS 0: direct (1,0); via each peer that then
        # goes direct ((1,2,0), (1,3,0)).  The peers may NOT deflect
        # onward (Tag-Check: arrived from peer).
        assert count_mifo_paths(fig2a_graph, rc, capable, 1, 0) == 3

    def test_no_deployment_equals_bgp(self, fig2a_graph):
        rc = RoutingCache(fig2a_graph)
        assert count_mifo_paths(fig2a_graph, rc, frozenset(), 1, 0) == 1

    def test_fig11(self, fig11_graph):
        rc = RoutingCache(fig11_graph)
        capable = frozenset(fig11_graph.nodes())
        # 1 -> 3 -> {4,6} -> 5: two paths (AS 1 has a single provider).
        assert count_mifo_paths(fig11_graph, rc, capable, 1, 5) == 2

    def test_partial_deployment_monotone(self, fig11_graph):
        rc = RoutingCache(fig11_graph)
        with_3 = count_mifo_paths(fig11_graph, rc, frozenset({3}), 1, 5)
        without = count_mifo_paths(fig11_graph, rc, frozenset(), 1, 5)
        assert with_3 >= without

    def test_no_route_raises(self):
        from repro.topology.asgraph import ASGraph

        g = ASGraph()
        g.add_p2c(1, 0)
        g.add_as(9)
        g.freeze()
        with pytest.raises(NoRouteError):
            count_mifo_paths(g, RoutingCache(g), frozenset(), 9, 0)

    def test_max_count_clamps(self, small_internet):
        rc = RoutingCache(small_internet)
        capable = frozenset(small_internet.nodes())
        n = count_mifo_paths(small_internet, rc, capable, 150, 0, max_count=3)
        assert n <= 3 * 4  # clamped per node; result stays small

    @given(g=as_graphs(max_nodes=9), seed=st.integers(0, 999))
    @settings(max_examples=50, deadline=None)
    def test_count_at_least_bgp_and_terminates(self, g, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        nodes = list(g.nodes())
        src, dst = rng.choice(nodes, size=2, replace=False)
        src, dst = int(src), int(dst)
        rc = RoutingCache(g, backend="dict")
        if not rc(dst).has_route(src):
            return
        capable = frozenset(
            int(x) for x in rng.choice(nodes, size=len(nodes) // 2 + 1, replace=False)
        )
        n = count_mifo_paths(g, rc, capable, src, dst)
        assert n >= 1  # at least the default path
        assert n == _reference_count(g, rc, capable, src, dst)
        array = RoutingCache(g, backend="array")
        assert count_mifo_paths(g, array, capable, src, dst) == n

    @given(g=as_graphs(max_nodes=9))
    @settings(max_examples=40, deadline=None)
    def test_full_deployment_dominates_partial(self, g):
        rc = RoutingCache(g)
        nodes = sorted(g.nodes())
        src, dst = nodes[-1], nodes[0]
        if src == dst or not rc(dst).has_route(src):
            return
        full = count_mifo_paths(g, rc, frozenset(nodes), src, dst)
        half = count_mifo_paths(g, rc, frozenset(nodes[: len(nodes) // 2]), src, dst)
        assert full >= half


class TestCountsAcrossBackends:
    """Fig. 7's count is one search over either backend's view: on an
    array view it equals the dict oracle's, loops included."""

    @given(
        g=hierarchies(),
        data=st.data(),
        max_count=st.sampled_from([None, 1, 2, 3, 10]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_pair(self, g, data, max_count):
        nodes = sorted(g.nodes())
        capable = frozenset(data.draw(st.lists(st.sampled_from(nodes), unique=True)))
        oracle, array = RoutingCache(g, backend="dict"), RoutingCache(g, backend="array")
        for dst in nodes:
            for src in nodes:
                if not oracle(dst).has_route(src):
                    with pytest.raises(NoRouteError):
                        count_mifo_paths(g, array, capable, src, dst)
                    continue
                want = count_mifo_paths(g, oracle, capable, src, dst, max_count=max_count)
                got = count_mifo_paths(g, array, capable, src, dst, max_count=max_count)
                assert got == want, (src, dst)

    def test_seeded_internet(self, small_internet):
        nodes = sorted(small_internet.nodes())
        capable = frozenset(nodes[::2])
        oracle = RoutingCache(small_internet, backend="dict")
        array = RoutingCache(small_internet, backend="array")
        pairs = [(nodes[-1 - k], nodes[k]) for k in range(0, 60, 3)]
        want = [count_mifo_paths(small_internet, oracle, capable, s, t) for s, t in pairs]
        got = [count_mifo_paths(small_internet, array, capable, s, t) for s, t in pairs]
        assert got == want
        assert max(want) > 1  # the deflection moves are exercised

    def test_provider_ring_is_a_loop_not_a_recursion_error(self):
        # 5 > 16, 24 > 16 and the provider ring 34 > 5 > 24 > 34: from 5,
        # Tag-Check lets the packet climb the ring with its bit kept, so
        # the walks never end.  Both backends' searches name the loop.
        from repro.topology.asgraph import ASGraph

        g = ASGraph()
        for p, c in [(5, 16), (5, 24), (34, 5), (24, 16), (34, 16), (24, 34)]:
            g.add_p2c(p, c)
        g.freeze(require_acyclic_hierarchy=False)
        capable = frozenset(g.nodes())
        for backend in ("dict", "array"):
            with pytest.raises(LoopDetectedError, match="forwarding loop detected") as exc:
                count_mifo_paths(g, RoutingCache(g, backend=backend), capable, 5, 16)
            ring = exc.value.path
            assert ring[0] == ring[-1] and set(ring) <= {5, 24, 34}, backend

    @given(g=hierarchies(cyclic=True), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cyclic_hierarchies(self, g, data):
        # Equal counts, or a LoopDetectedError naming the same ring from
        # both backends.
        nodes = sorted(g.nodes())
        capable = frozenset(data.draw(st.lists(st.sampled_from(nodes), unique=True)))

        def outcome(cache, src, dst):
            try:
                return count_mifo_paths(g, cache, capable, src, dst)
            except LoopDetectedError as exc:
                return exc.path

        oracle, array = RoutingCache(g, backend="dict"), RoutingCache(g, backend="array")
        for dst in nodes:
            for src in nodes:
                if oracle(dst).has_route(src):
                    want = outcome(oracle, src, dst)
                    assert outcome(array, src, dst) == want, (src, dst)


class TestDiversityCounts:
    def test_joint_series(self, small_internet):
        rc = RoutingCache(small_internet, backend="dict")
        capable = frozenset(small_internet.nodes())
        miro = MiroRouting(small_internet, rc, capable)
        pairs = [(10, 0), (20, 0), (30, 0)]
        mifo_counts, miro_counts = diversity_counts(
            small_internet, rc, pairs, mifo_capable=capable, miro_routing=miro
        )
        assert len(mifo_counts) == len(miro_counts) == 3
        # MIFO's multiplicative diversity dominates MIRO's bounded list.
        assert sum(mifo_counts) >= sum(miro_counts)
        array = RoutingCache(small_internet, backend="array")
        assert diversity_counts(
            small_internet,
            array,
            pairs,
            mifo_capable=capable,
            miro_routing=MiroRouting(small_internet, array, capable),
        ) == (mifo_counts, miro_counts)


def _reference_count(graph, routing_cache, capable, src, dst):
    """The count with every tag bit read off ``graph.relationship`` instead
    of the routing view: the bit on entering ``v`` from ``u`` is set iff
    ``u`` is ``v``'s customer."""
    routing = routing_cache(dst)

    def visit(u, bit):
        if u == dst:
            return 1
        default_nh = routing.next_hop(u)
        moves = [default_nh]
        if u in capable:
            moves += [
                e.neighbor
                for e in routing.rib(u)
                if e.neighbor != default_nh and check_bit(bit, e.relationship)
            ]
        return sum(
            visit(v, graph.relationship(v, u) is Relationship.CUSTOMER) for v in moves
        )

    return visit(src, True)
