"""Tests for the AS-level MIFO deflection walk — including the paper's
Theorem as an executable property, and its failure when Tag-Check is
ablated (the Fig-2(a) loop)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.propagation import RoutingCache
from repro.errors import LoopDetectedError
from repro.mifo.deflection import MifoPathBuilder
from repro.topology.relationships import Relationship

from ..conftest import as_graphs

C, P, R = Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER


def never_congested(_u, _v):
    return False


def unit_spare(_u, _v):
    return 1.0


class TestNoCongestion:
    def test_follows_default_path(self, fig11_graph):
        builder = MifoPathBuilder(
            fig11_graph, RoutingCache(fig11_graph), frozenset(fig11_graph.nodes())
        )
        out = builder.build_path(1, 5, never_congested, unit_spare)
        assert out.path == (1, 3, 4, 5)
        assert out.deflections == 0
        assert not out.used_alternative


class TestDeflection:
    def test_deflects_around_congested_core(self, fig11_graph):
        builder = MifoPathBuilder(
            fig11_graph, RoutingCache(fig11_graph), frozenset(fig11_graph.nodes())
        )
        congested = lambda u, v: (u, v) == (3, 4)
        out = builder.build_path(1, 5, congested, unit_spare)
        assert out.path == (1, 3, 6, 5)
        assert out.deflections == 1

    def test_non_capable_as_cannot_deflect(self, fig11_graph):
        builder = MifoPathBuilder(
            fig11_graph, RoutingCache(fig11_graph), frozenset({1, 2})  # AS3 not capable
        )
        congested = lambda u, v: (u, v) == (3, 4)
        out = builder.build_path(1, 5, congested, unit_spare)
        assert out.path == (1, 3, 4, 5)  # stuck with the congested default
        assert out.deflections == 0

    def test_greedy_picks_max_spare(self, fig2a_graph):
        builder = MifoPathBuilder(
            fig2a_graph, RoutingCache(fig2a_graph), frozenset(fig2a_graph.nodes())
        )
        congested = lambda u, v: (u, v) == (1, 0)
        spare = lambda u, v: {(1, 2): 10.0, (1, 3): 100.0}.get((u, v), 1.0)
        out = builder.build_path(1, 0, congested, spare)
        # Source deflects to the peer with more spare direct capacity.
        assert out.path == (1, 3, 0)

    def test_congested_alternative_avoided(self, fig2a_graph):
        builder = MifoPathBuilder(
            fig2a_graph, RoutingCache(fig2a_graph), frozenset(fig2a_graph.nodes())
        )
        congested = lambda u, v: (u, v) in {(1, 0), (1, 3)}
        spare = lambda u, v: 100.0 if (u, v) == (1, 3) else 1.0
        out = builder.build_path(1, 0, congested, spare)
        assert out.path == (1, 2, 0)

    def test_all_alternatives_congested_falls_back_to_default(self, fig2a_graph):
        builder = MifoPathBuilder(
            fig2a_graph, RoutingCache(fig2a_graph), frozenset(fig2a_graph.nodes())
        )
        out = builder.build_path(1, 0, lambda u, v: True, unit_spare)
        assert out.path == (1, 0)
        assert out.deflections == 0


class TestFig2aLoopStory:
    """The paper's central example: with the rule, no loop; without, loop."""

    def _builder(self, g, tag_check):
        return MifoPathBuilder(
            g,
            RoutingCache(g),
            frozenset(g.nodes()),
            tag_check_enabled=tag_check,
            deflect_uncongested_only=False,
        )

    def test_with_tag_check_packet_survives(self, fig2a_graph):
        # All direct links to AS 0 congested: every AS wants to deflect
        # clockwise, but Tag-Check stops peer->peer transit; the packet
        # falls back to the (congested) default at the transit AS.
        congested = lambda u, v: v == 0
        builder = self._builder(fig2a_graph, tag_check=True)
        out = builder.build_path(1, 0, congested, unit_spare)
        # Source deflects to a peer (allowed: own traffic); the peer may
        # not deflect to the third peer, so it delivers via its own
        # (congested) direct link.
        assert out.path[0] == 1 and out.path[-1] == 0
        assert len(out.path) <= 4

    def test_without_tag_check_loops(self, fig2a_graph):
        congested = lambda u, v: v == 0
        builder = self._builder(fig2a_graph, tag_check=False)
        with pytest.raises(LoopDetectedError):
            builder.build_path(1, 0, congested, unit_spare)


class TestTheorem:
    """Paper Theorem (Section III-A3), executable form: under arbitrary
    congestion, arbitrary deployment and arbitrary (seeded) greedy
    choices, the MIFO walk always terminates at the destination without
    repeating a directed link — on both routing backends, whose walks
    differ (the array walk reads dense rows)."""

    @given(
        g=as_graphs(max_nodes=10),
        congestion_seed=st.integers(0, 2**16),
        deployment_seed=st.integers(0, 2**16),
        src=st.integers(0, 9),
        dst=st.integers(0, 9),
    )
    @settings(max_examples=120, deadline=None)
    def test_loop_free_under_any_congestion(
        self, g, congestion_seed, deployment_seed, src, dst
    ):
        n = len(g)
        src, dst = src % n, dst % n
        if src == dst:
            return
        import numpy as np

        crng = np.random.default_rng(congestion_seed)
        congested_links = {
            (u, v)
            for u in g.nodes()
            for v in g.neighbors(u)
            if crng.random() < 0.4
        }
        drng = np.random.default_rng(deployment_seed)
        capable = frozenset(
            int(x) for x in drng.choice(list(g.nodes()), size=max(1, n // 2), replace=False)
        )
        for backend in ("dict", "array"):
            builder = MifoPathBuilder(g, RoutingCache(g, backend=backend), capable)
            routing = builder.routing(dst)
            if not routing.has_route(src):
                return
            out = builder.build_path(
                src,
                dst,
                lambda u, v: (u, v) in congested_links,
                lambda u, v: float((u * 31 + v) % 97),
            )
            assert out.path[0] == src and out.path[-1] == dst
            links = list(zip(out.path, out.path[1:]))
            assert len(set(links)) == len(links), f"repeated link in {out.path}"
            # Walks may revisit at most one node once (up-leg + down-leg).
            assert len(out.path) <= 2 * n
