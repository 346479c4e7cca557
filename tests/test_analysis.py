"""Tests for the what-if / explain diagnostics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import explain_path
from repro.bgp.propagation import RoutingCache
from repro.errors import LoopDetectedError, NoRouteError, ReproError
from repro.mifo.deflection import MifoPathBuilder
from tests.bgp.test_array_routing import hierarchies

BACKENDS = ("dict", "array")


@pytest.fixture
def builder(fig11_graph):
    return MifoPathBuilder(
        fig11_graph, RoutingCache(fig11_graph), frozenset(fig11_graph.nodes())
    )


def never(_u, _v):
    return False


def unit(_u, _v):
    return 1.0


class TestExplainPath:
    def test_matches_builder_walk(self, builder):
        congested = lambda u, v: (u, v) == (3, 4)
        spare = lambda u, v: 5.0
        explained = explain_path(builder, 1, 5, congested, spare)
        walked = builder.build_path(1, 5, congested, spare)
        assert explained.path == walked.path
        assert explained.deflections == walked.deflections

    def test_uncongested_narrative(self, builder):
        e = explain_path(builder, 1, 5, never, unit)
        assert e.path == (1, 3, 4, 5)
        assert e.deflections == 0
        text = e.describe()
        assert "follows the default path" in text
        assert "DEFLECTS" not in text

    def test_deflection_narrative_lists_candidates(self, builder):
        congested = lambda u, v: (u, v) == (3, 4)
        e = explain_path(builder, 1, 5, congested, unit)
        assert e.deflections == 1
        text = e.describe()
        assert "DEFLECTS to AS 6" in text
        assert "CHOSEN" in text
        hop3 = next(h for h in e.hops if h.asn == 3)
        assert hop3.default_congested
        assert hop3.deflected_to == 6
        assert any(c.chosen for c in hop3.candidates)

    def test_tag_check_verdict_surfaces(self, fig2a_graph):
        b = MifoPathBuilder(
            fig2a_graph,
            RoutingCache(fig2a_graph),
            frozenset(fig2a_graph.nodes()),
            deflect_uncongested_only=False,
        )
        congested = lambda u, v: v == 0
        # From AS 1's perspective the first deflection is legal (own
        # traffic); at the peer, the remaining peer candidate must be
        # reported as forbidden by Tag-Check.
        e = explain_path(b, 1, 0, congested, unit)
        text = e.describe()
        assert "forbidden by Tag-Check" in text

    def test_non_capable_hop_reported(self, fig11_graph):
        b = MifoPathBuilder(fig11_graph, RoutingCache(fig11_graph), frozenset({1}))
        congested = lambda u, v: (u, v) == (3, 4)
        e = explain_path(b, 1, 5, congested, unit)
        assert "not MIFO-capable" in e.describe()
        assert e.path == (1, 3, 4, 5)

    def test_no_route_raises(self):
        from repro.topology.asgraph import ASGraph

        g = ASGraph()
        g.add_p2c(1, 0)
        g.add_as(9)
        g.freeze()
        b = MifoPathBuilder(g, RoutingCache(g), frozenset(g.nodes()))
        with pytest.raises(NoRouteError):
            explain_path(b, 9, 0, never, unit)


class TestExplainMatchesTheWalk:
    """``explain_path`` stops where ``build_path`` stops and takes the
    choices it takes, on either backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tag_check_off_loop_raises_at_the_repeated_link(self, fig2a_graph, backend):
        # Every link into AS 0 congested and Tag-Check off: 1 deflects to
        # its peer 2, which deflects back to 1, which deflects to 2 again.
        b = MifoPathBuilder(
            fig2a_graph,
            RoutingCache(fig2a_graph, backend=backend),
            frozenset(fig2a_graph.nodes()),
            tag_check_enabled=False,
        )
        congested = lambda u, v: v == 0
        with pytest.raises(LoopDetectedError) as walked:
            b.build_path(1, 0, congested, unit)
        with pytest.raises(LoopDetectedError) as explained:
            explain_path(b, 1, 0, congested, unit)
        assert str(explained.value) == str(walked.value)
        assert explained.value.path == [1, 2, 1, 2]

    @given(
        g=hierarchies(),
        data=st.data(),
        backend=st.sampled_from(BACKENDS),
        alt_selection=st.sampled_from(["greedy", "first", "random"]),
        tag_check=st.booleans(),
        uncongested_only=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_path_and_deflections_equal_build_path(
        self, g, data, backend, alt_selection, tag_check, uncongested_only
    ):
        nodes = sorted(g.nodes())
        links = sorted((u, v) for u in nodes for v in g.neighbors(u))
        hot = frozenset(data.draw(st.lists(st.sampled_from(links), unique=True)) if links else [])
        spare = {link: float(data.draw(st.integers(0, 2))) for link in links}
        capable = frozenset(data.draw(st.lists(st.sampled_from(nodes), unique=True)))
        b = MifoPathBuilder(
            g,
            RoutingCache(g, backend=backend),
            capable,
            alt_selection=alt_selection,
            tag_check_enabled=tag_check,
            deflect_uncongested_only=uncongested_only,
        )
        congested = lambda u, v: (u, v) in hot
        spare_of = lambda u, v: spare[(u, v)]
        for dst in nodes:
            for src in nodes:
                try:
                    walked = b.build_path(src, dst, congested, spare_of)
                except ReproError as exc:
                    with pytest.raises(type(exc)) as explained:
                        explain_path(b, src, dst, congested, spare_of)
                    assert str(explained.value) == str(exc)
                    continue
                e = explain_path(b, src, dst, congested, spare_of)
                assert (e.path, e.deflections) == (walked.path, walked.deflections)
