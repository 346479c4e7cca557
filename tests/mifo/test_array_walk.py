"""The MIFO walk over an array view against the dict-view walk (the oracle).

``MifoPathBuilder.build_path`` walks an array view in dense indices; the
dict walk is unchanged and stays the reference.  Everything a caller or a
trace consumer can observe must be equal: the outcome (or the error and
its text), the ``deflection`` / ``tagcheck_drop`` events field by field
and in order — ``crosscheck_trace`` and the verify gate read them — and
the ``mifo.path_hops`` histogram.  A corrupted array view must raise a
typed ``RoutingError``, never an ``IndexError`` or a wrong path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry as tm
from repro.bgp.array_routing import ArrayDestinationRouting, compute_array_routing
from repro.bgp.propagation import RoutingCache
from repro.errors import ReproError, RoutingError
from repro.metrics.diversity import count_mifo_paths
from repro.mifo.deflection import MifoPathBuilder
from repro.topology.asgraph import ASGraph
from repro.topology.generator import TopologyConfig, generate_topology
from tests.bgp.test_array_routing import hierarchies


@pytest.fixture(autouse=True)
def _clean_sink():
    prev = tm.active()
    tm.activate(None)
    yield
    tm.activate(prev)


def _links(g):
    return sorted((u, v) for u in g.nodes() for v in g.neighbors(u))


def _walk_all(g, backend, capable, congested_links, spare_of, warm=(), **knobs):
    """Every (src, dst) walk on one backend, with telemetry on: the
    outcomes (or error type and text), the MIFO events and the hop
    histogram.  The RIBs of the ASes in ``warm`` are read first, so an
    array view holds them and a congested pick there filters the cached
    RIB instead of scanning."""
    t = tm.Telemetry()
    tm.activate(t)
    try:
        cache = RoutingCache(g, backend=backend)
        builder = MifoPathBuilder(g, cache, capable, **knobs)
        outcomes = []
        for dst in sorted(g.nodes()):
            for x in warm:
                cache(dst).rib(x)
            for src in sorted(g.nodes()):
                try:
                    outcomes.append(
                        builder.build_path(
                            src,
                            dst,
                            lambda u, v: (u, v) in congested_links,
                            lambda u, v: spare_of[(u, v)],
                        )
                    )
                except ReproError as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
    finally:
        tm.activate(None)
    events = [e for e in t.trace_events() if e["kind"] in ("deflection", "tagcheck_drop")]
    snap = t.snapshot()
    counters = {k: v for k, v in snap.counters.items() if k.startswith("mifo.")}
    return outcomes, events, snap.histograms.get("mifo.path_hops"), counters


def _draw_setting(data, g):
    links = _links(g)
    hot = data.draw(st.lists(st.booleans(), min_size=len(links), max_size=len(links)))
    congested = frozenset(link for link, h in zip(links, hot) if h)
    # a spare range of three values: ties are common, broken by lowest AS
    spare = {link: float(data.draw(st.integers(0, 2))) for link in links}
    nodes = sorted(g.nodes())
    capable = frozenset(data.draw(st.lists(st.sampled_from(nodes), unique=True)))
    warm = data.draw(st.lists(st.sampled_from(nodes), unique=True))
    return congested, spare, capable, warm


KNOBS = st.fixed_dictionaries(
    {
        "alt_selection": st.sampled_from(["greedy", "first", "random"]),
        "tag_check_enabled": st.booleans(),
        "deflect_uncongested_only": st.booleans(),
    }
)


class TestArrayWalkMatchesOracle:
    @given(g=hierarchies(), data=st.data(), knobs=KNOBS)
    @settings(max_examples=150, deadline=None)
    def test_acyclic_hierarchies(self, g, data, knobs):
        congested, spare, capable, warm = _draw_setting(data, g)
        array = _walk_all(g, "array", capable, congested, spare, warm, **knobs)
        oracle = _walk_all(g, "dict", capable, congested, spare, warm, **knobs)
        assert array == oracle

    @given(g=hierarchies(cyclic=True), data=st.data(), knobs=KNOBS)
    @settings(max_examples=100, deadline=None)
    def test_cyclic_hierarchies(self, g, data, knobs):
        congested, spare, capable, warm = _draw_setting(data, g)
        array = _walk_all(g, "array", capable, congested, spare, warm, **knobs)
        oracle = _walk_all(g, "dict", capable, congested, spare, warm, **knobs)
        assert array == oracle

    def test_seeded_internet_with_events(self):
        # A 150-AS graph where walks deflect, Tag-Check drops candidates
        # and both event kinds occur: the equality is not vacuous.
        g = generate_topology(TopologyConfig(n_ases=150, seed=11))
        links = _links(g)
        congested = frozenset(link for link in links if sum(link) % 3 == 0)
        spare = {(u, v): float((u * 31 + v) % 7) for u, v in links}
        capable = frozenset(g.nodes())
        knobs = {"deflect_uncongested_only": False}
        oracle = _walk_all(g, "dict", capable, congested, spare, **knobs)
        kinds = {e["kind"] for e in oracle[1]}
        assert kinds == {"deflection", "tagcheck_drop"}
        # cold views scan every pick; warm ones filter cached RIBs, at
        # every other AS
        for warm in ((), sorted(g.nodes())[::2]):
            assert _walk_all(g, "array", capable, congested, spare, warm, **knobs) == oracle


# ---------------------------------------------------------------------------
# corrupted array state: typed errors, never a wrap or a wrong path
# ---------------------------------------------------------------------------
def _rewritten(view, column, asn, value):
    """``view`` rebuilt with one cell of one state row rewritten."""
    state = [a.copy() for a in view.state()]
    state[column][view.csr.index[asn]] = value
    return ArrayDestinationRouting.from_state(view.graph, view.dest, tuple(state))


class _Fixed:
    """A routing source that serves one view."""

    def __init__(self, view):
        self.view = view

    def __call__(self, dest):
        assert dest == self.view.dest
        return self.view


@pytest.fixture(scope="module")
def corrupt_setting():
    g = generate_topology(TopologyConfig(n_ases=150, seed=11))
    dest = sorted(g.nodes())[0]
    view = compute_array_routing(g, dest)
    # a two-hop default path src -> victim -> dest
    for src in sorted(g.nodes()):
        if src != dest and view.has_route(src) and len(view.best_path(src)) == 3:
            return g, view, src, view.best_path(src)[1]
    pytest.skip("topology has no two-hop default path")


def _queries(g, view):
    builder = MifoPathBuilder(g, _Fixed(view), frozenset(g.nodes()))
    return (
        lambda src: builder.build_path(src, view.dest, lambda u, v: False, lambda u, v: 1.0),
        lambda src: builder.build_path(src, view.dest, lambda u, v: True, lambda u, v: 1.0),
        lambda src: count_mifo_paths(g, _Fixed(view), frozenset(g.nodes()), src, view.dest),
    )


def _assert_refused(g, bad, src, match):
    """Both walks raise ``match``; the count — which reads every RIB on
    its way and may meet the bad cell in a loop filter first — some
    inconsistent-state error."""
    walk, congested_walk, count = _queries(g, bad)
    for query in (walk, congested_walk):
        with pytest.raises(RoutingError, match=match):
            query(src)
    with pytest.raises(RoutingError, match="inconsistent routing state"):
        count(src)


class TestCorruptedArrayState:
    @pytest.mark.parametrize("cell", [-1, 10**6], ids=["sentinel", "past-the-end"])
    def test_next_hop_outside_the_index(self, corrupt_setting, cell):
        g, view, src, victim = corrupt_setting
        _assert_refused(g, _rewritten(view, 4, victim, cell), src, "no next hop")

    def test_next_hop_cycle(self, corrupt_setting):
        # victim's next hop rewritten to the AS that routes through it:
        # a default-path cycle, caught at the step that is no closer
        g, view, src, victim = corrupt_setting
        bad = _rewritten(view, 4, victim, view.csr.index[src])
        _assert_refused(g, bad, src, "is not one hop closer")

    def test_next_hop_cycle_through_real_links(self):
        # 1 is the provider of 0 and of 2; 2 routes to 0 up through 1.
        # Rewriting 1's next hop to its customer 2 keeps every step on a
        # link of the route's class; only the lengths show the cycle.
        g = ASGraph.from_links(p2c=[(1, 0), (1, 2)])
        bad = _rewritten(compute_array_routing(g, 0), 4, 1, g.csr().index[2])
        _assert_refused(g, bad, 2, "is not one hop closer")

    def test_next_hop_onto_a_farther_stranger(self, corrupt_setting):
        g, view, src, victim = corrupt_setting
        far = view.best_len(victim) + 1
        stranger = next(
            x
            for x in sorted(g.nodes())
            if not g.are_adjacent(victim, x) and view.has_route(x) and view.best_len(x) >= far
        )
        bad = _rewritten(view, 4, victim, view.csr.index[stranger])
        _assert_refused(g, bad, src, "is not one hop closer")

    @pytest.mark.parametrize("code", [7, -5, 4])
    def test_class_code_outside_the_kernels(self, corrupt_setting, code):
        g, view, src, victim = corrupt_setting
        bad = _rewritten(view, 3, victim, code)
        _assert_refused(g, bad, src, f"class code {code}")

    def test_unknown_class_at_a_neighbour_only(self):
        # On the chain 1 > 2 > 3 with 1's second customer 4, AS 1's class
        # toward 3 is rewritten to 7: the walk from 4 steps onto it, and a
        # congested pick at 2 must read it among 2's announcers.
        g = ASGraph.from_links(p2c=[(1, 2), (2, 3), (1, 4)])
        view = compute_array_routing(g, 3)
        bad = _rewritten(view, 3, 1, 7)
        builder = MifoPathBuilder(g, _Fixed(bad), frozenset(g.nodes()))
        with pytest.raises(RoutingError, match="class code 7"):
            builder.build_path(2, 3, lambda u, v: True, lambda u, v: 1.0)
        with pytest.raises(RoutingError, match="class code 7"):
            count_mifo_paths(g, _Fixed(bad), frozenset(g.nodes()), 2, 3)

    def test_intact_state_still_walks(self, corrupt_setting):
        g, view, src, _ = corrupt_setting
        rebuilt = ArrayDestinationRouting.from_state(g, view.dest, view.state())
        walk, congested_walk, count = _queries(g, rebuilt)
        assert walk(src).path == view.best_path(src)
        assert congested_walk(src).path[-1] == view.dest
        assert count(src) >= 1


def test_random_state_rewrites_never_escape_as_untyped_errors():
    # Any single-cell rewrite of the class or next-hop row either walks
    # to the destination or raises a typed error.
    g = generate_topology(TopologyConfig(n_ases=60, seed=5))
    dest = sorted(g.nodes())[3]
    view = compute_array_routing(g, dest)
    rng = np.random.default_rng(0)
    nodes = sorted(g.nodes())
    for _ in range(200):
        column = int(rng.integers(3, 5))
        asn = nodes[int(rng.integers(len(nodes)))]
        value = int(rng.integers(-3, 8)) if column == 3 else int(rng.integers(-2, 64))
        bad = _rewritten(view, column, asn, value)
        for query in _queries(g, bad):
            src = nodes[int(rng.integers(len(nodes)))]
            try:
                out = query(src)
            except ReproError:
                continue
            if isinstance(out, int):
                continue
            assert out.path[0] == src and out.path[-1] == dest
