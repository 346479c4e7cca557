"""Cross-validation of the array routing backend against the dict oracle.

The acceptance bar for ``repro.bgp.array_routing``: on seeded synthetic
topologies, every query (``best_path``, ``rib``, ``alternatives``,
``reachable_count`` and friends) must be **identical** to the dict-based
:class:`~repro.bgp.propagation.DestinationRouting` — not statistically
close, equal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.array_routing import (
    MAX_BLOCK_DESTS,
    ArrayDestinationRouting,
    block_dests,
    compute_array_routing,
    compute_array_routings,
    converge_block,
)
from repro.bgp.propagation import RibEntry, compute_routing, compute_routings
from repro.errors import NoRouteError, RoutingError, TopologyError
from repro.topology.asgraph import ASGraph
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.relationships import Relationship, export_allowed, invert

SEEDS = (2014, 7, 99)


@pytest.fixture(scope="module", params=SEEDS)
def graph_pair(request):
    graph = generate_topology(TopologyConfig(n_ases=250, seed=request.param))
    return graph


def _destinations(graph):
    nodes = sorted(graph.nodes())
    # a spread of destinations: stubs, middle, and the largest providers
    return nodes[:5] + nodes[len(nodes) // 2 : len(nodes) // 2 + 5] + nodes[-5:]


def _assert_matches_oracle(graph, array):
    """Every query, for every node, equals the dict oracle's answer."""
    oracle = compute_routing(graph, array.dest)
    assert array.reachable_count() == oracle.reachable_count()
    for x in graph.nodes():
        assert array.has_route(x) == oracle.has_route(x)
        if not oracle.has_route(x):
            continue
        assert array.best_class(x) == oracle.best_class(x)
        assert array.best_len(x) == oracle.best_len(x)
        assert array.next_hop(x) == oracle.next_hop(x)
        assert array.best_path(x) == oracle.best_path(x)
        assert array.rib(x) == oracle.rib(x)
        assert array.rib(x, loop_filter=False) == oracle.rib(x, loop_filter=False)
        assert array.alternatives(x) == oracle.alternatives(x)


class TestCrossValidation:
    def test_identical_output_on_seeded_topologies(self, graph_pair):
        graph = graph_pair
        for dest in _destinations(graph):
            _assert_matches_oracle(graph, compute_array_routing(graph, dest))

    def test_entries_are_plain_python_ints(self, graph_pair):
        """Byte-identical includes types: no numpy scalars may leak out."""
        graph = graph_pair
        dest = sorted(graph.nodes())[0]
        array = compute_array_routing(graph, dest)
        src = sorted(graph.nodes())[-1]
        for hop in array.best_path(src):
            assert type(hop) is int
        for entry in array.rib(src):
            assert type(entry.neighbor) is int
            assert type(entry.length) is int
            # IntEnum equality would pass a plain int; check_bit and
            # tag_for_upstream compare relationships with ``is``.
            assert type(entry.relationship) is Relationship
        nh = array.next_hop(src)
        assert nh is None or type(nh) is int
        assert type(array.best_len(src)) is int


class TestEdgeCases:
    def test_requires_frozen_graph(self):
        g = ASGraph()
        g.add_p2c(1, 0)
        with pytest.raises(TopologyError, match="freeze"):
            compute_array_routing(g, 0)

    def test_unknown_destination(self):
        g = ASGraph.from_links(p2c=[(1, 0)])
        with pytest.raises(TopologyError):
            compute_array_routing(g, 99)

    def test_destination_itself(self):
        g = ASGraph.from_links(p2c=[(1, 0), (2, 0)], peering=[(1, 2)])
        r = compute_array_routing(g, 0)
        assert r.next_hop(0) is None
        assert r.best_class(0) is None
        assert r.best_path(0) == (0,)
        assert r.rib(0) == ()
        assert r.alternatives(0) == ()

    def test_no_route_raises(self):
        g = ASGraph()
        g.add_p2c(1, 0)
        g.add_as(9)  # isolated
        g.freeze()
        r = compute_array_routing(g, 0)
        assert not r.has_route(9)
        with pytest.raises(NoRouteError):
            r.next_hop(9)
        with pytest.raises(NoRouteError):
            r.best_path(9)
        with pytest.raises(NoRouteError):
            r.best_class(9)
        with pytest.raises(NoRouteError):
            r.best_len(9)

    def test_unknown_query_node(self):
        g = ASGraph.from_links(p2c=[(1, 0)])
        r = compute_array_routing(g, 0)
        with pytest.raises(TopologyError):
            r.has_route(42)

    def test_state_roundtrip(self):
        g = ASGraph.from_links(p2c=[(1, 0), (2, 1), (2, 3)], peering=[(1, 3)])
        original = compute_array_routing(g, 0)
        rebuilt = ArrayDestinationRouting.from_state(g, 0, original.state())
        for x in g.nodes():
            assert rebuilt.has_route(x) == original.has_route(x)
            if original.has_route(x):
                assert rebuilt.best_path(x) == original.best_path(x)
                assert rebuilt.rib(x) == original.rib(x)


# ---------------------------------------------------------------------------
# the block kernel against the dict oracle, on whatever hypothesis draws
# ---------------------------------------------------------------------------
@st.composite
def hierarchies(draw, cyclic: bool = False) -> ASGraph:
    """Small AS graphs the seeded generator never produces.

    AS numbers are sparse and providers are drawn along a random order
    that ignores them, so the lowest-ASN tie-break is not the first-added
    or first-visited neighbor; a node may get no provider at all (several
    tier-1s, isolated ASes); a third of the graphs have no peering.
    ``cyclic`` first closes a provider cycle through the leading ASes of
    that order (frozen with ``require_acyclic_hierarchy=False``).
    """
    min_size = 2 if cyclic else 1
    asns = draw(st.lists(st.integers(1, 60), min_size=min_size, max_size=11, unique=True))
    order = draw(st.permutations(asns))
    g = ASGraph()
    for a in asns:
        g.add_as(a)
    if cyclic:
        ring = order[: draw(st.integers(min(3, len(order)), min(4, len(order))))]
        for p, c in zip(ring, ring[1:] + ring[:1]):
            if not g.are_adjacent(p, c):  # two ASes cannot form a ring
                g.add_p2c(p, c)
    for i, node in enumerate(order[1:], start=1):
        above = st.lists(st.sampled_from(order[:i]), max_size=3, unique=True)
        for p in draw(above):
            if not g.are_adjacent(p, node):
                g.add_p2c(p, node)
    pair = st.tuples(st.sampled_from(asns), st.sampled_from(asns))
    for _ in range(draw(st.sampled_from([0, len(asns) // 2, len(asns)]))):
        a, b = draw(pair)
        if a != b and not g.are_adjacent(a, b):
            g.add_peering(a, b)
    return g.freeze(require_acyclic_hierarchy=not cyclic)


def _views_in_blocks(graph, size):
    """Every AS as a destination, handed to the kernel ``size`` at a time."""
    csr = graph.csr()
    idxs = list(range(csr.n_nodes))
    for lo in range(0, len(idxs), size or len(idxs)):
        chunk = idxs[lo : lo + (size or len(idxs))]
        state = converge_block(csr, chunk)
        for row, idx in enumerate(chunk):
            yield ArrayDestinationRouting.from_state(
                graph, int(csr.asns[idx]), tuple(a[row] for a in state)
            )


class TestBlockKernelProperties:
    @given(hierarchies(), st.sampled_from([1, 2, 7, None]))
    @settings(max_examples=120, deadline=None)
    def test_every_destination_matches_the_oracle(self, g, size):
        for view in _views_in_blocks(g, size):
            _assert_matches_oracle(g, view)

    @given(hierarchies(cyclic=True), st.sampled_from([1, 2, 7, None]))
    @settings(max_examples=120, deadline=None)
    def test_cyclic_hierarchies_match_the_oracle(self, g, size):
        for view in _views_in_blocks(g, size):
            _assert_matches_oracle(g, view)

    def test_equal_length_providers_break_ties_by_lowest_asn(self):
        # Stub 9 is multi-homed to 7, 5 and 6 (added in that order), all
        # customers of tier-1 2.  Toward 2's other customer 4 the three
        # providers export equal lengths, so the lowest ASN wins; toward
        # 5's own customer 8 provider 5 is simply shorter.
        g = ASGraph.from_links(
            p2c=[(2, 7), (2, 5), (2, 6), (2, 4), (7, 9), (5, 9), (6, 9), (5, 8)]
        )
        views = compute_array_routings(g, [4, 8])
        assert views[4].next_hop(9) == 5
        assert views[4].best_path(9) == (9, 5, 2, 4)
        assert views[8].next_hop(9) == 5
        assert views[8].best_len(9) == 2
        for view in views.values():
            _assert_matches_oracle(g, view)

    def test_isolated_stub_and_tier1_destinations(self):
        g = ASGraph()
        for provider, customer in [(1, 3), (2, 3), (1, 4)]:
            g.add_p2c(provider, customer)
        g.add_peering(1, 2)
        g.add_as(50)  # isolated
        g.freeze()
        views = compute_array_routings(g, [50, 3, 1])
        assert views[50].reachable_count() == 1
        assert [views[3].has_route(x) for x in (1, 2, 4, 50)] == [True, True, True, False]
        for view in views.values():
            _assert_matches_oracle(g, view)

    def test_empty_block(self):
        g = ASGraph.from_links(p2c=[(1, 0)])
        state = converge_block(g.csr(), [])
        assert [a.shape for a in state] == [(0, 2)] * 5
        assert compute_array_routings(g, []) == {}


def _outcome(query):
    try:
        return query()
    except RoutingError as exc:
        return f"{type(exc).__name__}: {exc}"


def _neighbour_loop_rib(view, x):
    """``view.rib(x)`` as a loop over the neighbours in ASN order, with the
    import filter asked of ``best_path``; a ``RoutingError`` as its text."""

    def rib():
        if x == view.dest:
            return ()
        entries = []
        for nb, rel in sorted(view.graph.neighbors(x).items()):
            if not view.has_route(nb):
                continue
            if not export_allowed(view.best_class(nb), invert(rel)):
                continue
            if nb != view.dest and x in view.best_path(nb):
                continue
            entries.append(RibEntry(nb, view.best_len(nb) + 1, rel))
        return tuple(sorted(entries, key=lambda e: e.selection_key))

    return _outcome(rib)


class TestColdRib:
    """``rib`` on a fresh view: no ``best_path`` call has warmed the path
    memo first (``_assert_matches_oracle`` always makes one), and ``rib``
    itself must leave the memo as it found it — the views' read memo is
    what ``path_query_10k``'s peak RSS measures."""

    @given(st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rib_first_in_shuffled_order_matches_the_oracle(self, data, cyclic):
        g = data.draw(hierarchies(cyclic=cyclic))
        order = data.draw(st.permutations(sorted(g.nodes())))
        for dest, view in compute_array_routings(g, sorted(g.nodes())).items():
            oracle = compute_routing(g, dest)
            for x in order:
                assert view.rib(x) == oracle.rib(x)
                assert view.rib(x, loop_filter=False) == oracle.rib(x, loop_filter=False)
            assert view._path_cache == {}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_rewritten_next_hop_fails_rib_as_the_neighbour_loop_did(self, data):
        # The per-neighbour loop asked ``x in best_path(nb)`` of every
        # announcing neighbour in ASN order, so a corrupted next-hop row
        # raised from the first neighbour whose walk hit it — same text.
        g = data.draw(hierarchies(cyclic=data.draw(st.booleans())))
        nodes = sorted(g.nodes())
        dest = data.draw(st.sampled_from(nodes))
        state = [a.copy() for a in compute_array_routing(g, dest).state()]
        cell = data.draw(st.integers(0, len(nodes) - 1))
        state[4][cell] = data.draw(st.integers(-1, len(nodes) - 1))
        for x in data.draw(st.permutations(nodes)):
            view = ArrayDestinationRouting.from_state(g, dest, tuple(state))
            assert _outcome(lambda: view.rib(x)) == _neighbour_loop_rib(
                ArrayDestinationRouting.from_state(g, dest, tuple(state)), x
            )

    def test_rib_queries_leave_the_path_memo_empty(self, graph_pair):
        graph = graph_pair
        views = compute_array_routings(graph, _destinations(graph))
        for view in views.values():
            for x in graph.nodes():
                view.rib(x)
                view.alternatives(x)
            assert view._path_cache == {}
            src = sorted(graph.nodes())[-1]
            view.best_path(src)
            assert list(view._path_cache) == [src]  # best_path still memoises


class TestPartitionInvariance:
    """The same bytes however the destination list reaches the kernel."""

    N_ASES = 150
    WIDTH = block_dests(N_ASES)
    DESTS = list(range(3, 3 + 2 * WIDTH + 5))  # two full kernel blocks and a tail

    @staticmethod
    def _bytes(views):
        return {d: b"".join(a.tobytes() for a in v.state()) for d, v in views.items()}

    @pytest.fixture(scope="class")
    def graph(self):
        return generate_topology(TopologyConfig(n_ases=self.N_ASES, seed=9))

    @pytest.fixture(scope="class")
    def one_call(self, graph):
        return self._bytes(compute_array_routings(graph, self.DESTS))

    def test_block_width_follows_graph_size(self):
        assert block_dests(44_340) == 4  # the paper tier: ~4.5 MB per pass
        assert block_dests(10**9) == 1
        assert block_dests(1) == block_dests(0) == MAX_BLOCK_DESTS
        assert 1 < self.WIDTH <= MAX_BLOCK_DESTS

    def test_one_kernel_call(self, graph, one_call):
        """The kernel cutting the list itself (three passes)."""
        csr = graph.csr()
        state = converge_block(csr, [csr.index[d] for d in self.DESTS])
        rows = {
            d: b"".join(a[row].tobytes() for a in state)
            for row, d in enumerate(self.DESTS)
        }
        assert rows == one_call

    @pytest.mark.parametrize("cuts", [(1,), (3, 11), (WIDTH, 2 * WIDTH)])
    def test_split_calls(self, graph, one_call, cuts):
        split = {}
        for lo, hi in zip((0, *cuts), (*cuts, len(self.DESTS))):
            split.update(self._bytes(compute_array_routings(graph, self.DESTS[lo:hi])))
        assert split == one_call


def _view_bytes(view):
    """A view's converged state as bytes (array rows) or ordered items
    (dict tables), without its graph or lazy caches."""
    if isinstance(view, ArrayDestinationRouting):
        return tuple((a.dtype.str, a.shape, a.tobytes()) for a in view.state())
    return tuple(
        list(t.items())
        for t in (
            view._cust_dist,
            view._peer_dist,
            view._export_len,
            view._best_class,
            view._next_hop,
        )
    )


class TestComputeRoutingsOrder:
    """``compute_routings`` gives every destination the same state whatever
    the order of the list — and so whatever block a destination lands in.
    ``IncrementalRouting._views`` leans on this: its insertion order, which
    a restored session does not reproduce, only orders the list that
    ``advance`` hands this function."""

    @given(hierarchies(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_permuted_destinations(self, g, data):
        nodes = sorted(g.nodes())
        dests = data.draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True))
        permuted = data.draw(st.permutations(dests))
        for backend in ("dict", "array"):
            given_order = compute_routings(g, dests, backend)
            other_order = compute_routings(g, permuted, backend)
            assert list(other_order) == list(permuted)
            for d in dests:
                alone = compute_routings(g, [d], backend)[d]
                want = _view_bytes(alone)
                assert _view_bytes(given_order[d]) == want, (backend, d)
                assert _view_bytes(other_order[d]) == want, (backend, d)
