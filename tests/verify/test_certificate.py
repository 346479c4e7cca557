"""The block certificate against the oracle it may not share code with.

``verify_routing`` puts array-backend state to
:func:`repro.verify.certificate.certify_block` and hands everything else
to the dict checker.  The bar: whichever of the two decides a
destination, the report is the one ``verify_forwarding_state`` gives for
the snapshot of the same views — equal in every field but ``elapsed_s``
— and "certified" never coexists with a finding or an error the dict
path would have raised.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry as tm
from repro.bgp.array_routing import (
    ArrayDestinationRouting,
    compute_array_routing,
    compute_array_routings,
    converge_block,
)
from repro.bgp.propagation import RoutingCache, compute_routings
from repro.errors import ReproError, RoutingError
from repro.experiments import scenario as scenario_experiment
from repro.scenario.events import SCENARIOS
from repro.topology.asgraph import ASGraph
from repro.topology.dynamics import without_link
from repro.verify import ForwardingState, verify_forwarding_state, verify_routing
from repro.verify.certificate import certify_block
from tests.bgp.test_array_routing import _views_in_blocks, hierarchies

_CLASS, _NEXT_HOP = 3, 4  # rows of the five-array state


def _timeless(report):
    return dataclasses.replace(report, elapsed_s=0.0)


def _walked(graph, views, **kw):
    """The dict checker alone on a snapshot of ``views`` — the oracle."""
    fs = ForwardingState.from_routing(graph, views.__getitem__, sorted(views), **kw)
    return _timeless(verify_forwarding_state(fs))


def _outcome(fn):
    """A report, or the type of the typed error raised instead."""
    try:
        return fn()
    except ReproError as exc:
        return type(exc)


def _counters(fn):
    """``fn()`` under telemetry: (result, certified, fallback)."""
    t = tm.Telemetry()
    with tm.telemetry_session(t):
        result = fn()
    return (
        result,
        t.counters.get("verify.dests_certified", 0),
        t.counters.get("verify.dests_fallback", 0),
    )


def _subset(draw, graph):
    """A capable set: all (``None``), none, or a random subset."""
    nodes = sorted(graph.nodes())
    return draw(
        st.one_of(
            st.none(),
            st.just(frozenset()),
            st.frozensets(st.sampled_from(nodes)),
        )
    )


# ---------------------------------------------------------------------------
# (a) honest state: one report, whoever proves it
# ---------------------------------------------------------------------------
class TestSameReportOnHonestState:
    @given(st.data(), st.booleans(), st.sampled_from([1, 2, 7, None]))
    @settings(max_examples=150, deadline=None)
    def test_array_and_dict_views_give_the_oracles_report(self, data, cyclic, size):
        g = data.draw(hierarchies(cyclic=cyclic))
        capable = _subset(data.draw, g)
        views = {view.dest: view for view in _views_in_blocks(g, size)}
        want = _walked(g, views, capable=capable)
        got = verify_routing(g, views.__getitem__, views, capable=capable)
        assert _timeless(got) == want
        # Converged Gao-Rexford state is provable at any deployment; only a
        # provider ring can be climbed forever (a real loop-freedom finding).
        assert want.ok or cyclic
        dict_views = compute_routings(g, sorted(views), "dict")
        assert _walked(g, dict_views, capable=capable) == want
        assert (
            _timeless(
                verify_routing(g, dict_views.__getitem__, dict_views, capable=capable)
            )
            == want
        )

    def test_acyclic_hierarchies_are_certified_without_the_walker(self):
        g = ASGraph.from_links(
            p2c=[(1, 2), (1, 3), (2, 4), (3, 4), (3, 5)], peering=[(2, 3), (4, 5)]
        )
        views = compute_array_routings(g, sorted(g.nodes()))
        report, certified, fallback = _counters(
            lambda: verify_routing(g, views.__getitem__, views)
        )
        assert report.ok
        assert (certified, fallback) == (len(views), 0)

    def test_a_provider_ring_is_handed_to_the_walker(self):
        g = ASGraph()
        for p, c in [(1, 2), (2, 3), (3, 1), (3, 4)]:
            g.add_p2c(p, c)
        g.freeze(require_acyclic_hierarchy=False)
        views = compute_array_routings(g, sorted(g.nodes()))
        report, certified, fallback = _counters(
            lambda: verify_routing(g, views.__getitem__, views)
        )
        assert _timeless(report) == _walked(g, views)
        assert fallback > 0 and certified + fallback == len(views)

    def test_kernel_counts_equal_the_walkers_per_destination(self):
        g = ASGraph.from_links(
            p2c=[(1, 2), (1, 3), (2, 4), (3, 4), (3, 5)], peering=[(2, 3), (4, 5)]
        )
        csr = g.csr()
        idxs = np.arange(csr.n_nodes)
        capable = np.isin(csr.asns, [2, 3, 4])
        certified, n_states, n_edges = certify_block(
            csr, idxs, converge_block(csr, idxs), capable
        )
        assert certified.all()
        for idx in idxs:
            dest = int(csr.asns[idx])
            one = _walked(
                g, {dest: compute_array_routing(g, dest)}, capable=frozenset({2, 3, 4})
            )
            assert (n_states[idx], n_edges[idx]) == (one.n_states, one.n_edges)


# ---------------------------------------------------------------------------
# (b) soundness under corruption
# ---------------------------------------------------------------------------
def _rewritten(view, row, idx, value):
    state = [a.copy() for a in view.state()]
    state[row][idx] = value
    return ArrayDestinationRouting.from_state(view.graph, view.dest, tuple(state))


def _agree(graph, views, **kw):
    """``verify_routing`` does what the dict path does: same report, or
    the same type of typed error.  Returns that outcome."""
    want = _outcome(lambda: _walked(graph, views, **kw))
    got = _outcome(
        lambda: _timeless(verify_routing(graph, views.__getitem__, views, **kw))
    )
    assert got == want
    return want


class TestSoundUnderCorruption:
    @given(st.data(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_rewritten_cell(self, data, cyclic):
        g = data.draw(hierarchies(cyclic=cyclic))
        n = len(g)
        views = compute_array_routings(g, sorted(g.nodes()))
        victim = data.draw(st.sampled_from(sorted(views)))
        idx = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            bad = _rewritten(views[victim], _CLASS, idx, data.draw(st.integers(-1, 3)))
        else:
            bad = _rewritten(
                views[victim], _NEXT_HOP, idx, data.draw(st.integers(-1, n - 1))
            )
        views[victim] = bad
        _agree(g, views, capable=_subset(data.draw, g))

    def test_rewritten_cells_on_a_seeded_internet(self, small_internet):
        # Deeper hierarchies than hypothesis draws: default paths several
        # hops long, so the import filter has real walking to do.  Next
        # hops are mostly rewritten to a neighbour — the plausible kind.
        g = small_internet
        csr = g.csr()
        nodes = sorted(g.nodes())
        honest = compute_array_routings(g, nodes[::7])
        rng = np.random.default_rng(19)
        certified_anyway = 0
        for _ in range(150):
            victim = int(rng.choice(sorted(honest)))
            view = honest[victim]
            for _ in range(int(rng.integers(1, 4))):
                idx = int(rng.integers(0, len(nodes)))
                if rng.random() < 0.5:
                    view = _rewritten(view, _CLASS, idx, int(rng.integers(-1, 4)))
                    continue
                neighbours = csr.neighbors_of(idx)[0]
                hop = rng.choice(neighbours) if rng.random() < 0.6 else rng.integers(-1, len(nodes))
                view = _rewritten(view, _NEXT_HOP, idx, int(hop))
            capable = frozenset(nodes[:: int(rng.integers(1, 5))])
            (_, certified, _) = _counters(
                lambda: _agree(g, {victim: view}, capable=capable)
            )
            certified_anyway += certified
        assert certified_anyway > 10  # and their counts matched the walker's

    # 1 is the provider of 2 and 3, which peer; 4 is a customer of both and
    # 5 a customer of 3.  Dense indices are ASN - 1.
    @pytest.fixture()
    def diamond(self):
        g = ASGraph.from_links(p2c=[(1, 2), (1, 3), (2, 4), (3, 4), (3, 5)], peering=[(2, 3)])
        return g, compute_array_routings(g, sorted(g.nodes()))

    def _refuted(self, g, views, dest, row, asn, value, check):
        views[dest] = _rewritten(views[dest], row, g.csr().index[asn], value)
        (report, certified, _) = _counters(lambda: _agree(g, views))
        assert not report.ok
        assert report.findings_for(check)
        assert {f.dest for f in report.findings} == {dest}
        assert certified == len(views) - 1  # the others still skip the walk

    def test_non_neighbour_next_hop(self, diamond):
        g, views = diamond
        self._refuted(g, views, 5, _NEXT_HOP, 4, 0, "fib-rib-consistency")  # 4 -> 1

    def test_next_hop_that_does_not_export(self, diamond):
        # Toward 5, AS 2 holds a peer route (via 3) and may not announce it
        # to its provider 1.
        g, views = diamond
        assert views[5].next_hop(1) == 3
        self._refuted(g, views, 5, _NEXT_HOP, 1, 1, "fib-rib-consistency")

    def test_provider_next_hop_on_an_as_that_announces_to_its_peer(self):
        # Toward its customer 9, AS 5 announces to peer 6, whose only route
        # that is.  Pointing 5's own default at provider 1 (which reaches 9
        # through 2, so every table is still backed) makes 6 -> 5 -> 1 a
        # valley.
        g = ASGraph.from_links(p2c=[(1, 5), (1, 2), (2, 9), (5, 9)], peering=[(5, 6)])
        views = compute_array_routings(g, sorted(g.nodes()))
        assert views[9].best_path(6) == (6, 5, 9)
        self._refuted(g, views, 9, _NEXT_HOP, 5, g.csr().index[1], "valley-freedom")
        (finding,) = verify_routing(g, views.__getitem__, [9]).findings
        assert finding.path == (6, 5, 1)

    def test_two_as_next_hop_cycle(self, diamond):
        g, views = diamond
        idx = g.csr().index
        views[5] = _rewritten(views[5], _NEXT_HOP, idx[3], idx[1])  # 1 -> 3 -> 1
        assert _agree(g, views) is RoutingError

    def test_reachable_class_without_a_hop(self, diamond):
        g, views = diamond
        views[5] = _rewritten(views[5], _NEXT_HOP, g.csr().index[2], -1)
        assert _agree(g, views) is RoutingError

    def test_two_dest_cells(self, diamond):
        g, views = diamond
        views[5] = _rewritten(views[5], _CLASS, g.csr().index[4], 3)
        (_, certified, fallback) = _counters(lambda: _agree(g, views))
        assert (certified, fallback) == (len(views) - 1, 1)

    def test_an_unrouted_cell_nobody_forwards_through_is_still_certified(self, diamond):
        # Not every rewrite is an inconsistency: a stub that loses its
        # route leaves smaller, still provable tables — and the counts
        # must follow them.
        g, views = diamond
        views[5] = _rewritten(views[5], _CLASS, g.csr().index[4], -1)
        (report, certified, fallback) = _counters(lambda: _agree(g, views))
        assert report.ok
        assert (certified, fallback) == (len(views), 0)


# ---------------------------------------------------------------------------
# (c) what the certificate must leave alone
# ---------------------------------------------------------------------------
class TestFallThrough:
    @pytest.fixture(scope="class")
    def graph(self, small_internet):
        return small_internet

    def _dests(self, graph):
        return sorted(graph.nodes())[::40]

    def test_tag_check_off_is_the_walkers_alone(self, graph):
        cache = RoutingCache(graph, backend="array")
        dests = self._dests(graph)
        report, certified, fallback = _counters(
            lambda: verify_routing(graph, cache, dests, tag_check_enabled=False)
        )
        assert (certified, fallback) == (0, len(dests))
        assert report.findings_for("valley-freedom")
        assert report.findings_for("loop-freedom")
        assert not report.findings_for("fib-rib-consistency")
        want = _walked(graph, {d: cache(d) for d in dests}, tag_check_enabled=False)
        assert _timeless(report) == want

    def test_view_bound_to_another_graph_object(self, graph):
        u, v, _ = graph.links()[0]
        other = without_link(graph, u, v)  # same node set, one link fewer
        dests = self._dests(graph)
        views = {
            d: view.rebind(other)
            for d, view in compute_array_routings(graph, dests).items()
        }
        report, certified, fallback = _counters(
            lambda: _outcome(
                lambda: _timeless(verify_routing(graph, views.__getitem__, dests))
            )
        )
        assert (certified, fallback) == (0, len(dests))
        assert report == _outcome(lambda: _walked(graph, views))

    def test_dict_backend_cache(self, graph):
        cache = RoutingCache(graph, backend="dict")
        dests = self._dests(graph)
        report, certified, fallback = _counters(
            lambda: verify_routing(graph, cache, dests)
        )
        assert (certified, fallback) == (0, len(dests))
        assert _timeless(report) == _walked(graph, {d: cache(d) for d in dests})

    def test_capable_asn_outside_the_graph(self, graph):
        cache = RoutingCache(graph, backend="array")
        dests = self._dests(graph)
        capable = frozenset(sorted(graph.nodes())[:50]) | {10**9}
        report = verify_routing(graph, cache, dests, capable=capable)
        want = _walked(graph, {d: cache(d) for d in dests}, capable=capable)
        assert _timeless(report) == want and want.ok

    def test_views_are_fetched_once_each_in_ascending_order(self, graph):
        asked = []
        cache = RoutingCache(graph, backend="array")

        def routing(dest):
            asked.append(dest)
            return cache(dest)

        dests = self._dests(graph)
        verify_routing(graph, routing, list(reversed(dests)) + dests[:2])
        assert asked == dests

    def test_a_failing_lookup_surfaces_after_earlier_table_errors(self):
        # The snapshot builds destination 3's tables (a next-hop cycle)
        # before it ever asks for destination 9.
        g = ASGraph.from_links(p2c=[(1, 2), (2, 3)])
        bad = compute_array_routing(g, 3)
        bad.state()[_NEXT_HOP][g.csr().index[1]] = g.csr().index[1]

        def routing(dest):
            if dest == 9:
                raise KeyError(dest)
            return bad

        with pytest.raises(RoutingError):
            verify_routing(g, routing, [9, 3])
        with pytest.raises(KeyError):
            verify_routing(g, routing, [9])


# ---------------------------------------------------------------------------
# (d) the engine: same records, and the fall-through is a number
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_builtin_scenarios_certify_every_destination_on_the_array_backend(name):
    payload = {}
    for backend in ("dict", "array"):
        result = scenario_experiment.run(
            "test", scenario=name, backend=backend, telemetry=True
        )
        counters = result.meta["telemetry"]["counters"]
        verified = result.meta["verified_dests"]
        certified = counters.get("verify.dests_certified", 0)
        fallback = counters.get("verify.dests_fallback", 0)
        assert verified > 0
        if backend == "array":
            assert (certified, fallback) == (verified, 0)
        else:
            assert (certified, fallback) == (0, verified)
        payload[backend] = result.to_json(include_provenance=False)
    assert payload["array"] == payload["dict"]  # verified_dests included
