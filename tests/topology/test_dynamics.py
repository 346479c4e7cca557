"""Tests for the derived-topology helpers (``repro.topology.dynamics``)."""

from __future__ import annotations

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.asgraph import ASGraph
from repro.topology.dynamics import with_link, without_link
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.relationships import Relationship, invert
from tests.bgp.test_array_routing import hierarchies


def _link_set(g: ASGraph) -> set[tuple[int, int, Relationship]]:
    return set(g.links())


class TestWithoutLink:
    def test_removes_exactly_one_link(self, fig2a_graph):
        g = without_link(fig2a_graph, 2, 3)
        assert not g.are_adjacent(2, 3)
        assert _link_set(g) == _link_set(fig2a_graph) - {
            (2, 3, fig2a_graph.relationship(2, 3))
        }

    def test_preserves_node_set_even_when_isolating(self):
        g0 = ASGraph.from_links(p2c=[(1, 0)])
        g = without_link(g0, 0, 1)
        assert sorted(g.nodes()) == [0, 1]
        assert g.degree(0) == 0

    def test_preserves_relationship_orientation(self, fig2a_graph):
        """Regression: ``links()`` orders endpoints by ASN, so a p2c link
        whose provider has the higher ASN is reported as PROVIDER — the
        copy must not degrade it to a peering."""
        # In fig2a, 1/2/3 are providers of 0; links() reports (0, 1,
        # PROVIDER) etc.  Removing the unrelated peering must keep them p2c.
        g = without_link(fig2a_graph, 2, 3)
        for provider in (1, 2, 3):
            assert g.relationship(0, provider) is Relationship.PROVIDER
            assert g.relationship(provider, 0) is Relationship.CUSTOMER

    def test_missing_link_rejected(self, fig2a_graph):
        with pytest.raises(TopologyError, match="no link"):
            without_link(fig2a_graph, 0, 99)

    def test_original_untouched(self, fig2a_graph):
        before = _link_set(fig2a_graph)
        without_link(fig2a_graph, 2, 3)
        assert _link_set(fig2a_graph) == before


class TestWithLink:
    def test_round_trip_restores_graph(self, fig2a_graph):
        for u, v, _ in list(fig2a_graph.links()):
            rel = fig2a_graph.relationship(u, v)
            again = with_link(without_link(fig2a_graph, u, v), u, v, rel)
            assert _link_set(again) == _link_set(fig2a_graph), (u, v)

    def test_rel_of_v_customer_makes_u_provider(self, fig2a_graph):
        g = without_link(fig2a_graph, 1, 0)
        g2 = with_link(g, 1, 0, Relationship.CUSTOMER)  # 0 is 1's customer
        assert g2.relationship(1, 0) is Relationship.CUSTOMER

    def test_rel_of_v_provider_makes_v_provider(self, fig2a_graph):
        g = without_link(fig2a_graph, 1, 0)
        g2 = with_link(g, 0, 1, Relationship.PROVIDER)  # 1 is 0's provider
        assert g2.relationship(0, 1) is Relationship.PROVIDER

    def test_peer_addition(self, chain_graph):
        g = with_link(chain_graph, 0, 2, Relationship.PEER)
        assert g.relationship(0, 2) is Relationship.PEER

    def test_unknown_endpoint_rejected(self, fig2a_graph):
        with pytest.raises(TopologyError, match="cannot add ASes"):
            with_link(fig2a_graph, 0, 99, Relationship.PEER)

    def test_duplicate_link_rejected(self, fig2a_graph):
        with pytest.raises(TopologyError, match="already exists"):
            with_link(fig2a_graph, 1, 2, Relationship.PEER)

    def test_provider_cycle_rejected(self, chain_graph):
        # 0 <- 1 <- 2; making 0 a provider of 2 closes a customer cycle.
        # The message is freeze()'s, and the parent is left as it was.
        before = list(chain_graph.links())
        with pytest.raises(
            TopologyError, match="^provider-customer hierarchy contains a cycle$"
        ):
            with_link(chain_graph, 2, 0, Relationship.PROVIDER)
        assert chain_graph.links() == before

    def test_synthetic_round_trip(self, small_internet):
        links = sorted((u, v) for u, v, _ in small_internet.links())
        for u, v in links[:: max(1, len(links) // 8)]:
            rel = small_internet.relationship(u, v)
            again = with_link(without_link(small_internet, u, v), u, v, rel)
            assert _link_set(again) == _link_set(small_internet), (u, v)

    def test_int_relationship_is_coerced(self, fig2a_graph):
        """Regression: an int code fell through to a peering."""
        g = without_link(fig2a_graph, 2, 3)
        assert with_link(g, 3, 2, 0).relationship(3, 2) is Relationship.CUSTOMER
        assert with_link(g, 3, 2, 2).relationship(3, 2) is Relationship.PROVIDER
        assert with_link(g, 3, 2, 1).relationship(3, 2) is Relationship.PEER

    @pytest.mark.parametrize("bad", ["PEER", "c", 3, -1, None, 1.5, [0]])
    def test_non_relationship_rejected(self, fig2a_graph, bad):
        g = without_link(fig2a_graph, 2, 3)
        with pytest.raises(TopologyError, match="invalid relationship"):
            with_link(g, 3, 2, bad)

    def test_self_loop_rejected(self, fig2a_graph):
        with pytest.raises(TopologyError, match="self-loop"):
            with_link(fig2a_graph, 2, 2, Relationship.PEER)


class TestUnfrozenParent:
    """No caller derives from an unfrozen graph (scenario engines, the
    incremental router and checkpoint restore all hold frozen graphs), so
    one is refused instead of copied."""

    def test_without_link(self):
        g = ASGraph.from_links(p2c=[(1, 0)], peering=[(1, 2)], freeze=False)
        with pytest.raises(TopologyError, match="freeze"):
            without_link(g, 1, 2)

    def test_with_link(self):
        g = ASGraph.from_links(p2c=[(1, 0)], peering=[(1, 2)], freeze=False)
        with pytest.raises(TopologyError, match="freeze"):
            with_link(g, 0, 2, Relationship.PEER)


class TestSharedStructure:
    """A derivative shares every read-only structure the link leaves alone."""

    def _peering_and_p2c(self, g):
        links = g.links()
        peering = next((u, v) for u, v, r in links if r is Relationship.PEER)
        p2c = next((u, v) for u, v, r in links if r is not Relationship.PEER)
        return peering, p2c

    def test_untouched_rows_and_arrays_are_the_parents(self, small_internet):
        for u, v in self._peering_and_p2c(small_internet):
            g = without_link(small_internet, u, v)
            for x in small_internet.nodes():
                if x not in (u, v):
                    assert g.neighbors(x) is small_internet.neighbors(x)
                    assert g.customers(x) is small_internet.customers(x)
            parent, child = small_internet.csr(), g.csr()
            assert child.asns is parent.asns and child.index is parent.index

    def test_peering_event_reuses_the_schedule(self, small_internet):
        (u, v), _ = self._peering_and_p2c(small_internet)
        parent = small_internet.csr()
        child = without_link(small_internet, u, v).csr()
        assert child.pull_schedule is parent.pull_schedule
        assert child.cust_indices is parent.cust_indices
        assert child.prov_indices is parent.prov_indices

    def test_p2c_event_keeps_the_peer_csr(self, small_internet):
        _, (u, v) = self._peering_and_p2c(small_internet)
        parent = small_internet.csr()
        child = without_link(small_internet, u, v).csr()
        assert child.peer_indices is parent.peer_indices
        assert child.pull_schedule is not parent.pull_schedule

    def test_endpoint_rows_ascend(self, fig2a_graph):
        # fig2a registers AS 1's customer 0 before its peers 2 and 3; a
        # re-added link lands in ASN order, not last.
        assert list(fig2a_graph.neighbors(1)) == [0, 2, 3]
        g = with_link(without_link(fig2a_graph, 1, 2), 1, 2, Relationship.PEER)
        assert list(g.neighbors(1)) == [0, 2, 3]
        assert list(g.neighbors(2)) == [0, 1, 3]


# ---------------------------------------------------------------------------
# the derivation against a from-scratch rebuild, on random event chains
# ---------------------------------------------------------------------------
_CSR_ARRAYS = (
    "asns",
    "cust_indptr",
    "cust_indices",
    "prov_indptr",
    "prov_indices",
    "peer_indptr",
    "peer_indices",
    "nbr_indptr",
    "nbr_indices",
    "nbr_rel",
)


@functools.lru_cache(maxsize=1)
def _internet() -> ASGraph:
    return generate_topology(TopologyConfig(n_ases=300))


def _rebuild(nodes, model):
    """The oracle: ``model`` ({(lo, hi): rel of hi seen from lo}) built from
    scratch through the mutator API and ``freeze()``."""
    g = ASGraph()
    for n in nodes:
        g.add_as(n)
    for (u, v), r in model.items():
        if r is Relationship.CUSTOMER:
            g.add_p2c(u, v)
        elif r is Relationship.PROVIDER:
            g.add_p2c(v, u)
        else:
            g.add_peering(u, v)
    return g.freeze()


def _array_key(a):
    return (a.dtype.str, a.shape, a.tobytes())


def _schedule_key(s):
    levels = [
        (lo, hi, [(_array_key(slots), _array_key(provs)) for slots, provs in columns])
        for lo, hi, columns in s.levels
    ]
    return (_array_key(s.slot_of), _array_key(s.level_starts), levels, s.cyclic)


def _reads(g):
    """Everything a consumer can read off a frozen graph, orders included."""
    csr = g.csr()
    return (
        list(g.nodes()),
        list(g.links()),
        [
            (list(g.neighbors(x).items()), g.customers(x), g.providers(x), g.peers(x))
            for x in g.nodes()
        ],
        dict(csr.index),
        [_array_key(getattr(csr, name)) for name in _CSR_ARRAYS],
        _schedule_key(csr.pull_schedule),
    )


def _assert_equals_rebuild(got, want, base, touched):
    assert list(got.nodes()) == list(want.nodes())
    assert got.links() == want.links()
    for x in want.nodes():
        row = got.neighbors(x)
        assert row == want.neighbors(x)
        # Rows an event touched ascend by ASN; the rest are the base's.
        order = sorted(row.items()) if x in touched else list(base.neighbors(x).items())
        assert list(row.items()) == order, x
        assert got.customers(x) == want.customers(x)
        assert got.providers(x) == want.providers(x)
        assert got.peers(x) == want.peers(x)
    gc, wc = got.csr(), want.csr()
    assert gc.index == wc.index
    for name in _CSR_ARRAYS:
        assert _array_key(getattr(gc, name)) == _array_key(getattr(wc, name)), name
        assert not getattr(gc, name).flags.writeable, name
    assert _schedule_key(gc.pull_schedule) == _schedule_key(wc.pull_schedule)


def _run_chain(data, base):
    """Up to 8 removals, re-additions and new links, each derivation
    checked against the rebuild; an event the rebuild refuses must raise
    the same error and leave the parent as it was."""
    nodes = list(base.nodes())
    model = {(u, v): r for u, v, r in base.links()}
    removed = []
    touched = set()
    graph = base
    for _ in range(data.draw(st.integers(1, 8), label="events")):
        kinds = ["remove"] * bool(model) + ["readd"] * bool(removed)
        kinds += ["add"] * (len(nodes) > 1)
        if not kinds:
            return
        kind = data.draw(st.sampled_from(kinds))
        nxt = dict(model)
        if kind == "remove":
            lo, hi = data.draw(st.sampled_from(sorted(model)))
            del nxt[(lo, hi)]
            u, v = data.draw(st.permutations([lo, hi]))
            derive = functools.partial(without_link, graph, u, v)
        else:
            if kind == "readd":
                lo, hi, rel = removed[data.draw(st.integers(0, len(removed) - 1))]
            else:
                pair = st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True)
                lo, hi = sorted(data.draw(pair))
                if (lo, hi) in model or any((lo, hi) == r[:2] for r in removed):
                    continue
                rel = data.draw(st.sampled_from(list(Relationship)))
            nxt[(lo, hi)] = rel
            # with_link takes v's relationship as seen from u.
            if data.draw(st.booleans()):
                derive = functools.partial(with_link, graph, lo, hi, rel)
            else:
                derive = functools.partial(with_link, graph, hi, lo, invert(rel))
        before = _reads(graph)
        try:
            want = _rebuild(nodes, nxt)
        except TopologyError as err:
            with pytest.raises(TopologyError, match=f"^{re.escape(str(err))}$"):
                derive()
            assert _reads(graph) == before
            continue
        got = derive()
        assert _reads(graph) == before  # the parent reads as it did
        touched |= {lo, hi}
        _assert_equals_rebuild(got, want, base, touched)
        if kind == "remove":
            removed.append((lo, hi, model[(lo, hi)]))
        elif kind == "readd":
            removed.remove((lo, hi, rel))
        graph, model = got, nxt


class TestDerivationEqualsRebuild:
    @given(st.data(), hierarchies())
    @settings(max_examples=150, deadline=None)
    def test_hierarchies(self, data, base):
        _run_chain(data, base)

    @given(st.data(), hierarchies(cyclic=True))
    @settings(max_examples=80, deadline=None)
    def test_cyclic_parents(self, data, base):
        # Today's contract: every derivative is frozen acyclic, so an
        # event on a cyclic parent succeeds only if it breaks the cycle.
        _run_chain(data, base)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_seeded_internet(self, data):
        _run_chain(data, _internet())
