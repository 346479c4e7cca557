"""The static verifier: proofs on honest state, refutations on broken state.

The adversarial configurations are the acceptance bar from the issue:
a hand-built valley, a two-AS deflection cycle with Tag-Check disabled,
and a dangling FIB entry — each must be *refuted with a counterexample
path*, not merely flagged.
"""

import pytest

from repro.bgp.propagation import RibEntry, RoutingCache
from repro.errors import RoutingError, TopologyError, VerificationError
from repro.topology.asgraph import ASGraph
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.relationships import Relationship
from repro.verify import (
    CHECKS,
    DestinationState,
    ForwardingState,
    post_run_gate,
    verify_cache,
    verify_forwarding_state,
    verify_routing,
)

C, P, PEER = Relationship.CUSTOMER, Relationship.PROVIDER, Relationship.PEER


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=300, seed=2014))


def _dests(graph, n=12):
    nodes = sorted(graph.nodes())
    step = max(1, len(nodes) // n)
    return nodes[::step][:n]


class TestProofsOnHonestState:
    """Converged Gao-Rexford state must be PROVED, in every variant."""

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_synthetic_topology_proved(self, graph, backend):
        routing = RoutingCache(graph, backend=backend)
        report = verify_routing(graph, routing, _dests(graph))
        assert report.ok, report.render()
        assert report.findings == ()
        assert report.n_destinations == len(_dests(graph))
        assert report.n_states > 0 and report.n_edges > 0

    def test_tag_check_is_necessary_not_only_sufficient(self, graph):
        # Honest RIBs are not enough on their own: with Tag-Check disabled
        # the deflection relation admits peer->peer and provider->provider
        # continuations (the RIB legitimately offers those routes), so the
        # verifier must refute — statically reproducing the paper's
        # ablation argument for why the one-bit tag exists.
        routing = RoutingCache(graph)
        report = verify_routing(
            graph, routing, _dests(graph, 6), tag_check_enabled=False
        )
        assert not report.ok
        assert report.findings_for("valley-freedom")
        assert report.findings_for("loop-freedom")
        # Yet the tables themselves are consistent — only the dynamics break.
        assert not report.findings_for("fib-rib-consistency")

    def test_partial_deployment_is_weaker(self, graph):
        # Removing ASes from the capable set only removes deflect edges —
        # whether the dict walk or the array certificate does the counting.
        dests = _dests(graph, 6)
        for backend in ("dict", "array"):
            routing = RoutingCache(graph, backend=backend)
            full = verify_routing(graph, routing, dests)
            partial = verify_routing(
                graph, routing, dests, capable=frozenset(list(graph.nodes())[:50])
            )
            assert partial.ok
            assert partial.n_edges <= full.n_edges
            assert partial.n_states > 0

    def test_render_mentions_proved(self, graph):
        routing = RoutingCache(graph)
        report = verify_routing(graph, routing, _dests(graph, 4))
        text = report.render()
        assert "PROVED" in text
        for check in CHECKS:
            assert check in text


def _two_as_cycle_state(*, tag_check: bool) -> ForwardingState:
    """ASes 1 and 2 peer; dest 3 is a customer of both.

    Each AS's deflection table offers its peer, whose default leads
    straight back — the classic two-AS deflection cycle Tag-Check's
    tagged bit breaks (a packet arriving over a peer link carries bit 0
    and may not exit over another peer link).
    """
    g = ASGraph.from_links(p2c=[(1, 3), (2, 3)], peering=[(1, 2)])
    rib = {
        1: (RibEntry(3, 1, C), RibEntry(2, 2, PEER)),
        2: (RibEntry(3, 1, C), RibEntry(1, 2, PEER)),
    }
    table = DestinationState(dest=3, fib={1: 3, 2: 3}, rib=rib)
    return ForwardingState(
        graph=g,
        tables=(table,),
        capable=frozenset({1, 2}),
        tag_check_enabled=tag_check,
    )


class TestAdversarialRefutations:
    def test_hand_built_valley_refuted_with_counterexample(self):
        # AS 1 is a customer of providers 10 and 20; dest 9 hangs off 20.
        # Export policy forbids 1 from offering its provider route to 10,
        # so FIB entries 10 -> 1 -> 20 form a valley: the packet enters 1
        # from provider 10 (bit 0) and leaves toward provider 20.
        g = ASGraph.from_links(p2c=[(10, 1), (20, 1), (20, 9)])
        table = DestinationState(
            dest=9,
            fib={10: 1, 1: 20, 20: 9},
            rib={
                10: (RibEntry(1, 3, C),),
                1: (RibEntry(20, 2, P),),
                20: (RibEntry(9, 1, C),),
            },
        )
        fs = ForwardingState(
            graph=g, tables=(table,), capable=frozenset(), tag_check_enabled=True
        )
        report = verify_forwarding_state(fs)
        assert not report.ok
        valleys = report.findings_for("valley-freedom")
        assert valleys, report.render()
        assert any(f.path == (10, 1, 20) for f in valleys), [
            f.path for f in valleys
        ]
        assert "Eq. 3" in valleys[0].detail

    def test_two_as_deflection_cycle_without_tags_refuted(self):
        report = verify_forwarding_state(_two_as_cycle_state(tag_check=False))
        assert not report.ok
        loops = report.findings_for("loop-freedom")
        assert loops, report.render()
        loop = loops[0]
        # The counterexample walk must actually close the reported cycle.
        assert loop.cycle_start is not None
        assert loop.path[loop.cycle_start] == loop.path[-1]
        assert set(loop.path) <= {1, 2}
        # The same relation also contains peer->peer valleys.
        assert report.findings_for("valley-freedom")

    def test_two_as_deflection_cycle_with_tags_proved(self):
        # Identical tables; the one-bit Tag-Check removes the cycle edges.
        report = verify_forwarding_state(_two_as_cycle_state(tag_check=True))
        assert report.ok, report.render()

    def test_dangling_fib_entry_refuted(self):
        g = ASGraph.from_links(p2c=[(2, 1), (2, 3)])
        # 1's FIB points at its provider 2 but its Adj-RIB-In is empty:
        # no route backs the forwarding entry.
        table = DestinationState(dest=3, fib={1: 2, 2: 3}, rib={2: (RibEntry(3, 1, C),)})
        fs = ForwardingState(graph=g, tables=(table,), capable=frozenset())
        report = verify_forwarding_state(fs)
        assert not report.ok
        dangling = [
            f
            for f in report.findings_for("fib-rib-consistency")
            if "dangling" in f.detail
        ]
        assert dangling, report.render()
        assert dangling[0].path == (1, 2)

    def test_non_neighbor_fib_entry_refuted(self):
        g = ASGraph.from_links(p2c=[(2, 1), (2, 3)])
        table = DestinationState(dest=3, fib={1: 3}, rib={})  # 1-3 not a link
        fs = ForwardingState(graph=g, tables=(table,), capable=frozenset())
        report = verify_forwarding_state(fs)
        assert any(
            "not a neighbor" in f.detail
            for f in report.findings_for("fib-rib-consistency")
        )

    def test_misrecorded_relationship_refuted(self):
        # The RIB claims the provider is a customer — the lie that would
        # let Tag-Check admit a valley.
        g = ASGraph.from_links(p2c=[(2, 1), (2, 3)])
        table = DestinationState(
            dest=3, fib={1: 2}, rib={1: (RibEntry(2, 2, C),)}
        )
        fs = ForwardingState(graph=g, tables=(table,), capable=frozenset())
        report = verify_forwarding_state(fs)
        assert any(
            "AS graph says" in f.detail
            for f in report.findings_for("fib-rib-consistency")
        )


class TestSnapshotAndGate:
    def test_from_routing_requires_frozen_graph(self):
        g = ASGraph()
        g.add_p2c(1, 0)
        with pytest.raises(TopologyError, match="freeze"):
            ForwardingState(graph=g, tables=(), capable=frozenset())

    def test_verify_cache_scopes_to_cached_destinations(self, graph):
        cache = RoutingCache(graph)
        cache.precompute([0, 5, 9])
        report = verify_cache(graph, cache)
        assert report.n_destinations == 3
        assert report.ok

    def test_post_run_gate_passes_honest_state(self, graph):
        cache = RoutingCache(graph)
        cache.precompute([0, 1])
        report = post_run_gate(graph, cache)
        assert report.ok

    def test_post_run_gate_raises_on_refutation(self):
        # Route the gate through a cache-like shim holding broken tables.
        fs = _two_as_cycle_state(tag_check=False)

        class _Shim:
            def cached_destinations(self):
                return (3,)

        g = fs.graph
        table = fs.tables[0]

        class _Routing:
            def __call__(self, dest):
                assert dest == 3
                return self

            def has_route(self, x):
                return x in table.fib or x == 3

            def next_hop(self, x):
                return table.fib.get(x)

            def rib(self, x):
                return table.rib.get(x, ())

            cached_destinations = _Shim.cached_destinations

        with pytest.raises(VerificationError) as err:
            post_run_gate(g, _Routing(), tag_check_enabled=False)
        assert not err.value.report.ok
        assert "loop-freedom" in str(err.value)

    def test_next_hop_loop_in_array_state_is_a_typed_error(self):
        # The loop verifier must not crash on the loops it exists to
        # refute: on the chain 1 > 2 > 3, AS 1's next hop toward 3 is
        # rewritten to AS 1 itself.
        g = ASGraph.from_links(p2c=[(1, 2), (2, 3)])
        bad = RoutingCache(g, backend="array")(3)
        idx = g.csr().index
        bad.state()[4][idx[1]] = idx[1]
        with pytest.raises(RoutingError, match="inconsistent routing state"):
            verify_routing(g, lambda d: bad, [3])

    def test_report_json_round_trip(self):
        import json

        report = verify_forwarding_state(_two_as_cycle_state(tag_check=False))
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["n_destinations"] == 1
        assert all(set(f) >= {"check", "dest", "path", "detail"} for f in data["findings"])
