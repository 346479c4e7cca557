"""Regression tests for latent bugs, each with the failure mode it
guards against:

1. ``ArrayDestinationRouting`` trusted ``from_state()`` payloads: a
   reachable node whose next-hop slot held the ``-1`` sentinel would
   silently index ``asns[-1]`` (numpy wraparound) and return the *last*
   ASN as a next hop — a wrong answer instead of an error.  (Same family:
   a next-hop *cycle* in such a payload raised a bare ``AssertionError``
   out of ``best_path`` instead of the typed ``RoutingError``, and a class
   cell outside -1..3 a bare ``ValueError`` out of ``rib``, ``best_class``
   and the verifier.)
2. The array kernel trusted its dense destination indices: ``-1``
   wrapped to the last AS (``cust[-1] = 0``) and returned a complete,
   plausible table for the wrong destination.
"""

import numpy as np
import pytest

from repro.bgp.array_routing import (
    ArrayDestinationRouting,
    compute_array_routing,
    converge_block,
)
from repro.errors import RoutingError, TopologyError
from repro.topology.asgraph import ASGraph
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.relationships import Relationship
from repro.verify import verify_routing


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=150, seed=11))


def _corrupted(routing: ArrayDestinationRouting, victim: int) -> ArrayDestinationRouting:
    """Rebuild ``routing`` with ``victim``'s next-hop slot zeroed to -1."""
    cust, peer, export, cls, nh = routing.state()
    nh = nh.copy()
    nh[routing.csr.index[victim]] = np.int32(-1)
    return ArrayDestinationRouting.from_state(
        routing.graph, routing.dest, (cust, peer, export, cls, nh)
    )


class TestCorruptedStateGuards:
    """Fix 1: no-hop sentinel on a reachable node must raise, not wrap."""

    def _pick(self, graph):
        dest = sorted(graph.nodes())[0]
        routing = compute_array_routing(graph, dest)
        # a node at distance >= 2 so some *other* node routes through it
        for x in sorted(graph.nodes()):
            if x != dest and routing.has_route(x) and routing.best_len(x) == 1:
                for y in sorted(graph.nodes()):
                    if (
                        y not in (x, dest)
                        and routing.has_route(y)
                        and len(routing.best_path(y)) > 2
                        and routing.best_path(y)[1] == x
                    ):
                        return routing, x, y
        pytest.skip("topology has no two-hop default path")

    def test_next_hop_raises_instead_of_wrapping(self, graph):
        routing, victim, _ = self._pick(graph)
        bad = _corrupted(routing, victim)
        assert bad.has_route(victim)  # still claims reachability...
        with pytest.raises(RoutingError, match="no next hop"):
            bad.next_hop(victim)  # ...so the dead slot must be loud

    def test_best_path_raises_instead_of_wrapping(self, graph):
        routing, victim, upstream = self._pick(graph)
        bad = _corrupted(routing, victim)
        with pytest.raises(RoutingError, match="dead-ends"):
            bad.best_path(upstream)

    def test_next_hop_cycle_raises_a_typed_error(self, graph):
        # A from_state() payload can hold what propagation cannot produce:
        # the guard used to be a bare AssertionError ("impossible by
        # construction"), which the static verifier — whose job is to
        # refute exactly such state — died of.
        routing, victim, upstream = self._pick(graph)
        nh = routing.state()[4].copy()
        nh[routing.csr.index[victim]] = routing.csr.index[upstream]
        bad = ArrayDestinationRouting.from_state(
            graph, routing.dest, (*routing.state()[:4], nh)
        )
        with pytest.raises(RoutingError, match="default-path loop"):
            bad.best_path(upstream)

    @pytest.fixture()
    def unknown_class(self):
        # On the chain 1 > 2 > 3 (plus 1's stub 4), AS 1's class cell
        # toward 3 holds 7: no code the kernel writes.
        g = ASGraph.from_links(p2c=[(1, 2), (2, 3), (1, 4)])
        routing = compute_array_routing(g, 3)
        cls = routing.state()[3].copy()
        cls[g.csr().index[1]] = 7
        state = (*routing.state()[:3], cls, routing.state()[4])
        return g, ArrayDestinationRouting.from_state(g, 3, state)

    @pytest.mark.parametrize("x", [4, 2])
    def test_rib_next_to_an_unknown_class_code_is_a_routing_error(self, unknown_class, x):
        # AS 1 is 4's provider and 2's: whether its route reaches them
        # depends on a class the code does not name, so neither RIB may
        # silently keep or drop it.
        _, bad = unknown_class
        with pytest.raises(RoutingError, match="inconsistent routing state.*class code 7"):
            bad.rib(x)
        with pytest.raises(RoutingError, match="inconsistent routing state"):
            bad.rib(x, loop_filter=False)

    def test_best_class_of_an_unknown_class_code_is_a_routing_error(self, unknown_class):
        _, bad = unknown_class
        with pytest.raises(RoutingError, match="inconsistent routing state.*class code 7"):
            bad.best_class(1)
        assert bad.best_class(2) is Relationship.CUSTOMER

    def test_verifier_reports_an_unknown_class_code_as_a_routing_error(self, unknown_class):
        g, bad = unknown_class
        with pytest.raises(RoutingError, match="inconsistent routing state"):
            verify_routing(g, lambda d: bad, [3])

    def test_intact_state_round_trips(self, graph):
        dest = sorted(graph.nodes())[0]
        routing = compute_array_routing(graph, dest)
        rebuilt = ArrayDestinationRouting.from_state(graph, dest, routing.state())
        probe = sorted(graph.nodes())[-1]
        assert rebuilt.best_path(probe) == routing.best_path(probe)
        assert rebuilt.rib(probe) == routing.rib(probe)


class TestKernelIndexValidation:
    """Fix 2: out-of-range and duplicate dense indices raise, never wrap."""

    def test_kernel_rejects_out_of_range_indices(self, graph):
        csr = graph.csr()
        n = csr.n_nodes
        for block in ((-1,), (n,), (0, n + 7), (3, -n)):
            with pytest.raises(TopologyError, match="outside"):
                converge_block(csr, block)

    def test_duplicate_indices_rejected(self, graph):
        with pytest.raises(TopologyError, match="duplicate"):
            converge_block(graph.csr(), [4, 9, 4])

    def test_last_index_still_converges(self, graph):
        """The boundary the wraparound used to alias: n - 1 is legal."""
        csr = graph.csr()
        n = csr.n_nodes
        state = converge_block(csr, (n - 1,))
        assert state[0][0, n - 1] == 0  # the destination's own customer length
