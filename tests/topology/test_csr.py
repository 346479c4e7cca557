"""The CSR adjacency view frozen graphs expose for the array backend."""

import dataclasses

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.asgraph import ASGraph
from repro.topology.dynamics import without_link
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.relationships import Relationship


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=150, seed=11))


class TestCsr:
    def test_requires_frozen(self):
        g = ASGraph()
        g.add_p2c(1, 0)
        with pytest.raises(TopologyError, match="freeze"):
            g.csr()

    def test_cached_per_graph(self, graph):
        assert graph.csr() is graph.csr()

    def test_index_is_ascending_asn_order(self, graph):
        csr = graph.csr()
        assert np.all(np.diff(csr.asns) > 0)
        assert all(csr.index[int(a)] == i for i, a in enumerate(csr.asns))
        assert csr.n_nodes == len(graph)

    def test_per_class_rows_match_graph(self, graph):
        csr = graph.csr()
        asns = csr.asns
        for i in range(csr.n_nodes):
            asn = int(asns[i])
            lo, hi = csr.cust_indptr[i], csr.cust_indptr[i + 1]
            assert [int(asns[j]) for j in csr.cust_indices[lo:hi]] == graph.customers(asn)
            lo, hi = csr.prov_indptr[i], csr.prov_indptr[i + 1]
            assert [int(asns[j]) for j in csr.prov_indices[lo:hi]] == graph.providers(asn)
            lo, hi = csr.peer_indptr[i], csr.peer_indptr[i + 1]
            assert [int(asns[j]) for j in csr.peer_indices[lo:hi]] == graph.peers(asn)

    def test_combined_rows_carry_relationships(self, graph):
        csr = graph.csr()
        asns = csr.asns
        for i in (0, csr.n_nodes // 2, csr.n_nodes - 1):
            nbrs, rels = csr.neighbors_of(i)
            seen = {
                int(asns[j]): Relationship(int(r)) for j, r in zip(nbrs, rels)
            }
            assert seen == graph.neighbors(int(asns[i]))

    @pytest.mark.parametrize("derived", [False, True], ids=["base", "derived"])
    def test_arrays_are_read_only(self, graph, derived):
        # Derived graphs share arrays with their parent, so one in-place
        # write would corrupt every graph of a timeline.
        if derived:
            u, v, _ = graph.links()[len(graph.links()) // 2]
            graph = without_link(graph, u, v)
        csr = graph.csr()
        for field in dataclasses.fields(csr):
            arr = getattr(csr, field.name)
            if isinstance(arr, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    arr.fill(0)

    def test_fields_cannot_be_rebound(self, graph):
        # The CSR and its level schedule are frozen dataclasses: swapping
        # an array out is refused just like writing into one.
        csr = graph.csr()
        with pytest.raises(dataclasses.FrozenInstanceError):
            csr.nbr_indices = np.zeros(0, dtype=np.int64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            csr.pull_schedule.level_starts = np.zeros(0, dtype=np.int64)

    def test_edge_counts_consistent(self, graph):
        csr = graph.csr()
        assert len(csr.cust_indices) == len(csr.prov_indices)
        assert len(csr.peer_indices) % 2 == 0
        total = len(csr.cust_indices) + len(csr.prov_indices) + len(csr.peer_indices)
        assert total == len(csr.nbr_indices) == 2 * graph.num_links()


class TestPullSchedule:
    """The provider-hierarchy level schedule the block kernel sweeps."""

    def test_cached_and_read_only(self, graph):
        csr = graph.csr()
        schedule = csr.pull_schedule
        assert schedule is csr.pull_schedule
        arrays = [schedule.slot_of, schedule.level_starts]
        for _, _, columns in schedule.levels:
            for slots, provs in columns:
                arrays += [slots, provs]
        assert all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            schedule.slot_of.fill(0)

    def test_slots_are_a_permutation_in_level_order(self, graph):
        csr = graph.csr()
        schedule = csr.pull_schedule
        assert sorted(schedule.slot_of.tolist()) == list(range(csr.n_nodes))
        assert not schedule.cyclic
        # levels tile [first level's start, n) and every provider sits in
        # an earlier slot range than its customer's level
        starts = schedule.level_starts.tolist()
        assert starts == [lo for lo, _, _ in schedule.levels] + [csr.n_nodes]
        assert [hi for _, hi, _ in schedule.levels] == starts[1:]
        for lo, _, columns in schedule.levels:
            assert all(int(slots.max()) < lo for slots, _ in columns)

    def test_columns_enumerate_provider_rows(self, graph):
        """Column j of a level holds exactly the j-th provider (ascending
        ASN) of the level's nodes that have more than j providers."""
        csr = graph.csr()
        schedule = csr.pull_schedule
        node_at = np.argsort(schedule.slot_of)
        seen = 0
        for lo, hi, columns in schedule.levels:
            for k, node in enumerate(node_at[lo:hi].tolist()):
                row = csr.prov_indices[csr.prov_indptr[node] : csr.prov_indptr[node + 1]]
                mine = [int(provs[k]) for _, provs in columns if k < len(provs)]
                assert mine == row.tolist()
                seen += len(row)
            for slots, provs in columns:
                assert np.array_equal(slots, schedule.slot_of[provs])
        assert seen == len(csr.prov_indices)
        # level 0 is exactly the provider-free ASes
        first = schedule.levels[0][0]
        assert sorted(node_at[:first].tolist()) == [
            csr.index[a] for a in sorted(graph.tier1_ases())
        ]

    def test_provider_cycle_becomes_a_fixpoint_level(self):
        g = ASGraph()
        for provider, customer in [(1, 2), (2, 3), (3, 1), (0, 1), (3, 4)]:
            g.add_p2c(provider, customer)
        g.freeze(require_acyclic_hierarchy=False)
        schedule = g.csr().pull_schedule
        assert schedule.cyclic
        lo, hi, _ = schedule.levels[-1]
        tail = np.argsort(schedule.slot_of)[lo:hi]
        # the cycle 1 -> 2 -> 3 -> 1 and everything below it
        assert sorted(int(g.csr().asns[i]) for i in tail) == [1, 2, 3, 4]

    def test_cycle_without_any_provider_free_as(self):
        """Nothing to peel: the closure is still a level, not level 0."""
        g = ASGraph()
        for provider, customer in [(1, 2), (2, 3), (3, 1)]:
            g.add_p2c(provider, customer)
        g.freeze(require_acyclic_hierarchy=False)
        schedule = g.csr().pull_schedule
        assert schedule.cyclic
        assert [(lo, hi) for lo, hi, _ in schedule.levels] == [(0, 3)]
