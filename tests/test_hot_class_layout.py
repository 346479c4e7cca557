"""Pins the instance layout of the classes every routing query reads.

One extra instance key on these classes — a field, a slot, a property or
a ``cached_property`` that lands in ``__dict__`` — un-shares the attribute
table CPython specialises ``csr.<field>`` / ``view.<slot>`` reads on.
ROADMAP's ground rules record the cost: every view query 4–5 % slower on
``path_query_10k``.  Derive new values per call instead; if a new member
really pays for itself, re-measure ``path_query_10k`` (ten alternating
parent/head pairs through ``bench/compare.py``) before updating a pin.
"""

import dataclasses
import functools

from repro.bgp.array_routing import ArrayDestinationRouting, compute_array_routing
from repro.bgp.propagation import RoutingCache
from repro.topology.asgraph import ASGraph, CsrAdjacency, PullSchedule

REMEASURE = (
    "{cls}'s layout changed: {got} != {want}.  One more instance key cost "
    "every view query 4-5 % on path_query_10k (ROADMAP ground rules); "
    "re-measure that workload with bench/compare.py before updating this pin."
)


def _assert_layout(cls, got, want):
    assert got == want, REMEASURE.format(cls=cls.__name__, got=got, want=want)


def _properties(cls):
    return sorted(
        name
        for name, member in vars(cls).items()
        if isinstance(member, (property, functools.cached_property))
    )


def _graph():
    return ASGraph.from_links(p2c=[(1, 2), (2, 3), (1, 4)], peering=[(2, 4)])


def test_array_view_slots():
    _assert_layout(
        ArrayDestinationRouting,
        ArrayDestinationRouting.__slots__,
        (
            "graph",
            "csr",
            "dest",
            "_dest_idx",
            "_cust",
            "_peer",
            "_export",
            "_class",
            "_nh",
            "_path_cache",
            "_rib_cache",
        ),
    )
    _assert_layout(ArrayDestinationRouting, _properties(ArrayDestinationRouting), [])
    view = compute_array_routing(_graph(), 3)
    view.rib(4)
    view.best_path(4)
    assert not hasattr(view, "__dict__")


def test_csr_fields_and_instance_keys():
    want = [
        "asns",
        "index",
        "cust_indptr",
        "cust_indices",
        "prov_indptr",
        "prov_indices",
        "peer_indptr",
        "peer_indices",
        "nbr_indptr",
        "nbr_indices",
        "nbr_rel",
        "_pull_schedule",
    ]
    _assert_layout(CsrAdjacency, [f.name for f in dataclasses.fields(CsrAdjacency)], want)
    _assert_layout(CsrAdjacency, _properties(CsrAdjacency), ["n_nodes", "pull_schedule"])
    graph = _graph()
    csr = graph.csr()
    csr.pull_schedule  # fills the declared cache field, adds no key
    compute_array_routing(graph, 3).rib(4)
    _assert_layout(CsrAdjacency, list(vars(csr)), want)


def test_pull_schedule_fields():
    _assert_layout(
        PullSchedule,
        [f.name for f in dataclasses.fields(PullSchedule)],
        ["slot_of", "level_starts", "levels", "cyclic"],
    )
    _assert_layout(PullSchedule, _properties(PullSchedule), [])


def test_routing_cache_instance_keys():
    cache = RoutingCache(_graph(), backend="array")
    cache.precompute([3])
    cache(3).rib(4)
    cache(2)
    _assert_layout(
        RoutingCache,
        list(vars(cache)),
        ["graph", "max_entries", "backend", "_cache", "_hits", "_misses", "_evictions"],
    )
    _assert_layout(RoutingCache, _properties(RoutingCache), ["stats"])
