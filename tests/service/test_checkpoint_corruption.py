"""Checkpoint restore under a corrupted failed-link stack.

The stack is replayed over the regenerated base graph, and each entry's
relationship is what a later ``recover_link`` re-adds.  So an entry must
name a link of the replayed graph with the relationship it carries
there; anything else is refused with a :class:`~repro.errors.ConfigError`
naming the link, instead of a bare ``KeyError`` or a silent restore that
re-adds the wrong link later.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service import ServiceConfig, ServiceSession
from repro.topology.generator import TopologyConfig
from repro.topology.relationships import Relationship

TOPO = TopologyConfig(n_ases=70, seed=6)
CFG = ServiceConfig(seed=29, arrival_rate=60.0, p_link_event=0.3, record_capacity=24)


@pytest.fixture(scope="module")
def honest():
    """A checkpoint whose failed-link stack holds at least two links."""
    s = ServiceSession(CFG, topology=TOPO)
    while len(s.engine.failed_links) < 2:
        s.step()
    return s.checkpoint()


@pytest.fixture(scope="module")
def base_graph():
    return ServiceSession(CFG, topology=TOPO, bootstrap=False)._base_graph


def _with_entry(state, pos, entry):
    bad = copy.deepcopy(state)
    bad["engine"]["failed"][pos] = entry
    return bad


def _refused(state, u, v):
    with pytest.raises(ConfigError, match=f"link {u}-{v} "):
        ServiceSession.restore(state)


def test_honest_checkpoint_restores(honest):
    restored = ServiceSession.restore(copy.deepcopy(honest))
    assert [[u, v, r.name] for u, v, r in restored.engine.failed_links] == (
        honest["engine"]["failed"]
    )


class TestCorruptedFailedStack:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_one_rewritten_entry(self, honest, base_graph, data):
        failed = honest["engine"]["failed"]
        pos = data.draw(st.integers(0, len(failed) - 1))
        u, v, name = failed[pos]
        kind = data.draw(st.sampled_from(["name", "relationship", "endpoint"]))
        if kind == "name":
            rel = data.draw(st.sampled_from(["BOGUS", "peer", "", 0, None]))
        elif kind == "relationship":
            rel = data.draw(st.sampled_from([r.name for r in Relationship if r.name != name]))
        else:
            # An AS of the graph that is no neighbour of u.
            others = [x for x in base_graph.nodes() if x != u and x not in base_graph.neighbors(u)]
            v = data.draw(st.sampled_from(others))
            rel = name
        _refused(_with_entry(honest, pos, [u, v, rel]), u, v)

    def test_unknown_relationship_name(self, honest):
        u, v, _ = honest["engine"]["failed"][0]
        _refused(_with_entry(honest, 0, [u, v, "BOGUS"]), u, v)

    def test_p2c_recorded_as_peering(self, honest, base_graph):
        pos, (u, v, name) = next(
            (i, e) for i, e in enumerate(honest["engine"]["failed"]) if e[2] != "PEER"
        )
        assert base_graph.relationship(u, v).name == name
        _refused(_with_entry(honest, pos, [u, v, "PEER"]), u, v)

    def test_link_listed_twice(self, honest):
        bad = copy.deepcopy(honest)
        bad["engine"]["failed"].append(list(bad["engine"]["failed"][0]))
        u, v, _ = bad["engine"]["failed"][0]
        _refused(bad, u, v)
