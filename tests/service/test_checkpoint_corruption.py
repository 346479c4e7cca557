"""Checkpoint restore under corrupted documents.

The failed-link stack is replayed over the regenerated base graph, and
each entry's relationship is what a later ``recover_link`` re-adds.  So
an entry must name a link of the replayed graph with the relationship it
carries there; anything else is refused with a
:class:`~repro.errors.ConfigError` naming the link, instead of a bare
``KeyError`` or a silent restore that re-adds the wrong link later.

The rest of the document gets the same treatment: whatever the damage —
not JSON, a missing field, a wrong type, a short column, a flow path
that is not a path of the topology, a flow listed twice — the only
outcomes are a successful restore or a ``ConfigError`` naming the field
or the flow.
"""

import contextlib
import copy
import dataclasses
import functools
import json
import operator

import numpy as np
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


@pytest.fixture(scope="module")
def stepped():
    """A 70-AS session after 40 steps, with detector state and flows."""
    s = ServiceSession(
        dataclasses.replace(CFG, detector="threshold"), topology=TOPO, telemetry=True
    )
    s.drain(40)
    state = s.checkpoint()
    assert any(row[3] for row in state["engine"]["flows"]), "no routed flow"
    return state


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints")


def _routed_flow(state):
    """Position and row of the first flow with a path of 3+ ASes."""
    return next(
        (i, row) for i, row in enumerate(state["engine"]["flows"]) if row[3] and len(row[3]) > 2
    )


def _paths(doc, where=()):
    """The key path of every node below the root of a JSON tree."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield where + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, where + (key,))


class TestHostileDocument:
    def test_top_level_list(self, ckpt_dir):
        path = ckpt_dir / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match="top level is a list"):
            ServiceSession.restore(str(path))

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_truncated_json(self, stepped, ckpt_dir, data):
        text = json.dumps(stepped, sort_keys=True)
        path = ckpt_dir / "truncated.json"
        path.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
        with pytest.raises(ConfigError, match="is not JSON"):
            ServiceSession.restore(str(path))

    def test_missing_links(self, stepped):
        bad = copy.deepcopy(stepped)
        del bad["engine"]["links"]
        with pytest.raises(ConfigError, match="engine.links"):
            ServiceSession.restore(bad)

    def test_short_column(self, stepped):
        bad = copy.deepcopy(stepped)
        bad["engine"]["cap_factor"].pop()
        with pytest.raises(ConfigError, match="engine.cap_factor"):
            ServiceSession.restore(bad)

    def test_link_listed_twice(self, stepped):
        bad = copy.deepcopy(stepped)
        es = bad["engine"]
        for name in ("links", "cap_factor", "exo_frac", "congested", "alloc"):
            es[name].append(es[name][0])
        with pytest.raises(ConfigError, match="engine.links lists a link twice"):
            ServiceSession.restore(bad)

    def test_rtt_section_without_a_monitor(self, stepped):
        bad = copy.deepcopy(stepped)
        bad["config"]["detector"] = "oracle"
        with pytest.raises(ConfigError, match="engine.rtt disagrees"):
            ServiceSession.restore(bad)

    def test_unknown_record_key(self, stepped):
        bad = copy.deepcopy(stepped)
        bad["engine"]["records"][0]["bogus"] = 1
        with pytest.raises(ConfigError, match="engine.records"):
            ServiceSession.restore(bad)

    @pytest.mark.parametrize("damage", ["foreign AS", "reversed"])
    def test_flow_path_off_the_topology(self, stepped, damage):
        bad = copy.deepcopy(stepped)
        pos, row = _routed_flow(bad)
        if damage == "reversed":
            row[3].reverse()
        else:
            row[3].insert(1, 99999)
        with pytest.raises(ConfigError, match=f"flow {row[0]}: path"):
            ServiceSession.restore(bad)

    def test_duplicated_flow(self, stepped):
        bad = copy.deepcopy(stepped)
        pos, row = _routed_flow(bad)
        bad["engine"]["flows"].insert(pos + 1, copy.deepcopy(row))
        with pytest.raises(ConfigError, match=f"flow {row[0]} is listed twice"):
            ServiceSession.restore(bad)

    @pytest.mark.parametrize(
        "fields",
        [
            {"pick": 0.5, "factor": -1.0},
            {"pick": 0.5, "factor": float("nan")},
            {"pick": -0.5, "factor": 0.5},
        ],
    )
    def test_hostile_fed_entry(self, stepped, fields):
        """A fed capacity jitter with a bad factor or pick restores, but
        never reaches the plane: applying it raises a ConfigError."""
        bad = copy.deepcopy(stepped)
        bad["session"]["fed"] = [[0.0, "capacity_jitter", fields]]
        session = ServiceSession.restore(bad)
        field = "factor" if fields["factor"] != 0.5 else "pick"
        with pytest.raises(ConfigError, match=field):
            session.drain(3)
        cap_factor = session.engine.plane.cap_factor
        assert np.isfinite(cap_factor).all() and cap_factor.min() >= 0.0

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_hostile_cap_factor_column(self, stepped, value):
        bad = copy.deepcopy(stepped)
        bad["engine"]["cap_factor"][0] = value
        with pytest.raises(ConfigError, match="factor"):
            ServiceSession.restore(bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["arrival_rate", "mean_lifetime_events", "zipf_alpha", "link_capacity_bps"],
    )
    def test_non_finite_config_value(self, stepped, field, value):
        bad = copy.deepcopy(stepped)
        bad["config"][field] = value
        with pytest.raises(ConfigError, match=field):
            ServiceSession.restore(bad)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_single_mutation(self, stepped, data):
        """Delete one node of the document or replace it with a value of
        another type: the restore succeeds or raises ConfigError."""
        path = data.draw(st.sampled_from(list(_paths(stepped))))
        bad = copy.deepcopy(stepped)
        parent = functools.reduce(operator.getitem, path[:-1], bad)
        replacement = data.draw(st.sampled_from(["delete", None, "x", -1, 0.5, [], {}]))
        if replacement == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
        with contextlib.suppress(ConfigError):
            ServiceSession.restore(bad)
