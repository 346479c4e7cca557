"""Fed events are checked once, where they enter: ``feed`` and restore.

A fed gap ``dt`` must be a finite number >= 0, and a fed arrival's
``src``/``dst`` two distinct ASes of the topology and its ``lifetime`` an
int >= 1.  Whatever value any field holds, feeding it (or restoring a
checkpoint that carries it) raises a ``ConfigError`` naming the field, or
is accepted and the session steps on cleanly — never another exception,
a stopped clock or a blocked expiry heap.  A restored batch buffer holds arrivals only: every other event
is a barrier that never buffers.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service import FlowArrival, LinkFlap, ServiceConfig, ServiceSession
from repro.topology.generator import TopologyConfig

TOPO = TopologyConfig(n_ases=70, seed=6)
CFG = ServiceConfig(seed=29, arrival_rate=60.0, record_capacity=24)

#: any value a field could be handed
ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def checkpoint():
    s = ServiceSession(CFG, topology=TOPO)
    s.drain(8)
    return s.checkpoint()


@pytest.fixture(scope="module")
def nodes(checkpoint):
    return sorted(ServiceSession.restore(checkpoint).engine.graph.nodes())


def _honest(nodes):
    return {"src": nodes[0], "dst": nodes[-1], "lifetime": 3, "dt": 0.5}


def _fields(nodes, data):
    """An honest arrival's fields and gap, one of them replaced by anything."""
    fields = _honest(nodes)
    name = data.draw(st.sampled_from(sorted(fields)))
    fields[name] = data.draw(ANY)
    return name, fields.pop("dt"), fields


def _steps_on(session):
    """An accepted event steps like a generated one: the session drains
    on, its clock finite and its expiry heap of int pairs."""
    session.drain(12)
    assert math.isfinite(session.clock_s)
    assert all(type(due) is int and type(fid) is int for due, fid in session._expiry)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_feed_any_field(checkpoint, nodes, data):
    name, dt, fields = _fields(nodes, data)
    session = ServiceSession.restore(checkpoint)
    try:
        session.feed(FlowArrival(**fields), dt=dt)
    except ConfigError as exc:
        assert name in str(exc)
        return
    _steps_on(session)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_restore_any_field(checkpoint, nodes, data):
    name, dt, fields = _fields(nodes, data)
    bad = copy.deepcopy(checkpoint)
    bad["session"]["fed"] = [[dt, "arrival", fields]]
    try:
        session = ServiceSession.restore(bad)
    except ConfigError as exc:
        assert name in str(exc)
        return
    _steps_on(session)


@pytest.mark.parametrize(
    "name, value",
    [
        ("lifetime", math.nan),
        ("lifetime", 0),
        ("lifetime", -3),
        ("lifetime", 2.5),
        ("lifetime", "x"),
        ("lifetime", True),
        ("src", True),
        ("src", 1.0),
        ("src", 10**6),
        ("dst", "x"),
        ("dt", math.nan),
        ("dt", math.inf),
        ("dt", -0.5),
        ("dt", "0.1"),
        ("dt", 10**400),
    ],
)
def test_named_refusals(checkpoint, nodes, name, value):
    fields = _honest(nodes)
    fields[name] = value
    dt = fields.pop("dt")
    session = ServiceSession.restore(checkpoint)
    with pytest.raises(ConfigError, match=name):
        session.feed(FlowArrival(**fields), dt=dt)
    assert not session._fed


def test_coinciding_endpoints_refused(checkpoint, nodes):
    session = ServiceSession.restore(checkpoint)
    with pytest.raises(ConfigError, match="coincide"):
        session.feed(FlowArrival(src=nodes[1], dst=nodes[1], lifetime=3))


def test_refused_arrival_leaves_the_session_whole(checkpoint):
    """An arrival the engine would refuse is refused at ``feed``, so no
    retirement is queued for a flow that never registers."""
    session = ServiceSession.restore(checkpoint)
    with pytest.raises(ConfigError, match="src"):
        session.feed(FlowArrival(src=10**6, dst=5, lifetime=2))
    session.drain(30)


def test_non_event_refused(checkpoint):
    session = ServiceSession.restore(checkpoint)
    with pytest.raises(ConfigError, match="stream event"):
        session.feed(None)


def test_nan_dt_refused_for_a_flap(checkpoint):
    session = ServiceSession.restore(checkpoint)
    with pytest.raises(ConfigError, match="dt"):
        session.feed(LinkFlap(pick=0.5, recover_draw=0.9, max_failed=4), dt=math.nan)


@pytest.mark.parametrize("kind", ["link_flap", "capacity_jitter", None])
def test_restored_pending_tick_must_be_an_arrival(checkpoint, kind):
    bad = copy.deepcopy(checkpoint)
    bad["session"]["pending"] = [[[], kind, {"pick": 0.5, "factor": 0.5}]]
    with pytest.raises(ConfigError, match="only arrivals buffer"):
        ServiceSession.restore(bad)
