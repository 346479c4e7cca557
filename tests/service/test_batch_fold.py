"""``BatchTick.apply`` folds in one pass what the nested merge folded twice.

The nested fold — merge each tick's retire-then-event effects, then
merge the merges — is restated here as the oracle.  Over random runs of
arrival and retirement ticks (ticks with no retirement and ticks with no
event included), the one-pass fold must give the same ``EventEffect``
and leave the engine in the same state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import BatchTick, FlowArrival, ServiceConfig, ServiceSession, ServiceTick
from repro.service.stream import merge_effects
from repro.topology.generator import TopologyConfig

from .test_checkpoint_completeness import Walk

TOPO = TopologyConfig(n_ases=70, seed=6)
CFG = ServiceConfig(seed=29, arrival_rate=60.0, p_link_event=0.0, p_capacity_event=0.0)


def nested_fold(ticks, engine):
    """The fold ``BatchTick.apply`` replaced: one merge per tick, then one
    merge of the merges."""
    return merge_effects([t.apply(engine) for t in ticks])


@pytest.fixture(scope="module")
def checkpoint():
    """A session with live, routed flows to retire."""
    s = ServiceSession(CFG, topology=TOPO)
    s.drain(20)
    assert s.engine.n_flows > 0
    return s.checkpoint()


@st.composite
def tick_runs(draw, live, next_id, nodes):
    """A run of ticks over live flow ids ``live``; an arrival takes the
    next id, and a later tick of the run may retire it."""
    live = list(live)
    ticks = []
    for _ in range(draw(st.integers(0, 12))):
        retire = ()
        if live and draw(st.booleans()):
            retire = tuple(draw(st.lists(st.sampled_from(live), unique=True, max_size=3)))
            live = [fid for fid in live if fid not in retire]
        event = None
        if draw(st.booleans()):
            src, dst = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
            event = FlowArrival(src=src, dst=dst, lifetime=1)
            live.append(next_id)
            next_id += 1
        ticks.append(ServiceTick(retire=retire, event=event))
    return tuple(ticks)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_one_pass_fold_equals_nested_fold(checkpoint, data):
    one_pass = ServiceSession.restore(checkpoint)
    nested = ServiceSession.restore(checkpoint)
    engine = one_pass.engine
    ticks = data.draw(
        tick_runs(sorted(engine._flows), engine.next_flow_id, sorted(engine.graph.nodes()))
    )
    got = BatchTick(ticks=ticks).apply(one_pass.engine)
    want = nested_fold(ticks, nested.engine)
    assert got == want
    walk = Walk()
    walk.value(one_pass.engine, nested.engine, "engine")
    assert walk.diffs == []
