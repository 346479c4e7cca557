"""ServiceSession behavior: the event loop, bounded memory, the envelope."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.service import (
    CapacityJitter,
    FlowArrival,
    LinkFlap,
    ServiceConfig,
    ServiceSession,
)
from repro.topology.generator import TopologyConfig

TOPO = TopologyConfig(n_ases=70, seed=4)
CFG = ServiceConfig(
    seed=21,
    arrival_rate=60.0,
    mean_lifetime_events=8.0,
    p_link_event=0.06,
    p_capacity_event=0.06,
    record_capacity=16,
)


@pytest.fixture(scope="module")
def session():
    s = ServiceSession(CFG, topology=TOPO, telemetry=True)
    s.drain(40)
    return s


class TestEventLoop:
    def test_counts_add_up(self, session):
        assert session.events_processed == 40
        assert session.arrivals_total > 0
        assert session.retired_total > 0
        # Live flows = arrivals that have not yet retired.
        assert (
            session.engine.n_flows
            == session.arrivals_total - session.retired_total
        )

    def test_clock_advances_monotonically(self, session):
        assert session.clock_s > 0.0

    def test_drain_report(self):
        s = ServiceSession(CFG, topology=TOPO)
        report = s.drain(10)
        assert report.events == 10
        assert report.arrivals >= 0
        assert report.clock_s == s.clock_s
        assert report.last_record is s.engine.records[-1]

    def test_drain_negative_rejected(self, session):
        with pytest.raises(ConfigError):
            session.drain(-1)

    def test_step_returns_the_newest_record(self):
        s = ServiceSession(CFG, topology=TOPO)
        rec = s.step()
        assert rec is s.engine.records[-1]
        assert rec.index == 1  # epoch 0 is the bootstrap pass


class TestBoundedMemory:
    def test_record_ring_capacity_holds(self, session):
        assert len(session.engine.records) == CFG.record_capacity

    def test_flow_population_turns_over(self, session):
        # Short lifetimes: the population cannot grow monotonically.
        assert session.retired_total >= 5
        assert session.engine.n_flows < session.arrivals_total

    def test_unbounded_ring_when_unset(self):
        cfg = ServiceConfig(seed=21, record_capacity=None)
        s = ServiceSession(cfg, topology=TOPO)
        s.drain(12)
        assert len(s.engine.records) == 13  # bootstrap + 12 events


class TestFeed:
    def test_fed_event_runs_before_the_stream(self):
        s = ServiceSession(CFG, topology=TOPO)
        nodes = sorted(s.engine.graph.nodes())
        s.feed(FlowArrival(src=nodes[0], dst=nodes[-1], lifetime=5))
        rec = s.step()
        assert rec.kind == "arrival"
        assert s.engine.n_flows == 1
        # The generated stream was not consumed by the fed event.
        assert s._stream_index == 0

    def test_negative_dt_rejected(self):
        s = ServiceSession(CFG, topology=TOPO)
        with pytest.raises(ConfigError):
            s.feed(FlowArrival(src=1, dst=2, lifetime=1), dt=-0.5)


class TestHostileFedEvents:
    """A fed capacity factor must be finite and >= 0, and a fed pick a
    number in [0, 1]; anything else is a ConfigError naming the field,
    raised before the plane changes."""

    @pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf])
    def test_capacity_factor(self, factor):
        s = ServiceSession(CFG, topology=TOPO)
        s.drain(5)
        plane = s.engine.plane
        links_before = dict(plane.links)
        s.feed(CapacityJitter(pick=0.5, factor=factor))
        with pytest.raises(ConfigError, match="factor"):
            s.step()
        assert plane.links == links_before
        assert np.isfinite(plane.cap_factor).all() and plane.cap_factor.min() >= 0.0

    @pytest.mark.parametrize("pick", [-0.5, -3.0, 1.5, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["jitter", "flap"])
    def test_pick(self, kind, pick):
        s = ServiceSession(CFG, topology=TOPO)
        if kind == "jitter":
            event = CapacityJitter(pick=pick, factor=0.5)
        else:
            event = LinkFlap(pick=pick, recover_draw=0.9, max_failed=4)
        s.feed(event)
        with pytest.raises(ConfigError, match="pick"):
            s.step()
        assert s.engine.failed_links == ()
        assert (s.engine.plane.cap_factor == 1.0).all()

    @pytest.mark.parametrize("pick", [0.0, 1.0])
    def test_pick_bounds_are_links(self, pick):
        s = ServiceSession(CFG, topology=TOPO)
        s.feed(CapacityJitter(pick=pick, factor=0.5))
        s.step()
        links = s.engine.graph.links()
        u, v, _ = links[0] if pick == 0.0 else links[-1]
        plane = s.engine.plane
        assert plane.cap_factor[[plane.links[(u, v)], plane.links[(v, u)]]].tolist() == [0.5, 0.5]


class TestSnapshot:
    def test_snapshot_gauges(self, session):
        snap = session.snapshot()
        assert snap["events"] == 40
        assert snap["flows_live"] == session.engine.n_flows
        assert snap["arrivals_total"] == session.arrivals_total
        assert isinstance(snap["telemetry"], dict)
        assert snap["telemetry"]["counters"]

    def test_snapshot_without_telemetry(self):
        s = ServiceSession(CFG, topology=TOPO)
        s.drain(3)
        assert s.snapshot()["telemetry"] is None


class TestResultEnvelope:
    def test_envelope_shape(self, session):
        result = session.result()
        assert result.name == "service"
        assert "live flows" in result.series
        assert "total throughput (Gbps)" in result.series
        assert result.meta["events"] == 40
        assert result.raw is session

    def test_provenance_split(self, session):
        payload = json.loads(session.result().to_json(include_provenance=False))
        assert "backend" not in payload["meta"]
        assert "scenario_engine" not in payload["meta"]
        assert payload["meta"]["events"] == 40

    def test_same_config_same_payload(self):
        a = ServiceSession(CFG, topology=TOPO)
        b = ServiceSession(CFG, topology=TOPO)
        a.drain(25)
        b.drain(25)
        assert a.result().to_json(include_provenance=False) == b.result().to_json(
            include_provenance=False
        )

    def test_cross_backend_payload_identical(self):
        d = ServiceSession(CFG, topology=TOPO, backend="dict")
        a = ServiceSession(CFG, topology=TOPO, backend="array")
        d.drain(25)
        a.drain(25)
        assert d.result().to_json(include_provenance=False) == a.result().to_json(
            include_provenance=False
        )


class TestConfigValidation:
    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(p_link_event=0.6, p_capacity_event=0.5).validate()

    def test_bad_traffic_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(traffic="bursty").validate()

    def test_bad_record_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(record_capacity=0).validate()

    def test_verify_every_runs(self):
        cfg = ServiceConfig(
            seed=21,
            arrival_rate=60.0,
            mean_lifetime_events=8.0,
            verify_every=5,
        )
        s = ServiceSession(cfg, topology=TOPO)
        s.drain(10)  # the verified epochs must not throw
        assert s.events_processed == 10
