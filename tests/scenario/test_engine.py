"""Behavioral tests for :class:`repro.scenario.engine.ScenarioEngine`."""

from __future__ import annotations

import pytest

from repro import telemetry as tm
from repro.errors import ConfigError, SimulationError, VerificationError
from repro.scenario.engine import EventEffect, ScenarioConfig, ScenarioEngine
from repro.scenario.events import (
    FlashCrowd,
    LinkFail,
    LinkRecover,
    ScenarioSpec,
    TrafficRamp,
    get_scenario,
)
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.traffic.matrix import TrafficConfig, uniform_matrix


def _demands(graph, n=60, seed=99):
    return uniform_matrix(graph, TrafficConfig(n_flows=n, seed=seed))


def _engine(graph, spec, *, demands=None, **cfg):
    return ScenarioEngine(
        graph,
        demands if demands is not None else _demands(graph),
        spec,
        config=ScenarioConfig(**cfg) if cfg else None,
    )


class TestConfig:
    def test_defaults_validate(self):
        ScenarioConfig().validate()

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ScenarioConfig(mode="lazy").validate()

    def test_bad_thresholds(self):
        with pytest.raises(ConfigError, match="clear_threshold"):
            ScenarioConfig(congest_threshold=0.5, clear_threshold=0.8).validate()

    def test_bad_capacity(self):
        with pytest.raises(ConfigError, match="link_capacity_bps"):
            ScenarioConfig(link_capacity_bps=0).validate()


class TestRun:
    def test_link_flap_end_to_end(self, small_internet):
        spec = get_scenario("link_flap")
        engine = _engine(small_internet, spec, crosscheck=True)
        run = engine.run()
        assert run.scenario == "link_flap"
        assert run.n_events == len(spec.timeline) == 4
        assert len(run.records) == 5
        first = run.records[0]
        assert first.kind == "initial"
        assert first.index == 0
        assert first.flows_total == 60
        # The fail/recover pairs cancel out: original adjacency restored.
        assert set(engine.graph.links()) == set(small_internet.links())
        for rec in run.records:
            assert rec.flows_unroutable >= 0
            assert rec.flows_total >= rec.flows_unroutable
            assert rec.mean_rate_mbps >= 0.0
        # Each link event re-certified at least its dirty destinations.
        for rec in run.records[1:]:
            assert rec.verified_dests >= rec.dirty_dests

    def test_crosscheck_refutes_a_corrupted_pool(self, small_internet):
        engine = _engine(
            small_internet, get_scenario("link_flap"), crosscheck=True
        )
        engine.step(0.0, None)
        # Inflate one pooled column's multiplicity: the next fill books
        # one flow's bandwidth too many on that path's links.
        solver = engine.solver
        fid = next(f.flow_id for f in engine._flows.values() if f.link_ids)
        solver._mult[solver._flow_col[fid]] += 1.0  # private-store: deliberate
        with pytest.raises(SimulationError, match="crosscheck failed"):
            engine.step(1.0, TrafficRamp(frac=0.1))

    def test_runs_are_deterministic(self, small_internet):
        spec = get_scenario("flash_crowd")
        a = _engine(small_internet, spec).run()
        b = _engine(small_internet, spec).run()
        assert a.records == b.records

    def test_traffic_ramp_grows_population(self, small_internet):
        spec = ScenarioSpec("ramp", "x", ((1.0, TrafficRamp(frac=0.5)),))
        engine = _engine(small_internet, spec)
        run = engine.run()
        assert run.records[0].flows_total == 60
        assert run.records[1].flows_total == 60 + engine.frac_to_count(0.5) == 90

    def test_flash_crowd_targets_popular_dst(self, small_internet):
        engine = _engine(
            small_internet,
            ScenarioSpec("crowd", "x", ((1.0, FlashCrowd(frac=0.25)),)),
        )
        engine.step(0.0, None)
        popular = engine.pick_popular_dst()
        before = len(engine._flows)
        engine.step(1.0, FlashCrowd(frac=0.25))
        added = [
            f for fid, f in engine._flows.items() if fid >= before
        ]
        assert added and all(f.dst == popular for f in added)

    def test_unroutable_flow_retried_on_recovery(self):
        # 0 <- 1 <- 2 with one demand 2 -> 0; cutting the access link 1-0
        # strands the flow, recovery restores it.
        graph = ASGraph.from_links(p2c=[(1, 0), (2, 1)])
        demands = _demands(graph, n=1)
        demands[0] = type(demands[0])(
            flow_id=0, src=2, dst=0, size_bytes=10e6, start_time=0.0
        )
        spec = ScenarioSpec(
            "strand",
            "cut and restore the only access link",
            ((1.0, LinkFail(u=1, v=0)), (2.0, LinkRecover())),
        )
        run = ScenarioEngine(graph, demands, spec).run()
        assert [r.flows_unroutable for r in run.records] == [0, 1, 0]
        assert run.records[2].flows_rerouted == 1


class _ForgedDeflection:
    """An event that does nothing but record a deflection no FIB backs."""

    kind = "forge"

    def apply(self, engine):
        tm.event(
            "deflection", **{"as": 1}, dst=0, upstream=None, default_nh=0, chosen=-42
        )
        return EventEffect(target="forged")


class TestEpochTraceCrossCheck:
    """Step 7's trace half judges the epoch's own events — the ring's
    tail — however much older history the ring still holds."""

    def _refutation(self, history: int) -> str:
        graph = ASGraph.from_links(p2c=[(1, 0), (2, 1)])
        telemetry = tm.Telemetry(trace_capacity=64)
        for i in range(history):
            # Older deflections, equally unbacked: judging them again would
            # change the message (and they were some earlier epoch's).
            telemetry.event("deflection", **{"as": 2}, dst=0, default_nh=1, chosen=-i)
        engine = ScenarioEngine(graph, [], ScenarioSpec("forge", "x", ()))
        with tm.telemetry_session(telemetry):
            engine.step(0.0, None)
            with pytest.raises(VerificationError) as err:
                engine.step(1.0, _ForgedDeflection())
        return str(err.value)

    def test_full_and_almost_empty_ring_report_the_same(self):
        almost_empty = self._refutation(history=0)
        assert "event 0: AS 1 deflected to -42, which is not in its RIB" in almost_empty
        assert self._refutation(history=63) == almost_empty  # one slot left
        assert self._refutation(history=1000) == almost_empty  # wrapped many times


class TestPrimitives:
    def test_recover_without_failure(self, fig2a_graph):
        engine = _engine(fig2a_graph, get_scenario("link_flap"), demands=[])
        with pytest.raises(ConfigError, match="no failed link"):
            engine.recover_link()

    def test_recover_specific_unfailed_link(self, fig2a_graph):
        engine = _engine(fig2a_graph, get_scenario("link_flap"), demands=[])
        engine.fail_link(2, 3)
        with pytest.raises(ConfigError, match="not currently failed"):
            engine.recover_link(1, 2)

    def test_recover_specific_link_out_of_order(self, fig2a_graph):
        engine = _engine(fig2a_graph, get_scenario("link_flap"), demands=[])
        engine.fail_link(2, 3)
        engine.fail_link(1, 2)
        engine.recover_link(2, 3)  # not the most recent failure
        assert engine.graph.are_adjacent(2, 3)
        assert not engine.graph.are_adjacent(1, 2)
        assert engine.graph.relationship(2, 3) is Relationship.PEER

    def test_pick_link_unknown_strategy(self, fig2a_graph):
        engine = _engine(fig2a_graph, get_scenario("link_flap"), demands=[])
        with pytest.raises(ConfigError, match="pick strategy"):
            engine.pick_link("loneliest")

    def test_pick_edge_peering_returns_peer_link(self, small_internet):
        engine = _engine(small_internet, get_scenario("edge_flap"), demands=[])
        u, v = engine.pick_link("edge-peering")
        assert small_internet.relationship(u, v) is Relationship.PEER

    def test_duplicate_flow_ids_rejected(self, fig2a_graph):
        demands = _demands(fig2a_graph, n=2)
        clash = type(demands[0])(
            flow_id=demands[0].flow_id,
            src=1,
            dst=0,
            size_bytes=10e6,
            start_time=0.0,
        )
        with pytest.raises(ConfigError, match="duplicate flow id"):
            _engine(fig2a_graph, get_scenario("link_flap"), demands=[demands[0], clash])
