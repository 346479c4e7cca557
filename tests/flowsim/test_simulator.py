"""Tests for the event-driven fluid simulator."""

import math

import pytest

from repro.bgp.propagation import RoutingCache
from repro.errors import ConfigError, NoRouteError, SimulationError
from repro.flowsim.flow import FlowSpec
from repro.flowsim.providers import BgpProvider, MifoProvider, PathProvider
from repro.flowsim.simulator import FluidSimConfig, FluidSimulator
from repro.mifo.deflection import MifoPathBuilder
from repro.topology.asgraph import ASGraph


def bgp_sim(graph, **cfg):
    return FluidSimulator(graph, BgpProvider(graph, RoutingCache(graph)), FluidSimConfig(**cfg))


def mifo_sim(graph, capable=None, **cfg):
    rc = RoutingCache(graph)
    capable = frozenset(graph.nodes()) if capable is None else capable
    return FluidSimulator(
        graph, MifoProvider(MifoPathBuilder(graph, rc, capable)), FluidSimConfig(**cfg)
    )


class TestConfig:
    def test_bad_capacity(self):
        with pytest.raises(ConfigError, match="link_capacity_bps"):
            FluidSimConfig(link_capacity_bps=0).validate()

    def test_bad_thresholds(self):
        with pytest.raises(ConfigError, match="clear_threshold"):
            FluidSimConfig(congest_threshold=0.5, clear_threshold=0.9).validate()

    @pytest.mark.parametrize("field", ["min_switch_interval", "control_plane_interval"])
    def test_negative_interval(self, field):
        with pytest.raises(ConfigError, match=field):
            FluidSimConfig(**{field: -5.0}).validate()


class TestSingleFlow:
    def test_solo_flow_runs_at_line_rate(self, fig11_graph):
        sim = bgp_sim(fig11_graph)
        spec = FlowSpec(flow_id=1, src=1, dst=5, size_bytes=1e6, start_time=0.0)
        res = sim.run([spec])
        assert len(res.records) == 1
        rec = res.records[0]
        assert rec.throughput_bps == pytest.approx(1e9, rel=1e-3)
        assert rec.duration == pytest.approx(8e6 / 1e9, rel=1e-3)
        assert rec.path_switches == 0

    def test_empty_workload(self, fig11_graph):
        res = bgp_sim(fig11_graph).run([])
        assert res.records == []
        assert res.duration == 0.0


class TestSharing:
    def test_two_flows_share_bottleneck(self, fig11_graph):
        # Both flows traverse 3->4 under BGP: each gets ~500 Mbps.
        sim = bgp_sim(fig11_graph)
        specs = [
            FlowSpec(flow_id=1, src=1, dst=5, size_bytes=1e6, start_time=0.0),
            FlowSpec(flow_id=2, src=2, dst=5, size_bytes=1e6, start_time=0.0),
        ]
        res = sim.run(specs)
        ths = sorted(r.throughput_bps for r in res.records)
        # Identical simultaneous flows split the 1 Gbps bottleneck evenly
        # and finish together at ~500 Mbps each.
        assert ths[0] == pytest.approx(500e6, rel=1e-2)
        assert ths[1] == pytest.approx(500e6, rel=1e-2)

    def test_mifo_deflects_second_flow(self, fig11_graph):
        # With MIFO, AS3 moves one flow to 3->6->5: both ~1 Gbps.
        sim = mifo_sim(fig11_graph)
        specs = [
            FlowSpec(flow_id=1, src=1, dst=5, size_bytes=4e6, start_time=0.0),
            FlowSpec(flow_id=2, src=2, dst=5, size_bytes=4e6, start_time=0.004),
        ]
        res = sim.run(specs)
        by_id = {r.flow_id: r for r in res.records}
        assert by_id[2].used_alternative or by_id[1].used_alternative
        total_throughput = sum(r.throughput_bps for r in res.records)
        assert total_throughput > 1.5e9  # near 2x the single-path case

    def test_sequential_flows_do_not_interact(self, fig11_graph):
        sim = bgp_sim(fig11_graph)
        specs = [
            FlowSpec(flow_id=1, src=1, dst=5, size_bytes=1e6, start_time=0.0),
            FlowSpec(flow_id=2, src=2, dst=5, size_bytes=1e6, start_time=1.0),
        ]
        res = sim.run(specs)
        for r in res.records:
            assert r.throughput_bps == pytest.approx(1e9, rel=1e-3)


class TestUnroutable:
    @pytest.fixture
    def partitioned(self):
        g = ASGraph()
        g.add_p2c(1, 0)
        g.add_p2c(3, 2)
        return g.freeze()

    def test_raises_by_default(self, partitioned):
        sim = bgp_sim(partitioned)
        with pytest.raises(NoRouteError):
            sim.run([FlowSpec(flow_id=1, src=0, dst=2, size_bytes=1e6, start_time=0.0)])

    def test_skip_option(self, partitioned):
        sim = bgp_sim(partitioned, skip_unroutable=True)
        res = sim.run(
            [
                FlowSpec(flow_id=1, src=0, dst=2, size_bytes=1e6, start_time=0.0),
                FlowSpec(flow_id=2, src=0, dst=1, size_bytes=1e6, start_time=0.0),
            ]
        )
        assert res.unroutable == 1
        assert len(res.records) == 1


class TestConservation:
    def test_all_flows_complete_with_exact_bytes(self, small_internet):
        from repro.traffic.matrix import TrafficConfig, uniform_matrix

        specs = uniform_matrix(
            small_internet, TrafficConfig(n_flows=150, arrival_rate=500.0, seed=3)
        )
        res = mifo_sim(small_internet).run(specs)
        assert len(res.records) == 150
        for r in res.records:
            assert r.finish_time > r.start_time
            assert math.isfinite(r.throughput_bps)
            assert r.throughput_bps <= 1e9 * 1.001

    def test_result_metrics(self, small_internet):
        from repro.traffic.matrix import TrafficConfig, uniform_matrix

        specs = uniform_matrix(
            small_internet, TrafficConfig(n_flows=100, arrival_rate=1000.0, seed=4)
        )
        res = mifo_sim(small_internet).run(specs)
        assert 0.0 <= res.fraction_on_alternative() <= 1.0
        hist = res.switch_histogram()
        assert sum(hist.values()) == pytest.approx(1.0)

    def test_deterministic(self, small_internet):
        from repro.traffic.matrix import TrafficConfig, uniform_matrix

        specs = uniform_matrix(
            small_internet, TrafficConfig(n_flows=80, arrival_rate=1000.0, seed=5)
        )
        a = mifo_sim(small_internet).run(specs)
        b = mifo_sim(small_internet).run(specs)
        assert [r.finish_time for r in a.records] == [r.finish_time for r in b.records]
        assert [r.path_switches for r in a.records] == [r.path_switches for r in b.records]

    def test_event_budget(self, small_internet):
        from repro.traffic.matrix import TrafficConfig, uniform_matrix

        specs = uniform_matrix(
            small_internet, TrafficConfig(n_flows=50, arrival_rate=1000.0, seed=6)
        )
        sim = bgp_sim(small_internet, max_events=3)
        with pytest.raises(SimulationError, match="events"):
            sim.run(specs)


class TestControlPlaneStaleness:
    """MIRO reads remote links through ``sim.control_plane``, a snapshot
    of the plane re-taken once per ``control_plane_interval``."""

    SPECS = [
        FlowSpec(flow_id=1, src=1, dst=5, size_bytes=8e6, start_time=0.0),
        FlowSpec(flow_id=2, src=2, dst=5, size_bytes=8e6, start_time=0.0),
        FlowSpec(flow_id=3, src=1, dst=5, size_bytes=8e6, start_time=0.05),
    ]

    def test_stale_view_lags_live(self, fig11_graph):
        """With an interval longer than the run, the snapshot is the one
        taken at t=0, before any flow crossed 3->4."""
        sim = bgp_sim(fig11_graph, control_plane_interval=100.0)
        sim.run(self.SPECS)
        assert (3, 4) not in sim.control_plane.links
        assert not sim.control_plane.is_congested(3, 4)
        assert sim.control_plane.spare(3, 4) == sim.config.link_capacity_bps

    def test_stale_view_refreshes(self, fig11_graph):
        """With a tiny interval the last snapshot, taken at the last
        completion before its flow left, saw that flow on 3->4."""
        sim = bgp_sim(fig11_graph, control_plane_interval=0.001)
        sim.run(self.SPECS)
        assert (3, 4) in sim.control_plane.links
        assert sim.control_plane.spare(3, 4) == 0.0
        assert sim.control_plane.is_congested(3, 4)
        # The live plane moved on: every flow has left.
        assert sim.plane.spare(3, 4) == sim.config.link_capacity_bps

    def test_unknown_links_report_defaults(self, fig11_graph):
        sim = bgp_sim(fig11_graph)
        assert not sim.control_plane.is_congested(1, 3)
        assert sim.control_plane.spare(1, 3) == sim.config.link_capacity_bps


class TestSolverModes:
    """The incremental pooled solver is a drop-in for the full solver."""

    def _records(self, graph, specs, **cfg):
        return mifo_sim(graph, **cfg).run(specs).records

    def test_modes_agree_bitwise_on_real_workload(self, small_internet):
        from repro.traffic.matrix import TrafficConfig, uniform_matrix

        specs = uniform_matrix(
            small_internet, TrafficConfig(n_flows=120, arrival_rate=800.0, seed=9)
        )
        inc = self._records(small_internet, specs, solver="incremental")
        full = self._records(small_internet, specs, solver="full")
        assert inc == full  # FlowRecord dataclass equality is exact floats

    def test_modes_agree_with_out_of_order_flow_ids(self, fig11_graph):
        """Arrival order opposite to flow-id order: the active list's
        insertion-ordered invariant (bisect.insort by flow id) must keep
        the reroute consult order — and hence the records — identical."""
        specs = [
            FlowSpec(flow_id=9, src=1, dst=5, size_bytes=4e6, start_time=0.0),
            FlowSpec(flow_id=5, src=2, dst=5, size_bytes=4e6, start_time=0.002),
            FlowSpec(flow_id=1, src=1, dst=5, size_bytes=4e6, start_time=0.004),
        ]
        inc = self._records(fig11_graph, specs, solver="incremental")
        full = self._records(fig11_graph, specs, solver="full")
        assert inc == full

    def test_spec_order_does_not_matter(self, fig11_graph):
        specs = [
            FlowSpec(flow_id=i, src=1 + (i % 2), dst=5, size_bytes=2e6,
                     start_time=0.001 * (i % 3))
            for i in range(6)
        ]
        forward = self._records(fig11_graph, specs, solver="incremental")
        backward = self._records(fig11_graph, list(reversed(specs)),
                                 solver="incremental")
        assert forward == backward

    def test_simulator_instance_is_reusable(self, fig11_graph):
        """Back-to-back runs on one simulator reuse the persistent alloc
        buffer and the pooled solver; state from run one must not leak."""
        specs = [
            FlowSpec(flow_id=1, src=1, dst=5, size_bytes=4e6, start_time=0.0),
            FlowSpec(flow_id=2, src=2, dst=5, size_bytes=4e6, start_time=0.004),
        ]
        sim = mifo_sim(fig11_graph)
        first = sim.run(specs).records
        second = sim.run(specs).records
        fresh = mifo_sim(fig11_graph).run(specs).records
        assert first == second == fresh

    def test_bad_solver_rejected(self):
        with pytest.raises(ConfigError, match="solver"):
            FluidSimConfig(solver="magic").validate()


class TestRttSampling:
    """The RTT observable lives in the scenario engine's
    ``PathRttMonitor``; the fluid simulator takes no samples."""

    SPECS = [
        FlowSpec(flow_id=1, src=1, dst=5, size_bytes=4e6, start_time=0.0),
        FlowSpec(flow_id=2, src=2, dst=5, size_bytes=4e6, start_time=0.004),
    ]

    def test_off_by_default(self, fig11_graph):
        from repro import telemetry as tm
        from repro.telemetry import Telemetry

        telem = Telemetry()
        tm.activate(telem)
        try:
            mifo_sim(fig11_graph).run(self.SPECS)
        finally:
            tm.activate(None)
        assert not any(e["kind"] == "rtt_sample" for e in telem.trace_events())
        assert "measure.rtt_samples" not in telem.counters


class _SpareChooser(PathProvider):
    """Every flow starts on S→X→D; once S→X congests, a flow on it moves
    to whichever of S→A→D and S→B→D has more spare capacity on the first
    hop (ties to A), and records the choice.  S, X, D, A, B, E are ASes
    1 to 6."""

    name = "spare-chooser"
    supports_reroute = True

    DEFAULT, VIA_A, VIA_B = (1, 2, 3), (1, 4, 3), (1, 5, 3)

    def __init__(self, paths):
        self.paths = paths
        self.choices = {}

    def initial_path(self, spec, view):
        return self.paths[spec.flow_id], False

    def reroute(self, flow, view):
        if flow.path != self.DEFAULT or not view.congested(1, 2):
            return None
        via_a = view.spare(1, 4) >= view.spare(1, 5)
        choice = self.VIA_A if via_a else self.VIA_B
        self.choices[flow.flow_id] = choice
        return choice, True


class TestReroutePass:
    def test_moved_flow_counts_its_full_bandwidth(self):
        """Flows 1 and 2 share S→X (500 Mbps each) and both deflect in
        the pass that follows its congestion.  S→B already carries 250
        Mbps (flow 3, bottlenecked with flows 4–6 on B→E), S→A nothing.
        Flow 1 takes A; counting its full 500 Mbps leaves A 500 Mbps of
        spare against B's 750, so flow 2 must take B.  (Counting a
        bytes/s rate against the bps allocation would leave A 937.5 Mbps
        and send flow 2 to A as well.)"""
        graph = ASGraph.from_links(
            p2c=[(1, 2), (2, 3), (1, 4), (4, 3), (1, 5), (5, 3), (5, 6)]
        )
        paths = {1: (1, 2, 3), 2: (1, 2, 3), 3: (1, 5, 6)}
        paths.update({fid: (5, 6) for fid in (4, 5, 6)})
        provider = _SpareChooser(paths)
        sim = FluidSimulator(
            graph, provider, FluidSimConfig(min_switch_interval=0.0)
        )
        specs = [
            FlowSpec(flow_id=fid, src=p[0], dst=p[-1], size_bytes=1e8, start_time=0.0)
            for fid, p in paths.items()
        ]
        sim.run(specs)
        assert provider.choices == {1: _SpareChooser.VIA_A, 2: _SpareChooser.VIA_B}
