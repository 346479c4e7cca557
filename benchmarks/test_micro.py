"""Micro-benchmarks of the hot paths.

The paper's engine runs per packet in a Linux kernel; the interesting
Python-side numbers are the per-packet forwarding cost, FIB lookup, the
max-min solver, one per-destination BGP propagation, and the diversity DP.
These use real pytest-benchmark timing (multiple rounds)."""

import numpy as np
import pytest

from repro.bgp.array_routing import compute_array_routing
from repro.bgp.propagation import RoutingCache, compute_routing
from repro.dataplane import Network, Packet
from repro.flowsim.maxmin import build_incidence, maxmin_rates
from repro.metrics.diversity import count_mifo_paths
from repro.mifo.engine import MifoEngine, MifoEngineConfig, bgp_engine
from repro.telemetry import Stopwatch
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.relationships import Relationship

from .conftest import write_result


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=1200))


class TestRoutingMicro:
    def test_per_destination_propagation(self, benchmark, graph):
        dests = iter(range(0, len(graph)))

        def run():
            return compute_routing(graph, next(dests))

        routing = benchmark(run)
        assert routing.reachable_count() == len(graph)

    def test_per_destination_propagation_array(self, benchmark, graph):
        graph.csr()  # built once per graph; time the per-destination cost
        dests = iter(range(0, len(graph)))

        def run():
            return compute_array_routing(graph, next(dests))

        routing = benchmark(run)
        assert routing.reachable_count() == len(graph)


class TestRoutingBackendComparison:
    """The array backend must converge >=200 destinations on the
    bench-scale topology (1,200 ASes) measurably faster than the dict
    oracle.  Numbers land in ``results/microbench_routing.txt`` and
    EXPERIMENTS.md."""

    N_DESTS = 200

    def test_array_beats_dict(self, graph, results_dir):
        dests = list(range(self.N_DESTS))
        graph.csr()  # both paths get a warm adjacency

        sw = Stopwatch()
        oracle = {d: compute_routing(graph, d) for d in dests}
        t_dict = sw.elapsed

        sw.restart()
        serial_array = {d: compute_array_routing(graph, d) for d in dests}
        t_array = sw.elapsed

        probe = dests[self.N_DESTS // 2]
        assert serial_array[probe].best_path(1100) == oracle[probe].best_path(1100)

        report = (
            f"routing backends, {self.N_DESTS} destinations, "
            f"{len(graph)} ASes (bench scale)\n"
            f"  serial dict     : {t_dict:8.3f} s "
            f"({t_dict / self.N_DESTS * 1e3:6.2f} ms/dest)\n"
            f"  serial array    : {t_array:8.3f} s "
            f"({t_array / self.N_DESTS * 1e3:6.2f} ms/dest)  "
            f"{t_dict / t_array:4.1f}x vs dict\n"
        )
        write_result(results_dir, "microbench_routing", report)

        assert t_array < t_dict, (t_array, t_dict)

    def test_rib_construction(self, benchmark, graph):
        routing = compute_routing(graph, 0)
        nodes = list(graph.nodes())

        def run():
            total = 0
            for x in nodes[::10]:
                total += len(routing.rib(x))
            return total

        assert benchmark(run) > 0


class TestDiversityMicro:
    def test_count_paths_dp(self, benchmark, graph):
        rc = RoutingCache(graph)
        capable = frozenset(graph.nodes())
        rc(0)  # warm the cache: we time the DP, not BGP convergence.

        def run():
            return count_mifo_paths(graph, rc, capable, len(graph) - 1, 0)

        assert benchmark(run) >= 1


class TestMaxminMicro:
    def test_solver_200_flows(self, benchmark):
        rng = np.random.default_rng(0)
        n_links, n_flows = 400, 200
        flow_links = [
            sorted(rng.choice(n_links, size=5, replace=False).tolist())
            for _ in range(n_flows)
        ]
        inc = build_incidence(flow_links, n_links)
        caps = np.full(n_links, 1e9)

        rates = benchmark(lambda: maxmin_rates(inc, caps))
        assert rates.shape == (n_flows,)


class TestForwardingMicro:
    def _wire(self, engine):
        net = Network()
        r = net.add_router("R", 2, engine)
        a = net.add_router("A", 1, lambda *_: None)
        b = net.add_router("B", 3, lambda *_: None)
        c = net.add_router("C", 4, lambda *_: None)
        _, r_in = net.connect_routers(a, r, relationship_of_b=Relationship.PROVIDER)
        r_out, _ = net.connect_routers(r, b, relationship_of_b=Relationship.PROVIDER)
        r_alt, _ = net.connect_routers(r, c, relationship_of_b=Relationship.CUSTOMER)
        r.fib.install("D", r_out, r_alt)
        return net, r, r_in

    def test_bgp_engine_per_packet(self, benchmark):
        net, r, r_in = self._wire(bgp_engine)

        def run():
            p = Packet(flow_id=1, seq=0, src="S", dst="D", size=1000)
            r.receive(p, r_in)
            net.sim.run()

        benchmark(run)

    def test_mifo_engine_per_packet(self, benchmark):
        net, r, r_in = self._wire(MifoEngine(MifoEngineConfig()))

        def run():
            p = Packet(flow_id=1, seq=0, src="S", dst="D", size=1000)
            r.receive(p, r_in)
            net.sim.run()

        benchmark(run)

    def test_fib_lookup(self, benchmark):
        net, r, _r_in = self._wire(bgp_engine)
        fib = r.fib
        for i in range(500):
            fib.install(f"P{i}", r.ports[0])

        benchmark(lambda: fib.lookup("P250"))

    def test_fib_lookup_at_internet_scale(self, benchmark):
        """The paper notes a current BGP table holds ~500K prefixes /
        ~50K AS-level targets (Section III-C): the FIB lookup must stay
        O(1) at that size."""
        net, r, _r_in = self._wire(bgp_engine)
        fib = r.fib
        for i in range(50_000):
            fib.install(f"P{i}", r.ports[0])

        benchmark(lambda: fib.lookup("P25000"))


class TestPacketSimMicro:
    def test_testbed_event_throughput(self, benchmark):
        """End-to-end DES speed: events/second on the Fig-11 testbed."""
        from repro.experiments import fig12

        def run():
            cfg = fig12.TestbedConfig(
                flows_per_source=2, flow_size_bytes=2e6, sample_interval_s=0.05
            )
            result = fig12._run_one(cfg, mifo=True)
            return result

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert len(result.completion_times) == 4
