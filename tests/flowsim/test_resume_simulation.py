"""Resumed max-min fills inside a whole fluid simulation.

A MIFO run at ``test`` scale re-solves after every arrival, completion and
reroute, so most of its fills resume from the previous fill's round memo.
Every fill that runs is replayed against the cold oracle
(:meth:`IncrementalMaxMin.crosscheck`), so one drifted rate or link load
anywhere in the run fails the test, and the run must actually have resumed.
"""

from __future__ import annotations

import pytest

from repro import telemetry as tm
from repro.bgp.propagation import RoutingCache
from repro.experiments.common import deployment_sample, get_scale, make_provider
from repro.flowsim.incremental import IncrementalMaxMin
from repro.flowsim.simulator import FluidSimConfig, FluidSimulator
from repro.topology.generator import generate_topology
from repro.traffic.matrix import TrafficConfig, uniform_matrix


@pytest.fixture(scope="module")
def mifo_run_inputs():
    sc = get_scale("test")
    graph = generate_topology(sc.topology_config())
    specs = uniform_matrix(
        graph,
        TrafficConfig(n_flows=sc.n_flows, arrival_rate=sc.arrival_rate, seed=sc.seed + 1),
    )
    cache = RoutingCache(graph, backend="array")
    cache.precompute({spec.dst for spec in specs})
    return graph, specs, cache


@pytest.mark.parametrize("deployment", [1.0, 0.5])
def test_every_fill_of_a_mifo_run_passes_crosscheck(
    mifo_run_inputs, deployment, monkeypatch
):
    graph, specs, cache = mifo_run_inputs
    checked = []
    solve = IncrementalMaxMin.solve

    def checked_solve(self):
        ran = solve(self)
        if ran:
            self.crosscheck()
            checked.append(self.n_flows)
        return ran

    monkeypatch.setattr(IncrementalMaxMin, "solve", checked_solve)
    provider = make_provider(
        "MIFO", graph, cache, deployment_sample(graph, deployment, seed=7)
    )
    telemetry = tm.Telemetry()
    with tm.telemetry_session(telemetry):
        result = FluidSimulator(graph, provider, FluidSimConfig()).run(specs)
    assert len(result.records) == len(specs)
    assert len(checked) > len(specs)
    counters = telemetry.counters
    assert counters["flowsim.fill_rounds_reused"] > 0
    assert telemetry.spans["flowsim.fill"][1] == len(checked)
