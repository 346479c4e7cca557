"""The ``rtt_replay`` demo gate: measurement-driven deflection end to end.

One scenario, three detectors.  The timeline plants three congestion
onsets (engine epochs 9, 18, 27) separated by quiet measurement ticks;
the measurement-driven engines must (a) localise the planted shifts from
RTT samples alone with high precision/recall, (b) deflect at least one
flow the oracle also deflects, (c) show no unexplained path churn, and
(d) stay byte-identical across routing backends and across the
incremental/full control-plane modes — the observability layer inherits
the repo's determinism contract wholesale.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry as tm
from repro.bgp.propagation import DEFAULT_BACKEND
from repro.measure.eval import (
    detections_from_trace,
    planted_changepoints,
    score_changepoints,
)
from repro.measure.pathwatch import watch_paths
from repro.scenario.engine import ScenarioConfig, ScenarioEngine
from repro.scenario.events import get_scenario
from repro.telemetry import Telemetry
from repro.telemetry.trace import validate_events
from repro.topology.generator import TopologyConfig, generate_topology
from repro.traffic.matrix import TrafficConfig, uniform_matrix

N_ASES = 200
TOPO_SEED = 2014
N_FLOWS = 60
FLOW_SEED = 77

PRECISION_FLOOR = 0.9
RECALL_FLOOR = 0.8


def _run(graph, demands, detector, *, backend=DEFAULT_BACKEND, mode="incremental"):
    """Play rtt_replay once; returns (records, trace events, counters)."""
    telem = Telemetry()
    tm.activate(telem)
    try:
        engine = ScenarioEngine(
            graph,
            demands,
            get_scenario("rtt_replay"),
            backend=backend,
            config=ScenarioConfig(detector=detector, mode=mode, verify=False),
        )
        run = engine.run()
    finally:
        tm.activate(None)
    return run.records, telem.trace_events(), dict(telem.counters)


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=N_ASES, seed=TOPO_SEED))


@pytest.fixture(scope="module")
def demands(graph):
    return uniform_matrix(
        graph, TrafficConfig(n_flows=N_FLOWS, seed=FLOW_SEED)
    )


@pytest.fixture(scope="module")
def runs(graph, demands):
    """The three detector runs plus the determinism replicas."""
    return {
        "changepoint": _run(graph, demands, "changepoint"),
        "threshold": _run(graph, demands, "threshold"),
        "oracle": _run(graph, demands, "oracle"),
        "changepoint_dict": _run(graph, demands, "changepoint", backend="dict"),
        "changepoint_full": _run(graph, demands, "changepoint", mode="full"),
    }


def _deflected(events, cause):
    return {
        e["flow"]
        for e in events
        if e.get("kind") == "path_switch" and e.get("cause") == cause
    }


TRUTHS = planted_changepoints(get_scenario("rtt_replay"))


class TestDetectionQuality:
    def test_truths_are_planted_where_documented(self):
        assert TRUTHS == (9, 18, 27)

    @pytest.mark.parametrize("detector", ["changepoint", "threshold"])
    def test_precision_and_recall(self, runs, detector):
        _, events, _ = runs[detector]
        score = score_changepoints(detections_from_trace(events), TRUTHS)
        assert score.precision >= PRECISION_FLOOR, score
        assert score.recall >= RECALL_FLOOR, score
        assert score.mean_delay_epochs <= 4.0, score

    def test_samples_flow_every_epoch(self, runs):
        _, events, counters = runs["changepoint"]
        samples = [e for e in events if e.get("kind") == "rtt_sample"]
        assert counters["measure.rtt_samples"] == len(samples) > 0
        assert counters["measure.alarms"] >= len(TRUTHS)
        # every sample carries the detector provenance
        assert all(s["detector"] == "changepoint" for s in samples)


class TestDeflection:
    def test_detector_deflections_overlap_oracle(self, runs):
        _, cp_events, _ = runs["changepoint"]
        _, oracle_events, _ = runs["oracle"]
        detector_moved = _deflected(cp_events, "rtt_alarm")
        oracle_moved = _deflected(oracle_events, "congested_link")
        assert detector_moved, "the changepoint run must deflect something"
        assert detector_moved & oracle_moved, (
            "measurement-driven deflection must agree with the oracle on "
            f"at least one flow (detector={sorted(detector_moved)}, "
            f"oracle={sorted(oracle_moved)})"
        )

    def test_path_churn_is_explained_by_the_timeline(self, runs):
        _, events, _ = runs["changepoint"]
        report = watch_paths(events)
        assert set(report.truth_epochs) == set(TRUTHS)
        assert report.switch_events > 0
        assert report.alignment >= 0.9, report
        # per-epoch churn must add up to the switch total
        assert sum(report.churn_by_epoch.values()) == report.switch_events

    def test_oracle_run_emits_no_measurement_events(self, runs):
        _, events, _ = runs["oracle"]
        kinds = {e["kind"] for e in events}
        assert "rtt_sample" not in kinds
        assert "changepoint" not in kinds


class TestDeterminism:
    def test_cross_backend_byte_identity(self, runs):
        rec_arr, ev_arr, cnt_arr = runs["changepoint"]
        rec_dict, ev_dict, cnt_dict = runs["changepoint_dict"]
        assert rec_dict == rec_arr
        assert json.dumps(ev_dict, sort_keys=True) == json.dumps(
            ev_arr, sort_keys=True
        )
        assert cnt_dict == cnt_arr

    def test_incremental_vs_full_byte_identity(self, runs):
        rec_inc, ev_inc, _ = runs["changepoint"]
        rec_full, ev_full, _ = runs["changepoint_full"]
        assert rec_inc == rec_full
        assert json.dumps(ev_inc, sort_keys=True) == json.dumps(
            ev_full, sort_keys=True
        )

    def test_repeat_run_is_identical(self, graph, demands, runs):
        again = _run(graph, demands, "changepoint")
        assert again[0] == runs["changepoint"][0]
        assert again[1] == runs["changepoint"][1]


class TestTraceConformance:
    @pytest.mark.parametrize("detector", ["changepoint", "threshold"])
    def test_events_validate_against_the_schema(self, runs, detector):
        _, events, _ = runs[detector]
        assert validate_events(events) == []
