"""Micro-benchmark of the measurement subsystem.

Two overhead gates at the default experiment scale (2,000 ASes), both
comparing a full scenario run (initial routing + timeline) with
detection enabled against the same run with the ``oracle`` detector
(detection disabled):

* **ride-along** — the ISSUE acceptance gate: on a routing-dominated
  timeline (``edge_flap``) the changepoint detector must add **<5%**
  wall clock.  Quiet series never build the PELT dynamic program (the
  homogeneity bound in ``repro.measure.changepoint``), so detection
  rides along nearly for free.
* **measurement stress** — ``rtt_replay`` is 32 measurement ticks
  around three planted shifts: the worst case, where the oracle run
  does almost nothing per tick while detection samples and pushes
  every flow every epoch.  The threshold detector must still stay
  under 5%; exact windowed PELT on the genuinely-shifting series pays
  real CPU and gets a looser 15% ceiling (measured ~7-9%).

Detection quality at bench scale (precision/recall/delay vs the
planted truths) and sample throughput land in
``results/microbench_measure_*.txt``.
"""

import pytest

from repro import telemetry as tm
from repro.measure.eval import (
    detections_from_trace,
    planted_changepoints,
    score_changepoints,
)
from repro.scenario.engine import ScenarioConfig, ScenarioEngine
from repro.scenario.events import get_scenario
from repro.telemetry import Stopwatch, Telemetry
from repro.topology.generator import TopologyConfig, generate_topology
from repro.traffic.matrix import TrafficConfig, uniform_matrix

from .conftest import write_result

N_ASES = 2000  # the "default" experiment scale
N_FLOWS = 240
REPS = 3  # interleaved min-of-N absorbs machine jitter
RIDE_ALONG_CEILING_PCT = 5.0
STRESS_THRESHOLD_CEILING_PCT = 5.0
STRESS_CHANGEPOINT_CEILING_PCT = 15.0
RECALL_FLOOR = 0.9
PRECISION_FLOOR = 0.5


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=N_ASES))


@pytest.fixture(scope="module")
def demands(graph):
    return uniform_matrix(graph, TrafficConfig(n_flows=N_FLOWS, seed=77))


def _run_seconds(graph, demands, scenario: str, detector: str) -> float:
    """One full scenario run: initial routing + the whole timeline."""
    spec = get_scenario(scenario)
    engine = ScenarioEngine(
        graph,
        demands,
        spec,
        config=ScenarioConfig(mode="incremental", verify=False, detector=detector),
    )
    sw = Stopwatch()
    engine.step(0.0, None)
    for when, ev in spec.timeline:
        engine.step(when, ev)
    return sw.elapsed


def _best_runs(graph, demands, scenario: str, detectors: tuple[str, ...]) -> dict[str, float]:
    """Min-of-REPS per detector, interleaved so load drift cancels."""
    best = {d: float("inf") for d in detectors}
    for _ in range(REPS):
        for d in detectors:
            best[d] = min(best[d], _run_seconds(graph, demands, scenario, d))
    return best


def _overhead_pct(enabled: float, disabled: float) -> float:
    return 100.0 * (enabled - disabled) / disabled


@pytest.fixture(scope="module")
def stress(graph, demands):
    return _best_runs(graph, demands, "rtt_replay", ("oracle", "threshold", "changepoint"))


class TestMeasureOverhead:
    def test_ride_along_overhead_under_five_percent(
        self, graph, demands, results_dir
    ):
        best = _best_runs(graph, demands, "edge_flap", ("oracle", "changepoint"))
        pct = _overhead_pct(best["changepoint"], best["oracle"])
        lines = [
            "Measurement micro-benchmark (ride-along: edge_flap timeline)",
            f"  topology:            {N_ASES} ASes, {N_FLOWS} flows",
            f"  detection disabled:  {best['oracle'] * 1e3:8.1f} ms",
            f"  changepoint:         {best['changepoint'] * 1e3:8.1f} ms "
            f"({pct:+.1f}%, ceiling {RIDE_ALONG_CEILING_PCT:g}%)",
        ]
        write_result(results_dir, "microbench_measure_ride_along", "\n".join(lines))
        assert pct < RIDE_ALONG_CEILING_PCT, "\n".join(lines)

    def test_stress_overhead_within_ceilings(self, stress, results_dir):
        thr_pct = _overhead_pct(stress["threshold"], stress["oracle"])
        cp_pct = _overhead_pct(stress["changepoint"], stress["oracle"])
        n_events = len(get_scenario("rtt_replay").timeline) + 1
        samples = N_FLOWS * n_events
        lines = [
            "Measurement micro-benchmark (stress: rtt_replay timeline)",
            f"  topology:            {N_ASES} ASes, {N_FLOWS} flows",
            f"  detection disabled:  {stress['oracle'] * 1e3:8.1f} ms",
            f"  threshold:           {stress['threshold'] * 1e3:8.1f} ms "
            f"({thr_pct:+.1f}%, ceiling {STRESS_THRESHOLD_CEILING_PCT:g}%)",
            f"  changepoint:         {stress['changepoint'] * 1e3:8.1f} ms "
            f"({cp_pct:+.1f}%, ceiling {STRESS_CHANGEPOINT_CEILING_PCT:g}%)",
            f"  samples per second:  {samples / stress['changepoint']:8.0f} "
            f"({samples} samples, changepoint run)",
        ]
        write_result(results_dir, "microbench_measure_stress", "\n".join(lines))
        assert thr_pct < STRESS_THRESHOLD_CEILING_PCT, "\n".join(lines)
        assert cp_pct < STRESS_CHANGEPOINT_CEILING_PCT, "\n".join(lines)


class TestDetectionQualityAtBenchScale:
    @pytest.mark.parametrize("detector", ["threshold", "changepoint"])
    def test_recall_and_precision(
        self, graph, demands, detector, results_dir
    ):
        spec = get_scenario("rtt_replay")
        telem = Telemetry()
        tm.activate(telem)
        try:
            engine = ScenarioEngine(
                graph,
                demands,
                spec,
                config=ScenarioConfig(mode="incremental", verify=False, detector=detector),
            )
            sw = Stopwatch()
            engine.step(0.0, None)
            for when, ev in spec.timeline:
                engine.step(when, ev)
            elapsed = sw.elapsed
        finally:
            tm.activate(None)
        events = telem.trace_events()
        score = score_changepoints(
            detections_from_trace(events), planted_changepoints(spec)
        )
        samples = telem.counters["measure.rtt_samples"]
        lines = [
            f"Detection quality at bench scale ({detector}, rtt_replay)",
            f"  topology:   {N_ASES} ASes, {N_FLOWS} flows",
            f"  precision:  {score.precision:.3f} (floor {PRECISION_FLOOR:g})",
            f"  recall:     {score.recall:.3f} (floor {RECALL_FLOOR:g})",
            f"  mean delay: {score.mean_delay_epochs:.2f} epochs",
            f"  samples:    {samples} ({samples / elapsed:.0f}/s with tracing)",
        ]
        write_result(results_dir, f"microbench_measure_{detector}", "\n".join(lines))
        assert score.recall >= RECALL_FLOOR, "\n".join(lines)
        assert score.precision >= PRECISION_FLOOR, "\n".join(lines)
