"""Dynamic-scenario experiment — timelines through the unified API.

Runs a named :mod:`repro.scenario` timeline (link flaps, capacity
degradation, traffic ramps, flash crowds, scripted congestion onset) over
a persistent MIFO flow population and reports per-event dynamics: how
many destinations went dirty, how many flows moved, where congestion sat,
and what throughput the population sustained — the paper's motivating
"congestion appears, MIFO reacts" story as a first-class experiment
rather than a static before/after pair.

``mode`` selects the control-plane update policy: ``"incremental"``
(dirty-set re-propagation + memoized re-solves, what the CLI runs) or
``"full"`` (the recompute-everything reference; a keyword here and not a
CLI flag).  The two are byte-identical in the determinism-checked payload
— only provenance (and wall-clock) differ — so the cross-validation
suite runs every scenario in both modes and diffs the serialized results.
"""

from __future__ import annotations

import dataclasses

from .. import telemetry as tm
from ..scenario.engine import ScenarioConfig, ScenarioEngine, ScenarioRun
from ..scenario.events import ScenarioSpec, get_scenario
from ..traffic.matrix import TrafficConfig, uniform_matrix
from .common import DEFAULT_BACKEND, SharedContext, get_scale, instrumented_run, provenance_meta
from .report import text_table
from .result import ExperimentResult, freeze_series

__all__ = ["ScenarioExperimentResult", "run"]


@dataclasses.dataclass
class ScenarioExperimentResult:
    """Rich result: the :class:`~repro.scenario.engine.ScenarioRun` plus
    rendering."""

    scale_name: str
    run: ScenarioRun

    def rows(self) -> list[list[object]]:
        """Table rows: one per timeline event."""
        return [
            [
                r.index,
                f"{r.time_s:g}",
                r.kind,
                r.target,
                r.dirty_dests,
                r.flows_rerouted,
                r.flows_unroutable,
                r.congested_links,
                r.deflected_flows,
                f"{r.mean_rate_mbps:.1f}",
            ]
            for r in self.run.records
        ]

    def render(self) -> str:
        """Per-event table plus control-plane/solver summary."""
        run = self.run
        table = text_table(
            [
                "#",
                "t(s)",
                "event",
                "target",
                "dirty",
                "rerouted",
                "unroutable",
                "congested",
                "deflected",
                "mean Mbps",
            ],
            self.rows(),
            title=(
                f"Scenario {run.scenario!r} ({run.mode} mode, "
                f"scale={self.scale_name})"
            ),
        )
        summary = (
            f"\ncontrol plane: {run.dests_recomputed} destination(s) "
            f"re-converged, {run.dests_rebased} rebased unchanged"
            f"\nmax-min:       {run.warm_solves} solve(s), "
            f"{run.warm_hits} memoized"
        )
        return table + summary


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    scenario: str | ScenarioSpec = "link_flap",
    mode: str = "incremental",
    detector: str = "oracle",
    n_flows: int | None = None,
    verify: bool = True,
    crosscheck: bool = False,
) -> ExperimentResult:
    """Play one scenario timeline and package the per-event dynamics.

    ``scenario`` is a built-in name (see
    :data:`repro.scenario.events.SCENARIOS`) or a custom
    :class:`~repro.scenario.events.ScenarioSpec`.  ``detector`` selects
    the congestion signal driving deflection (``"oracle"`` hysteresis
    bits, or a measurement-driven ``"threshold"``/``"changepoint"``
    detector over per-path RTT samples).  ``n_flows`` overrides
    the base demand population (default: a quarter of the scale's flow
    count — every event re-solves the whole population, so scenario
    workloads run leaner than one-shot experiments).  ``verify`` keeps
    the per-event invariant gate on; ``crosscheck`` additionally diffs
    incremental state against a full recomputation after every event
    (slow — tests and CI).
    """
    sc = get_scale(scale)
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    # Reuse the memoized per-scale topology; routing state is the
    # engine's own (the shared cache stays untouched by design — its
    # destinations must reflect the *static* graph for ``ctx.verify()``).
    ctx = SharedContext.get(sc, backend=backend)
    demands = uniform_matrix(
        ctx.graph,
        TrafficConfig(
            n_flows=n_flows if n_flows is not None else max(50, sc.n_flows // 4),
            arrival_rate=sc.arrival_rate,
            seed=sc.seed + 11,
        ),
    )
    engine = ScenarioEngine(
        ctx.graph,
        demands,
        spec,
        backend=backend,
        seed=sc.seed,
        config=ScenarioConfig(
            mode=mode, verify=verify, crosscheck=crosscheck, detector=detector
        ),
    )
    srun = engine.run()
    raw = ScenarioExperimentResult(scale_name=sc.name, run=srun)

    with tm.span("metrics.compute"):
        recs = srun.records
        series = {
            "dirty destinations": [(r.time_s, float(r.dirty_dests)) for r in recs],
            "flows rerouted": [(r.time_s, float(r.flows_rerouted)) for r in recs],
            "congested links": [(r.time_s, float(r.congested_links)) for r in recs],
            "deflected flows": [(r.time_s, float(r.deflected_flows)) for r in recs],
            "mean rate (Mbps)": [(r.time_s, r.mean_rate_mbps) for r in recs],
            "total throughput (Gbps)": [
                (r.time_s, r.total_throughput_gbps) for r in recs
            ],
        }
        meta: dict[str, object] = {
            **provenance_meta(ctx),
            "scenario": srun.scenario,
            "detector": detector,
            "n_events": srun.n_events,
            "n_flows": recs[-1].flows_total if recs else 0,
            "final_unroutable": recs[-1].flows_unroutable if recs else 0,
            "total_rerouted": sum(r.flows_rerouted for r in recs),
            "verified_dests": sum(r.verified_dests for r in recs),
            # How the run updated state — provenance, not payload: the
            # two modes are byte-identical everywhere else.
            "scenario_engine": {
                "mode": srun.mode,
                "dests_recomputed": srun.dests_recomputed,
                "dests_rebased": srun.dests_rebased,
                "warm_solves": srun.warm_solves,
                "warm_hits": srun.warm_hits,
            },
        }
    return ExperimentResult(
        name="scenario",
        scale=sc.name,
        series=freeze_series(series),
        meta=meta,
        raw=raw,
    )
