"""Figure 9 — path-switch distribution (MIFO stability).

The paper counts per-flow path switches (deflections + resumptions) under
full MIFO deployment: 67.7% of switching flows switch exactly once and
97.5% at most twice — i.e. traffic does not thrash between paths.
"""

from __future__ import annotations

import dataclasses

from .. import telemetry as tm
from ..flowsim.simulator import FluidSimResult
from ..metrics.stability import SwitchDistribution, switch_distribution
from ..traffic.matrix import TrafficConfig, uniform_matrix
from .common import (
    SharedContext,
    deployment_sample,
    get_scale,
    instrumented_run,
    provenance_meta,
    run_scheme,
)
from .report import percent, text_table
from .result import ExperimentResult, freeze_series

__all__ = ["Fig9Result", "run", "PAPER_ONE_SWITCH", "PAPER_AT_MOST_TWO"]

PAPER_ONE_SWITCH = 0.677
PAPER_AT_MOST_TWO = 0.975


@dataclasses.dataclass
class Fig9Result:
    """Paper Fig. 9: path-switch stability distribution."""
    scale_name: str
    result: FluidSimResult
    distribution: SwitchDistribution

    def rows(self) -> list[list[object]]:
        """Table rows: switch-count buckets."""
        rows = []
        for k in range(1, 6):
            label = f"{k}" if k < 5 else ">=5"
            rows.append([label, percent(self.distribution.fraction_of_switching(k))])
        return rows

    def render(self) -> str:
        """Human-readable report table."""
        d = self.distribution
        table = text_table(
            ["# of path switches", "% of switching flows"],
            self.rows(),
            title=f"Figure 9: Path switch distribution (scale={self.scale_name})",
        )
        summary = (
            f"\nswitching flows: {percent(d.fraction_switching)} of all flows"
            f"\nexactly one switch: {percent(d.fraction_of_switching(1))} (paper {percent(PAPER_ONE_SWITCH)})"
            f"\nat most two:        {percent(d.fraction_at_most(2))} (paper {percent(PAPER_AT_MOST_TWO)})"
        )
        return table + summary


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = "dict",
    solver: str = "incremental",
) -> ExperimentResult:
    """Reproduce paper Fig. 9 (path-switch stability)."""
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    specs = uniform_matrix(
        ctx.graph,
        TrafficConfig(
            n_flows=sc.n_flows, arrival_rate=sc.arrival_rate, seed=sc.seed + 5
        ),
    )
    capable = deployment_sample(ctx.graph, 1.0)
    result = run_scheme(ctx, "MIFO", capable, specs, solver=solver)
    raw = Fig9Result(
        scale_name=sc.name,
        result=result,
        distribution=switch_distribution(result.records),
    )

    with tm.span("metrics.compute"):
        d = raw.distribution
        series = {
            "% of switching flows": [
                (float(k), d.fraction_of_switching(k) * 100) for k in range(1, 6)
            ]
        }
        meta: dict[str, object] = {
            **provenance_meta(ctx),
            "fraction_switching": d.fraction_switching,
            "fraction_one_switch": d.fraction_of_switching(1),
            "fraction_at_most_two": d.fraction_at_most(2),
        }
    return ExperimentResult(
        name="fig9", scale=sc.name, series=freeze_series(series), meta=meta, raw=raw
    )
