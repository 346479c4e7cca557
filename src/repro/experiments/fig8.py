"""Figure 8 — traffic offloaded to alternative paths vs MIFO deployment.

The paper counts flows transferred on alternative paths over total flows,
for deployment 10%..100%: ~50% of flows ride alternatives at full
deployment, and even 10% deployment offloads ~9% of traffic.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from .. import telemetry as tm
from ..flowsim.simulator import FluidSimResult
from ..traffic.matrix import TrafficConfig, uniform_matrix
from .common import (
    SharedContext,
    deployment_sample,
    get_scale,
    instrumented_run,
    provenance_meta,
    run_scheme,
)
from .report import ascii_series, percent, text_table
from .result import ExperimentResult, freeze_series

__all__ = ["Fig8Result", "run"]

DEPLOYMENTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclasses.dataclass
class Fig8Result:
    """Paper Fig. 8: traffic offloaded to alternative paths."""
    scale_name: str
    #: deployment ratio -> fluid result (MIFO)
    results: dict[float, FluidSimResult]

    def offload(self, deployment: float) -> float:
        """Fraction of traffic on alternatives at ``deployment``."""
        return self.results[deployment].fraction_on_alternative()

    def rows(self) -> list[list[object]]:
        """Table rows: one per deployment ratio."""
        return [
            [f"{dep:.0%}", percent(self.offload(dep))]
            for dep in sorted(self.results)
        ]

    def render(self) -> str:
        """Human-readable report table."""
        table = text_table(
            ["MIFO deployment", "Traffic on alternative paths"],
            self.rows(),
            title=f"Figure 8: Traffic offload vs deployment (scale={self.scale_name})",
        )
        series = {
            "offload %": [
                (dep * 100, self.offload(dep) * 100) for dep in sorted(self.results)
            ]
        }
        return table + "\n\n" + ascii_series(
            series,
            title="Fig 8: % of flows on alternative paths vs deployment %",
            xlabel="% deployed",
            ylabel="% offloaded",
        )


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = "dict",
    deployments: Sequence[float] = DEPLOYMENTS,
    solver: str = "incremental",
) -> ExperimentResult:
    """Reproduce paper Fig. 8 (offload vs deployment)."""
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    specs = uniform_matrix(
        ctx.graph,
        TrafficConfig(
            n_flows=sc.n_flows, arrival_rate=sc.arrival_rate, seed=sc.seed + 4
        ),
    )
    results: dict[float, FluidSimResult] = {}
    for dep in deployments:
        capable = deployment_sample(ctx.graph, dep)
        results[dep] = run_scheme(ctx, "MIFO", capable, specs, solver=solver)
    raw = Fig8Result(scale_name=sc.name, results=results)

    with tm.span("metrics.compute"):
        series = {
            "offload %": [
                (dep * 100, raw.offload(dep) * 100) for dep in sorted(results)
            ]
        }
        meta: dict[str, object] = dict(provenance_meta(ctx))
        for dep in sorted(results):
            meta[f"offload[{dep:.0%}]"] = raw.offload(dep)
    return ExperimentResult(
        name="fig8", scale=sc.name, series=freeze_series(series), meta=meta, raw=raw
    )
