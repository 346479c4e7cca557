"""Figure 5 — flow-throughput CDF under uniform traffic, by deployment.

The paper runs one million 10 MB flows between uniformly random AS pairs
and plots the end-to-end throughput CDF of BGP vs MIRO vs MIFO at 100%,
50% and 10% deployment.  Headline shape: both multipath schemes dominate
BGP; MIFO dominates MIRO at every deployment ratio (e.g. at 100%: ~80% of
MIFO flows exceed 500 Mbps vs ~50% for MIRO); even 10% deployment yields a
visible MIFO gain.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence


from .. import telemetry as tm
from ..flowsim.simulator import FluidSimResult
from ..metrics.cdf import Cdf
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

__all__ = ["Fig5Result", "run"]

DEPLOYMENTS = (1.0, 0.5, 0.1)
SCHEMES = ("BGP", "MIRO", "MIFO")


@dataclasses.dataclass
class Fig5Result:
    """CDF per (deployment ratio, scheme)."""

    scale_name: str
    #: (deployment, scheme) -> fluid result
    results: dict[tuple[float, str], FluidSimResult]

    def cdf(self, deployment: float, scheme: str) -> Cdf:
        """Throughput CDF for one (deployment, scheme) cell."""
        return Cdf.from_samples(self.results[(deployment, scheme)].throughputs_bps())

    def fraction_at_least(
        self, deployment: float, scheme: str, mbps: float = 500.0
    ) -> float:
        """Fraction of flows at or above ``mbps``."""
        return self.cdf(deployment, scheme).fraction_at_least(mbps * 1e6)

    @property
    def deployments(self) -> list[float]:
        """Deployment ratios present, descending."""
        return sorted({dep for dep, _s in self.results}, reverse=True)

    def rows(self) -> list[list[object]]:
        """Table rows: one per (deployment, scheme)."""
        rows = []
        for dep in self.deployments:
            for scheme in SCHEMES:
                if scheme == "BGP" and dep != self.deployments[0]:
                    continue  # BGP has no deployment knob
                c = self.cdf(dep, scheme)
                rows.append(
                    [
                        f"{dep:.0%}",
                        scheme,
                        f"{c.median / 1e6:.0f}",
                        percent(c.fraction_at_least(500e6)),
                        percent(c.fraction_at_least(100e6)),
                    ]
                )
        return rows

    def render(self) -> str:
        """Human-readable report table."""
        table = text_table(
            ["Deployment", "Scheme", "Median Mbps", ">=500 Mbps", ">=100 Mbps"],
            self.rows(),
            title=f"Figure 5: Throughput vs deployment ratio (uniform traffic, scale={self.scale_name})",
        )
        plots = []
        for dep in self.deployments:
            series: dict[str, list[tuple[float, float]]] = {}
            for scheme in SCHEMES:
                key = (dep, scheme)
                xs, ys = self.cdf(*key).series(points=40, lo=0.0, hi=1e9)
                series[scheme] = list(zip(xs / 1e6, ys))
            plots.append(
                ascii_series(
                    series,
                    title=f"Fig 5 ({dep:.0%} deployed): CDF(%) vs throughput (Mbps)",
                    xlabel="Mbps",
                    ylabel="CDF %",
                )
            )
        return table + "\n\n" + "\n\n".join(plots)


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = "dict",
    deployments: Sequence[float] = DEPLOYMENTS,
    solver: str = "incremental",
) -> ExperimentResult:
    """Reproduce paper Fig. 5 (throughput vs deployment)."""
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    specs = uniform_matrix(
        ctx.graph,
        TrafficConfig(
            n_flows=sc.n_flows, arrival_rate=sc.arrival_rate, seed=sc.seed + 1
        ),
    )
    results: dict[tuple[float, str], FluidSimResult] = {}
    bgp_result = run_scheme(ctx, "BGP", frozenset(), specs, solver=solver)
    for dep in deployments:
        capable = deployment_sample(ctx.graph, dep)
        results[(dep, "BGP")] = bgp_result
        for scheme in ("MIRO", "MIFO"):
            results[(dep, scheme)] = run_scheme(
                ctx, scheme, capable, specs, solver=solver
            )
    raw = Fig5Result(scale_name=sc.name, results=results)

    series: dict[str, list[tuple[float, float]]] = {}
    meta: dict[str, object] = dict(provenance_meta(ctx))
    with tm.span("metrics.compute"):
        for dep in raw.deployments:
            for scheme in SCHEMES:
                c = raw.cdf(dep, scheme)
                xs, ys = c.series(points=40, lo=0.0, hi=1e9)
                series[f"{dep:.0%} {scheme}"] = list(zip(xs / 1e6, ys))
                meta[f"median_mbps[{dep:.0%} {scheme}]"] = c.median / 1e6
                meta[f"frac_ge_500mbps[{dep:.0%} {scheme}]"] = c.fraction_at_least(
                    500e6
                )
    return ExperimentResult(
        name="fig5", scale=sc.name, series=freeze_series(series), meta=meta, raw=raw
    )
