"""Figure 6 — throughput CDF under power-law traffic, varying skew α.

The paper fixes deployment at 50% and draws sources from Zipf-ranked
content providers (``F(i) = a · i^-α``) with stub consumers, for
α ∈ {0.8, 1.0, 1.2}.  Headline: BGP degrades as skew grows (traffic
concentrates on few default paths); MIFO holds up via multi-path
forwarding; at α = 1.0 the paper reads 40% / 17% / 7% of flows attaining
500 Mbps for MIFO / MIRO / BGP.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from .. import telemetry as tm
from ..flowsim.simulator import FluidSimResult
from ..metrics.cdf import Cdf
from ..traffic.matrix import TrafficConfig, powerlaw_matrix
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

__all__ = ["Fig6Result", "run"]

ALPHAS = (0.8, 1.0, 1.2)
SCHEMES = ("BGP", "MIRO", "MIFO")
DEPLOYMENT = 0.5


@dataclasses.dataclass
class Fig6Result:
    """Paper Fig. 6: throughput under power-law traffic."""
    scale_name: str
    #: (alpha, scheme) -> fluid result
    results: dict[tuple[float, str], FluidSimResult]

    def cdf(self, alpha: float, scheme: str) -> Cdf:
        """Throughput CDF for one (alpha, scheme) cell."""
        return Cdf.from_samples(self.results[(alpha, scheme)].throughputs_bps())

    def fraction_at_least(self, alpha: float, scheme: str, mbps: float = 500.0) -> float:
        """Fraction of flows at or above ``mbps``."""
        return self.cdf(alpha, scheme).fraction_at_least(mbps * 1e6)

    @property
    def alphas(self) -> list[float]:
        """Power-law exponents present, ascending."""
        return sorted({a for a, _s in self.results})

    def rows(self) -> list[list[object]]:
        """Table rows: one per (alpha, scheme)."""
        rows = []
        for alpha in self.alphas:
            for scheme in SCHEMES:
                c = self.cdf(alpha, scheme)
                rows.append(
                    [
                        f"{alpha:.1f}",
                        scheme,
                        f"{c.median / 1e6:.0f}",
                        percent(c.fraction_at_least(500e6)),
                    ]
                )
        return rows

    def render(self) -> str:
        """Human-readable report table."""
        table = text_table(
            ["alpha", "Scheme", "Median Mbps", ">=500 Mbps"],
            self.rows(),
            title=(
                "Figure 6: Throughput under power-law traffic "
                f"(50% deployment, scale={self.scale_name})"
            ),
        )
        plots = []
        for alpha in self.alphas:
            series: dict[str, list[tuple[float, float]]] = {}
            for scheme in SCHEMES:
                xs, ys = self.cdf(alpha, scheme).series(points=40, lo=0.0, hi=1e9)
                series[scheme] = list(zip(xs / 1e6, ys))
            plots.append(
                ascii_series(
                    series,
                    title=f"Fig 6 (alpha={alpha}): CDF(%) vs throughput (Mbps)",
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
    alphas: Sequence[float] = ALPHAS,
    deployment: float = DEPLOYMENT,
    solver: str = "incremental",
) -> ExperimentResult:
    """Reproduce paper Fig. 6 (power-law traffic matrices)."""
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    capable = deployment_sample(ctx.graph, deployment)
    # The paper uses one million content providers; we use every AS ranked
    # by connectivity, capped to keep the Zipf tail meaningful at scale.
    n_providers = max(50, sc.n_ases // 20)
    results: dict[tuple[float, str], FluidSimResult] = {}
    for alpha in alphas:
        specs = powerlaw_matrix(
            ctx.graph,
            TrafficConfig(
                n_flows=sc.n_flows,
                arrival_rate=sc.arrival_rate,
                alpha=alpha,
                seed=sc.seed + 2,
            ),
            n_providers=n_providers,
        )
        for scheme in SCHEMES:
            results[(alpha, scheme)] = run_scheme(
                ctx, scheme, capable, specs, solver=solver
            )
    raw = Fig6Result(scale_name=sc.name, results=results)

    series: dict[str, list[tuple[float, float]]] = {}
    meta: dict[str, object] = {**provenance_meta(ctx), "deployment": deployment}
    with tm.span("metrics.compute"):
        for alpha in raw.alphas:
            for scheme in SCHEMES:
                c = raw.cdf(alpha, scheme)
                xs, ys = c.series(points=40, lo=0.0, hi=1e9)
                series[f"alpha={alpha:.1f} {scheme}"] = list(zip(xs / 1e6, ys))
                meta[f"median_mbps[alpha={alpha:.1f} {scheme}]"] = c.median / 1e6
                meta[f"frac_ge_500mbps[alpha={alpha:.1f} {scheme}]"] = (
                    c.fraction_at_least(500e6)
                )
    return ExperimentResult(
        name="fig6", scale=sc.name, series=freeze_series(series), meta=meta, raw=raw
    )
