"""Figure 5 — flow-throughput CDF under uniform traffic, by deployment.

The paper runs one million 10 MB flows between uniformly random AS pairs
and plots the end-to-end throughput CDF of BGP vs MIRO vs MIFO at 100%,
50% and 10% deployment.  Headline shape: both multipath schemes dominate
BGP; MIFO dominates MIRO at every deployment ratio (e.g. at 100%: ~80% of
MIFO flows exceed 500 Mbps vs ~50% for MIRO); even 10% deployment yields a
visible MIFO gain.

Fig. 6 shares this module's throughput metric and CDF report.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..flowsim.simulator import FluidSimResult
from ..metrics.cdf import Cdf
from .common import DEFAULT_BACKEND, Cells, Grid, Measured, Series, instrumented_run, run_grid
from .report import ascii_series, percent, text_table
from .result import ExperimentResult

__all__ = ["cdf_curve", "cdf_metric", "cdf_render", "run", "throughput_cdf"]

DEPLOYMENTS = (1.0, 0.5, 0.1)
SCHEMES = ("BGP", "MIRO", "MIFO")


def throughput_cdf(sim: FluidSimResult) -> Cdf:
    """Per-flow throughput CDF of one simulation (bps)."""
    return Cdf.from_samples(sim.throughputs_bps())


def cdf_curve(cdf: Cdf, points: int = 40) -> list[tuple[float, float]]:
    """``points`` (Mbps, CDF %) pairs over 0..1000 Mbps."""
    xs, ys = cdf.series(points=points, lo=0.0, hi=1e9)
    return list(zip(xs / 1e6, ys))


def cdf_metric(cells: Cells) -> Measured:
    """Per cell: the CDF curve, the median and the >=500 Mbps fraction."""
    series: Series = {}
    meta: dict[str, float] = {}
    for (scheme, value), sim in cells.results.items():
        label = f"{cells.grid.label(value)} {scheme}"
        cdf = throughput_cdf(sim)
        series[label] = cdf_curve(cdf)
        meta[f"median_mbps[{label}]"] = cdf.median / 1e6
        meta[f"frac_ge_500mbps[{label}]"] = cdf.fraction_at_least(500e6)
    return series, meta


def cdf_render(
    cells: Cells,
    title: str,
    header: str,
    text: str,
    caption: str,
    *,
    reverse: bool = False,
    thresholds: Sequence[int] = (500,),
) -> str:
    """A table row per distinct simulation, then a CDF plot per axis value,
    values in sorted order.  ``text`` and ``caption`` format a value for
    the table and for its plot's title."""
    rows: list[list[object]] = []
    plots: list[str] = []
    listed: set[int] = set()
    for value in sorted(cells.grid.values, reverse=reverse):
        curves: Series = {}
        for scheme in cells.grid.schemes:
            sim = cells[scheme, value]
            cdf = throughput_cdf(sim)
            curves[scheme] = cdf_curve(cdf)
            if id(sim) in listed:
                continue  # BGP on a deployment axis: one run, one row
            listed.add(id(sim))
            rows.append(
                [text.format(value), scheme, f"{cdf.median / 1e6:.0f}"]
                + [percent(cdf.fraction_at_least(t * 1e6)) for t in thresholds]
            )
        plots.append(
            ascii_series(
                curves,
                title=f"{caption.format(value)}: CDF(%) vs throughput (Mbps)",
                xlabel="Mbps",
                ylabel="CDF %",
            )
        )
    headers = [header, "Scheme", "Median Mbps"] + [f">={t} Mbps" for t in thresholds]
    return text_table(headers, rows, title=title) + "\n\n" + "\n\n".join(plots)


def render(cells: Cells) -> str:
    """Fig. 5's table and one CDF plot per deployment, highest first."""
    title = (
        "Figure 5: Throughput vs deployment ratio "
        f"(uniform traffic, scale={cells.scale_name})"
    )
    return cdf_render(
        cells,
        title,
        "Deployment",
        "{:.0%}",
        "Fig 5 ({:.0%} deployed)",
        reverse=True,
        thresholds=(500, 100),
    )


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    deployments: Sequence[float] = DEPLOYMENTS,
    solver: str = "incremental",
) -> ExperimentResult:
    """Reproduce paper Fig. 5 (throughput vs deployment)."""
    grid = Grid(
        SCHEMES, "deployment", tuple(deployments), seed_offset=1, metric=cdf_metric, render=render
    )
    return run_grid("fig5", scale, grid, backend=backend, solver=solver)
