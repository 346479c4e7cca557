"""Figure 6 — throughput CDF under power-law traffic, varying skew α.

The paper fixes deployment at 50% and draws sources from Zipf-ranked
content providers (``F(i) = a · i^-α``) with stub consumers, for
α ∈ {0.8, 1.0, 1.2}.  Headline: BGP degrades as skew grows (traffic
concentrates on few default paths); MIFO holds up via multi-path
forwarding; at α = 1.0 the paper reads 40% / 17% / 7% of flows attaining
500 Mbps for MIFO / MIRO / BGP.
"""

from __future__ import annotations

from collections.abc import Sequence

from .common import DEFAULT_BACKEND, Cells, Grid, instrumented_run, run_grid
from .fig5 import SCHEMES, cdf_metric, cdf_render
from .result import ExperimentResult

__all__ = ["run"]

ALPHAS = (0.8, 1.0, 1.2)
DEPLOYMENT = 0.5


def render(cells: Cells) -> str:
    """Fig. 6's table and one CDF plot per α, ascending."""
    title = (
        "Figure 6: Throughput under power-law traffic "
        f"({cells.grid.deployment:.0%} deployment, scale={cells.scale_name})"
    )
    return cdf_render(cells, title, "alpha", "{:.1f}", "Fig 6 (alpha={})")


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    alphas: Sequence[float] = ALPHAS,
    deployment: float = DEPLOYMENT,
    solver: str = "incremental",
) -> ExperimentResult:
    """Reproduce paper Fig. 6 (power-law traffic matrices)."""
    grid = Grid(
        SCHEMES,
        "alpha",
        tuple(alphas),
        seed_offset=2,
        metric=cdf_metric,
        render=render,
        deployment=deployment,
    )
    return run_grid("fig6", scale, grid, backend=backend, solver=solver)
