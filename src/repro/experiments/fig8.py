"""Figure 8 — traffic offloaded to alternative paths vs MIFO deployment.

The paper counts flows transferred on alternative paths over total flows,
for deployment 10%..100%: ~50% of flows ride alternatives at full
deployment, and even 10% deployment offloads ~9% of traffic.
"""

from __future__ import annotations

from collections.abc import Sequence

from .common import DEFAULT_BACKEND, Cells, Grid, Measured, instrumented_run, run_grid
from .report import ascii_series, percent, text_table
from .result import ExperimentResult

__all__ = ["offloads", "run"]

DEPLOYMENTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def offloads(cells: Cells) -> dict[float, float]:
    """Fraction of MIFO flows ever on an alternative path, by deployment ascending."""
    return {
        dep: cells["MIFO", dep].fraction_on_alternative() for dep in sorted(cells.grid.values)
    }


def metric(cells: Cells) -> Measured:
    """The offload curve and one ``offload[<deployment>]`` per cell."""
    offload = offloads(cells)
    series = {"offload %": [(dep * 100, off * 100) for dep, off in offload.items()]}
    return series, {f"offload[{cells.grid.label(dep)}]": off for dep, off in offload.items()}


def render(cells: Cells) -> str:
    """Fig. 8's table and offload plot."""
    table = text_table(
        ["MIFO deployment", "Traffic on alternative paths"],
        [[cells.grid.label(dep), percent(off)] for dep, off in offloads(cells).items()],
        title=f"Figure 8: Traffic offload vs deployment (scale={cells.scale_name})",
    )
    return table + "\n\n" + ascii_series(
        metric(cells)[0],
        title="Fig 8: % of flows on alternative paths vs deployment %",
        xlabel="% deployed",
        ylabel="% offloaded",
    )


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    deployments: Sequence[float] = DEPLOYMENTS,
    solver: str = "incremental",
) -> ExperimentResult:
    """Reproduce paper Fig. 8 (offload vs deployment)."""
    grid = Grid(
        ("MIFO",), "deployment", tuple(deployments), seed_offset=4, metric=metric, render=render
    )
    return run_grid("fig8", scale, grid, backend=backend, solver=solver)
