"""Figure 9 — path-switch distribution (MIFO stability).

The paper counts per-flow path switches (deflections + resumptions) under
full MIFO deployment: 67.7% of switching flows switch exactly once and
97.5% at most twice — i.e. traffic does not thrash between paths.
"""

from __future__ import annotations

from ..metrics.stability import SwitchDistribution, switch_distribution
from .common import DEFAULT_BACKEND, Cells, Grid, Measured, instrumented_run, run_grid
from .report import percent, text_table
from .result import ExperimentResult

__all__ = ["distribution", "run", "PAPER_ONE_SWITCH", "PAPER_AT_MOST_TWO"]

PAPER_ONE_SWITCH = 0.677
PAPER_AT_MOST_TWO = 0.975


def distribution(cells: Cells) -> SwitchDistribution:
    """Per-flow path-switch counts of the full-deployment MIFO cell."""
    return switch_distribution(cells["MIFO", 1.0].records)


def metric(cells: Cells) -> Measured:
    """The 1..>=5 switch histogram and the paper's two headline fractions."""
    d = distribution(cells)
    series = {
        "% of switching flows": [
            (float(k), d.fraction_of_switching(k) * 100) for k in range(1, 6)
        ]
    }
    return series, {
        "fraction_switching": d.fraction_switching,
        "fraction_one_switch": d.fraction_of_switching(1),
        "fraction_at_most_two": d.fraction_at_most(2),
    }


def render(cells: Cells) -> str:
    """Fig. 9's switch-count table and its comparison with the paper."""
    d = distribution(cells)
    table = text_table(
        ["# of path switches", "% of switching flows"],
        [
            [f"{k}" if k < 5 else ">=5", percent(d.fraction_of_switching(k))]
            for k in range(1, 6)
        ],
        title=f"Figure 9: Path switch distribution (scale={cells.scale_name})",
    )
    summary = (
        f"\nswitching flows: {percent(d.fraction_switching)} of all flows"
        f"\nexactly one switch: {percent(d.fraction_of_switching(1))} (paper {percent(PAPER_ONE_SWITCH)})"
        f"\nat most two:        {percent(d.fraction_at_most(2))} (paper {percent(PAPER_AT_MOST_TWO)})"
    )
    return table + summary


@instrumented_run
def run(
    scale: str = "default", *, backend: str = DEFAULT_BACKEND, solver: str = "incremental"
) -> ExperimentResult:
    """Reproduce paper Fig. 9 (path-switch stability)."""
    grid = Grid(("MIFO",), "deployment", (1.0,), seed_offset=5, metric=metric, render=render)
    return run_grid("fig9", scale, grid, backend=backend, solver=solver)
