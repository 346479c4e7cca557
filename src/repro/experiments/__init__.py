"""Experiment harness (system S10 in DESIGN.md) — one module per paper
artifact, each exposing the unified entry point
``run(scale, *, backend="array", **extras) -> ExperimentResult``
(see :mod:`repro.experiments.result`); ``result.render()`` produces the
human-readable report, ``result.to_json()`` the machine-readable one.

Figs. 5, 6, 8 and 9 are grids of ``Cell(scheme, value)`` simulations,
computed by :func:`repro.experiments.common.run_grid`; each figure module
holds only its grid, its metric and its render.

Registry keys match the DESIGN.md experiment index: ``table1``, ``fig5``,
``fig6``, ``fig7``, ``fig8``, ``fig9``, ``fig12``.
"""

from . import (
    export,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig12,
    overhead,
    ribstudy,
    scenario,
    service,
    table1,
)
from .common import SCALES, ExperimentScale, SharedContext, deployment_sample, get_scale
from .result import ExperimentResult

#: name -> module with a ``run(scale)`` entry point.
REGISTRY = {
    "table1": table1,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig12": fig12,
    "ribstudy": ribstudy,
    "overhead": overhead,
    "scenario": scenario,
    "service": service,
}

__all__ = [
    "REGISTRY",
    "SCALES",
    "ExperimentResult",
    "ExperimentScale",
    "SharedContext",
    "deployment_sample",
    "get_scale",
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig12",
    "ribstudy",
    "overhead",
    "scenario",
    "service",
    "export",
]
