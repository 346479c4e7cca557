"""The unified experiment result type.

Every experiment module exposes one entry point with one signature::

    run(scale, *, backend="array", **extras) -> ExperimentResult

``backend`` selects the routing implementation (the vectorized ``array``
default or the ``dict`` oracle); it flows through
:class:`~repro.experiments.common.SharedContext` so results are
backend-independent by construction (the cross-validation suite enforces
it).

:class:`ExperimentResult` is the common frozen envelope: a ``name``, the
``scale`` it ran at, plot-ready ``series`` (label -> ``(x, y)`` points),
scalar ``meta`` headlines, and :meth:`to_json` for machine consumers.
The figure's rich result rides along as ``raw`` for callers that need
more (benchmarks, the gnuplot exporter).  For Figs. 5, 6, 8 and 9 it is
a :class:`~repro.experiments.common.Cells`: one simulation per grid
cell, read as ``result.raw["MIFO", 0.5]``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

__all__ = ["ExperimentResult", "PROVENANCE_KEYS", "freeze_series"]

#: ``meta`` keys that record *how* a result was computed (backend, cache
#: counters, telemetry timings) rather than *what* was computed.
#: Everything outside this set is part of the byte-identical cross-backend
#: determinism contract.
PROVENANCE_KEYS: frozenset[str] = frozenset(
    {"backend", "routing_cache", "telemetry", "scenario_engine"}
)


def freeze_series(series: dict) -> dict[str, tuple[tuple[float, float], ...]]:
    """Normalize a ``label -> points`` mapping to hashable float tuples."""
    return {
        str(label): tuple((float(x), float(y)) for x, y in points)
        for label, points in series.items()
    }


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """What every experiment's ``run()`` returns."""

    name: str  #: registry name ("fig5", "table1", ...)
    scale: str  #: scale preset name the run used
    series: dict[str, tuple[tuple[float, float], ...]]  #: label -> points
    meta: dict[str, Any]  #: scalar headlines (medians, fractions, timings)
    raw: Any = dataclasses.field(default=None, repr=False, compare=False)

    def to_json(
        self, *, indent: int | None = None, include_provenance: bool = True
    ) -> str:
        """JSON of everything except ``raw`` (which is figure-specific).

        ``include_provenance=False`` drops the :data:`PROVENANCE_KEYS`
        meta entries, leaving exactly the payload the determinism
        guarantee covers — two runs of one experiment must produce
        byte-identical output regardless of routing backend
        (``tests/experiments/test_determinism.py`` enforces this).
        """
        meta = self.meta
        if not include_provenance:
            meta = {k: v for k, v in meta.items() if k not in PROVENANCE_KEYS}
        return json.dumps(
            {
                "name": self.name,
                "scale": self.scale,
                "series": {k: [list(p) for p in v] for k, v in self.series.items()},
                "meta": meta,
            },
            indent=indent,
            sort_keys=True,
            default=str,
        )

    def render(self) -> str:
        """Human-readable report (delegates to the rich result)."""
        raw = self.raw
        if raw is not None and hasattr(raw, "render"):
            return raw.render()
        return self.to_json(indent=2)
