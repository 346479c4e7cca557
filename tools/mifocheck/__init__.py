"""mifocheck — whole-program static analysis for the repro package.

Where :mod:`tools.mifolint` lints one file at a time, mifocheck parses
all of ``src/repro`` into a single program model (module table, per-class
instance-attribute inventory, conservative call graph) and runs
whole-program passes against it:

* **MC101** checkpoint completeness — every instance attribute of the
  session/solver/scenario classes is captured, declared derivable, or
  flagged;
* **MC103** stream purity — ``EventStream.event_at`` reads only
  ``(seed, index)``-derived state;
* **MC104** protected-field inference — mifolint's MF003 field sets are
  derived from source, cross-checked, never hand-maintained.

Run ``python -m tools.mifocheck`` (stdlib-only; never imports repro).
"""

from __future__ import annotations

from .config import AnalysisConfig, default_config
from .passes import RULES, run_passes
from .program import Program
from ..lintshared import Finding

__all__ = [
    "AnalysisConfig",
    "Finding",
    "Program",
    "RULES",
    "default_config",
    "run_passes",
]
