"""Pass registry and runner for mifocheck.

Each pass module exposes ``CODE``, ``DESCRIPTION``, and
``run(program, cfg, root) -> list[Finding]``.  The runner parses the
package once into a :class:`~tools.mifocheck.program.Program`, hands the
same model to every selected pass, drops per-line-suppressed findings
(``# mifocheck: disable=MC1xx`` — mifolint spellings work too), and
returns findings paired with their source-line text so the CLI can
apply baselines by content fingerprint.
"""

from __future__ import annotations

import pathlib

from ..config import AnalysisConfig
from ..program import Program
from ...lintshared import Finding, suppressed
from . import mc101, mc103, mc104

__all__ = ["PASSES", "RULES", "run_passes"]

PASSES = (mc101, mc103, mc104)

RULES: dict[str, str] = {p.CODE: p.DESCRIPTION for p in PASSES}


def _source_lines(
    program: Program, cfg: AnalysisConfig, root: pathlib.Path
) -> dict[str, list[str]]:
    sources: dict[str, list[str]] = {}
    for info in program.modules.values():
        sources[program.rel_path(info, root)] = info.lines
    core = cfg.mifolint_core
    if core.exists():
        try:
            rel = str(core.relative_to(root))
        except ValueError:
            rel = str(core)
        sources[rel] = core.read_text(encoding="utf-8").splitlines()
    return sources


def run_passes(
    cfg: AnalysisConfig,
    *,
    select: set[str] | None = None,
    program: Program | None = None,
) -> tuple[list[tuple[Finding, str]], Program]:
    """Run the selected passes; returns ``(finding, line_text)`` pairs."""
    prog = program if program is not None else Program(cfg.source_root, cfg.package)
    root = cfg.source_root.parent
    raw: list[Finding] = []
    for p in PASSES:
        if select is not None and p.CODE not in select:
            continue
        raw.extend(p.run(prog, cfg, root))
    sources = _source_lines(prog, cfg, root)
    kept: list[tuple[Finding, str]] = []
    for f in sorted(raw, key=lambda f: (f.path, f.line, f.code, f.message)):
        lines = sources.get(f.path, [])
        if suppressed(lines, f.line, f.code):
            continue
        text = lines[f.line - 1] if 1 <= f.line <= len(lines) else ""
        kept.append((f, text))
    return kept, prog
