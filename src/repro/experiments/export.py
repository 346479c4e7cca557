"""Export experiment series as gnuplot-compatible ``.dat`` files.

The paper's figures are classic gnuplot plots; this module writes each
experiment's series in the two-column (or multi-column) whitespace format
gnuplot's ``plot "file.dat" using 1:2 with lines`` consumes, so anyone can
re-typeset the figures with the original toolchain:

``export_all(out_dir)`` dumps every figure's series after running the
experiments at the requested scale.
"""

from __future__ import annotations

import os
import pathlib
import types
from collections.abc import Iterable, Sequence

from . import fig5, fig6, fig7, fig8, fig9, fig12
from .common import DEFAULT_BACKEND
from .fig5 import cdf_curve, throughput_cdf
from .result import ExperimentResult

__all__ = ["write_dat", "export_all"]


def write_dat(
    path: str | os.PathLike,
    rows: Iterable[Sequence[float]],
    *,
    columns: Sequence[str],
    comment: str | None = None,
) -> None:
    """Write one gnuplot data file with a commented header."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if comment:
        for line in comment.splitlines():
            lines.append(f"# {line}")
    lines.append("# " + "\t".join(columns))
    for row in rows:
        lines.append("\t".join(f"{v:.6g}" for v in row))
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_all(
    out_dir: str | os.PathLike,
    scale: str = "bench",
    *,
    backend: str = DEFAULT_BACKEND,
) -> list[pathlib.Path]:
    """Run every figure experiment and dump its series; returns paths."""
    out = pathlib.Path(out_dir)
    written: list[pathlib.Path] = []

    def figure(mod: types.ModuleType) -> ExperimentResult:
        return mod.run(scale, backend=backend)

    def emit(
        name: str,
        rows: Iterable[Sequence[float]],
        columns: Sequence[str],
        comment: str,
    ) -> None:
        path = out / f"{name}.dat"
        write_dat(path, rows, columns=columns, comment=comment)
        written.append(path)

    cdf_cols = ["throughput_mbps", "cdf_percent"]
    for (scheme, dep), sim in figure(fig5).raw.results.items():
        rows = cdf_curve(throughput_cdf(sim), 60)
        comment = f"Fig 5, {dep:.0%} deployment, {scheme}"
        emit(f"fig5_{int(dep * 100)}pct_{scheme.lower()}", rows, cdf_cols, comment)
    for (scheme, alpha), sim in figure(fig6).raw.results.items():
        rows = cdf_curve(throughput_cdf(sim), 60)
        name = f"fig6_alpha{alpha:.1f}_{scheme.lower()}".replace(".", "_", 1)
        emit(name, rows, cdf_cols, f"Fig 6, alpha={alpha}, {scheme}")

    r7 = figure(fig7).raw
    for label, series in r7.series().items():
        safe = label.replace("% ", "pct_").replace("%", "pct").lower()
        emit(
            f"fig7_{safe}",
            series,
            ["pct_of_pairs", "log10_paths"],
            f"Fig 7, {label}",
        )

    emit(
        "fig8_offload",
        figure(fig8).series["offload %"],
        ["deployment_pct", "offload_pct"],
        "Fig 8, traffic on alternative paths",
    )

    emit(
        "fig9_switches",
        figure(fig9).series["% of switching flows"],
        ["switch_count", "pct_of_switching_flows"],
        "Fig 9, path switch distribution",
    )

    r12 = figure(fig12).raw
    for run_ in (r12.bgp, r12.mifo):
        emit(
            f"fig12a_{run_.scheme.lower()}",
            [(t, v / 1e9) for t, v in run_.throughput_series],
            ["time_s", "aggregate_gbps"],
            f"Fig 12(a), {run_.scheme}",
        )
        fx, fy = run_.fct_cdf().series(points=40)
        emit(
            f"fig12b_{run_.scheme.lower()}",
            list(zip(fx, fy)),
            ["fct_s", "cdf_percent"],
            f"Fig 12(b), {run_.scheme}",
        )

    return written
