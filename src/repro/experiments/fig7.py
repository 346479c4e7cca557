"""Figure 7 — available paths per AS pair: MIFO vs MIRO, 50% vs 100%.

The paper sorts AS pairs by the number of available paths and plots the
count (log scale) against the percentage of node pairs.  Headlines: MIFO
at 50% deployment already offers more paths than MIRO fully deployed;
under full MIFO deployment 90% of pairs have at least a hundred
alternative paths and nearly half have thousands.  (Absolute counts grow
with topology size — at laptop scale the curves keep their ordering and
spacing but sit lower; see EXPERIMENTS.md.)
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from .. import telemetry as tm
from ..metrics.cdf import survival_series
from ..metrics.diversity import diversity_counts
from ..miro.negotiation import MiroRouting
from .common import (
    DEFAULT_BACKEND,
    SharedContext,
    deployment_sample,
    get_scale,
    instrumented_run,
    provenance_meta,
)
from .report import ascii_series, percent, text_table
from .result import ExperimentResult, freeze_series

__all__ = ["Fig7Result", "run", "sample_pairs"]

DEPLOYMENTS = (0.5, 1.0)


def sample_pairs(
    ctx: SharedContext, n_pairs: int, *, seed: int, dests: int = 25
) -> list[tuple[int, int]]:
    """Random pairs grouped on few destinations (routing-cache reuse)."""
    rng = np.random.default_rng(seed)
    nodes = np.fromiter(ctx.graph.nodes(), dtype=np.int64)
    dsts = rng.choice(nodes, size=min(dests, len(nodes)), replace=False)
    per = max(1, n_pairs // len(dsts))
    pairs: list[tuple[int, int]] = []
    for d in dsts:
        srcs = rng.choice(nodes, size=per)
        pairs.extend((int(s), int(d)) for s in srcs if int(s) != int(d))
    return pairs


@dataclasses.dataclass
class Fig7Result:
    """Paper Fig. 7: path diversity under partial deployment."""
    scale_name: str
    #: (scheme, deployment) -> per-pair path counts
    counts: dict[tuple[str, float], list[int]]

    def series(self) -> dict[str, list[tuple[float, float]]]:
        """Survival curves keyed by scheme/deployment label."""
        out: dict[str, list[tuple[float, float]]] = {}
        for (scheme, dep), c in sorted(self.counts.items()):
            pct, vals = survival_series(c)
            out[f"{dep:.0%} {scheme}"] = list(zip(pct, np.log10(np.maximum(vals, 1))))
        return out

    def median(self, scheme: str, deployment: float) -> float:
        """Median path count for one cell."""
        return float(np.median(self.counts[(scheme, deployment)]))

    def fraction_with_at_least(self, scheme: str, deployment: float, k: int) -> float:
        """Fraction of pairs with >= ``k`` usable paths."""
        c = self.counts[(scheme, deployment)]
        return sum(x >= k for x in c) / len(c) if c else 0.0

    def rows(self) -> list[list[object]]:
        """Table rows: one per (scheme, deployment)."""
        rows = []
        for (scheme, dep), c in sorted(self.counts.items()):
            arr = np.asarray(c)
            rows.append(
                [
                    scheme,
                    f"{dep:.0%}",
                    f"{np.median(arr):.0f}",
                    f"{np.percentile(arr, 90):.0f}",
                    int(arr.max()) if arr.size else 0,
                    percent(float((arr >= 10).mean())),
                ]
            )
        return rows

    def render(self) -> str:
        """Human-readable report table."""
        table = text_table(
            ["Scheme", "Deployed", "Median paths", "p90", "Max", ">=10 paths"],
            self.rows(),
            title=f"Figure 7: Available paths per AS pair (scale={self.scale_name})",
        )
        plot = ascii_series(
            self.series(),
            title="Fig 7: log10(paths) vs percentage of node pairs (descending)",
            xlabel="% of pairs",
            ylabel="log10 paths",
        )
        return table + "\n\n" + plot


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    deployments: Sequence[float] = DEPLOYMENTS,
) -> ExperimentResult:
    """Reproduce paper Fig. 7 (path diversity)."""
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    pairs = sample_pairs(ctx, sc.n_pairs, seed=sc.seed + 3)
    ctx.routing.precompute({dst for _src, dst in pairs})
    counts: dict[tuple[str, float], list[int]] = {}
    for dep in deployments:
        capable = deployment_sample(ctx.graph, dep)
        miro = MiroRouting(ctx.graph, ctx.routing, capable)
        mifo_counts, miro_counts = diversity_counts(
            ctx.graph, ctx.routing, pairs, mifo_capable=capable, miro_routing=miro
        )
        counts[("MIFO", dep)] = mifo_counts
        counts[("MIRO", dep)] = miro_counts
    raw = Fig7Result(scale_name=sc.name, counts=counts)

    meta: dict[str, object] = {**provenance_meta(ctx), "n_pairs": len(pairs)}
    with tm.span("metrics.compute"):
        for (scheme, dep), c in sorted(raw.counts.items()):
            meta[f"median_paths[{dep:.0%} {scheme}]"] = raw.median(scheme, dep)
            meta[f"frac_ge_10_paths[{dep:.0%} {scheme}]"] = (
                raw.fraction_with_at_least(scheme, dep, 10)
            )
    return ExperimentResult(
        name="fig7",
        scale=sc.name,
        series=freeze_series(raw.series()),
        meta=meta,
        raw=raw,
    )
