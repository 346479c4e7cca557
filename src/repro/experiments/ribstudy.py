"""Section II-B claim — multi-neighbor forwarding availability in the RIB.

"By examining the BGP RIB provided by Routeview, we found that most of
ASes are able to benefit from multi-neighbor forwarding" and "the degree
of path diversity gained by an AS is therefore dependent on how many
neighbors it has" (paper Section II-B).

This experiment measures, over sampled destinations: how many RIB
alternatives each AS holds (the zero-overhead multipath MIFO mines), the
fraction of ASes with at least one alternative, and the correlation
between node degree and alternative count — the quantitative form of the
paper's two claims.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import telemetry as tm
from .common import DEFAULT_BACKEND, SharedContext, get_scale, instrumented_run, provenance_meta
from .report import percent, text_table
from .result import ExperimentResult

__all__ = ["RibStudyResult", "run"]


@dataclasses.dataclass
class RibStudyResult:
    """RIB alternative-route study over all (AS, dest) pairs."""
    scale_name: str
    #: per-(AS, destination) RIB sizes (including the default route)
    rib_sizes: np.ndarray
    #: per-sample node degree aligned with rib_sizes
    degrees: np.ndarray

    @property
    def fraction_multi_neighbor(self) -> float:
        """ASes holding >= 2 routes (default + at least one alternative)."""
        return float((self.rib_sizes >= 2).mean())

    @property
    def mean_alternatives(self) -> float:
        """Mean alternatives per (AS, destination) pair."""
        return float((self.rib_sizes - 1).mean())

    @property
    def degree_correlation(self) -> float:
        """Pearson correlation between degree and RIB size."""
        if self.rib_sizes.size < 2 or self.degrees.std() == 0:
            return 0.0
        return float(np.corrcoef(self.degrees, self.rib_sizes)[0, 1])

    def rows(self) -> list[list[object]]:
        """Table rows of the summary statistics."""
        qs = np.percentile(self.rib_sizes, [50, 90, 99])
        return [
            ["ASes with >=1 alternative", percent(self.fraction_multi_neighbor)],
            ["mean alternatives per (AS, dest)", f"{self.mean_alternatives:.2f}"],
            ["median RIB size", f"{qs[0]:.0f}"],
            ["p90 RIB size", f"{qs[1]:.0f}"],
            ["p99 RIB size", f"{qs[2]:.0f}"],
            ["corr(degree, RIB size)", f"{self.degree_correlation:.2f}"],
        ]

    def render(self) -> str:
        """Human-readable report table."""
        return text_table(
            ["Metric", "Value"],
            self.rows(),
            title=(
                "Section II-B study: multi-neighbor forwarding availability "
                f"in the BGP RIB (scale={self.scale_name})"
            ),
        )


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    n_destinations: int = 20,
) -> ExperimentResult:
    """Run the RIB alternative-route study."""
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    graph = ctx.graph
    rng = np.random.default_rng(sc.seed + 6)
    nodes = np.fromiter(graph.nodes(), dtype=np.int64)
    dests = rng.choice(nodes, size=min(n_destinations, len(nodes)), replace=False)
    ctx.routing.precompute(int(d) for d in dests)

    with tm.span("metrics.compute"):
        sizes: list[int] = []
        degrees: list[int] = []
        for d in dests:
            routing = ctx.routing(int(d))
            for x in graph.nodes():
                if x == int(d) or not routing.has_route(x):
                    continue
                sizes.append(len(routing.rib(x)))
                degrees.append(graph.degree(x))
        raw = RibStudyResult(
            scale_name=sc.name,
            rib_sizes=np.asarray(sizes),
            degrees=np.asarray(degrees),
        )
        meta: dict[str, object] = {
            **provenance_meta(ctx),
            "n_destinations": int(len(dests)),
            "fraction_multi_neighbor": raw.fraction_multi_neighbor,
            "mean_alternatives": raw.mean_alternatives,
            "degree_correlation": raw.degree_correlation,
        }
    return ExperimentResult(
        name="ribstudy", scale=sc.name, series={}, meta=meta, raw=raw
    )
