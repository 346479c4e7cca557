"""Table I — attributes of the AS-topology data set.

Paper values (UCLA IRL trace, Nov 2014): 44,340 nodes, 109,360 links,
75,046 provider–customer links (69%), 34,314 peering links (31%).  Our
synthetic generator reproduces the relationship mix exactly and the link/
node ratio approximately at any scale; this experiment reports the
generated attributes side by side with the paper's row.
"""

from __future__ import annotations

import dataclasses

from ..topology.stats import TopologyStats, topology_stats
from .. import telemetry as tm
from .common import DEFAULT_BACKEND, SharedContext, get_scale, instrumented_run, provenance_meta
from .report import percent, text_table
from .result import ExperimentResult

__all__ = ["PAPER_TABLE1", "Table1Result", "run"]

#: The paper's Table I row.
PAPER_TABLE1 = {
    "# of Nodes": 44_340,
    "# of Links": 109_360,
    "P/C Links": 75_046,
    "Peering Links": 34_314,
}


@dataclasses.dataclass(frozen=True)
class Table1Result:
    """Paper Table I: topology attributes vs the paper's data."""
    stats: TopologyStats
    scale_name: str

    def rows(self) -> list[list[object]]:
        """Two rows: the paper's data-set and ours."""
        ours = self.stats.as_table_row()
        return [
            ["paper (11/2014)"] + [PAPER_TABLE1[k] for k in PAPER_TABLE1],
            [f"ours ({self.scale_name})"] + [ours[k] for k in PAPER_TABLE1],
        ]

    def render(self) -> str:
        """Human-readable report table."""
        table = text_table(
            ["Data-set"] + list(PAPER_TABLE1), self.rows(), title="Table I: Attributes of Data-set"
        )
        extra = (
            f"\nrelationship mix: P/C {percent(self.stats.p2c_fraction)} "
            f"(paper 69%), peering {percent(self.stats.peering_fraction)} (paper 31%); "
            f"multihomed ASes {percent(self.stats.multihomed_fraction)}"
        )
        return table + extra


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
) -> ExperimentResult:
    """Reproduce paper Table I (topology attributes)."""
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    with tm.span("metrics.compute"):
        raw = Table1Result(stats=topology_stats(ctx.graph), scale_name=sc.name)
        meta: dict[str, object] = {
            **provenance_meta(ctx),
            "n_nodes": raw.stats.n_nodes,
            "n_links": raw.stats.n_links,
            "p2c_fraction": raw.stats.p2c_fraction,
            "peering_fraction": raw.stats.peering_fraction,
        }
    return ExperimentResult(
        name="table1", scale=sc.name, series={}, meta=meta, raw=raw
    )
