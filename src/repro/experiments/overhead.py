"""Control-plane overhead — the paper's "zero overhead" claim, quantified.

Section II-B / VI: obtaining alternative paths costs MIRO dedicated
negotiation channels and PDAR extra BGP UPDATEs, while "MIFO obtains
multiple paths with zero overhead by learning alternative paths in local
BGP RIB."  This experiment counts, on one topology:

* the baseline BGP UPDATE messages to converge a destination (everyone
  pays these),
* MIRO's additional negotiation messages (one request + one response per
  negotiated alternative per AS pair, the minimum any bilateral protocol
  needs),
* MIFO's additional messages: **zero**, structurally — the alternatives
  counted are exactly the RIB entries the baseline convergence already
  delivered.

It also reports the alternatives each scheme gains per message spent.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..bgp.speaker import BgpNetwork
from ..miro.negotiation import MiroRouting
from .. import telemetry as tm
from .common import DEFAULT_BACKEND, SharedContext, get_scale, instrumented_run, provenance_meta
from .report import text_table
from .result import ExperimentResult

__all__ = ["OverheadResult", "run"]


@dataclasses.dataclass
class OverheadResult:
    """Control-plane overhead comparison across schemes."""
    scale_name: str
    n_destinations: int
    bgp_messages: int  #: baseline convergence UPDATEs (all schemes pay)
    miro_messages: int  #: additional negotiation messages
    mifo_messages: int  #: additional messages (always 0)
    miro_alternatives: int
    mifo_alternatives: int

    def rows(self) -> list[list[object]]:
        """Table rows: one per scheme."""
        def per_msg(alts: int, msgs: int) -> str:
            return f"{alts / msgs:.2f}" if msgs else "inf" if alts else "0"

        return [
            ["BGP (baseline convergence)", self.bgp_messages, 0, "-"],
            [
                "MIRO (strict, k<=2)",
                self.bgp_messages + self.miro_messages,
                self.miro_alternatives,
                per_msg(self.miro_alternatives, self.miro_messages),
            ],
            [
                "MIFO (RIB mining)",
                self.bgp_messages + self.mifo_messages,
                self.mifo_alternatives,
                "inf (0 extra messages)",
            ],
        ]

    def render(self) -> str:
        """Human-readable report table."""
        table = text_table(
            ["Scheme", "Control messages", "Alternatives gained", "Alts per extra msg"],
            self.rows(),
            title=(
                "Control-plane overhead of obtaining alternatives "
                f"({self.n_destinations} destinations, scale={self.scale_name})"
            ),
        )
        return table + (
            "\nMIFO's alternatives are the Adj-RIB-In entries baseline BGP "
            "already delivered: zero additional control-plane traffic "
            "(paper Sections II-B, VI)."
        )


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    n_destinations: int = 5,
) -> ExperimentResult:
    """Run the control-plane overhead comparison."""
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    graph = ctx.graph
    rng = np.random.default_rng(sc.seed + 7)
    nodes = np.fromiter(graph.nodes(), dtype=np.int64)
    dests = [int(d) for d in rng.choice(nodes, size=n_destinations, replace=False)]
    ctx.routing.precompute(dests)

    # Baseline: message-level BGP convergence cost.
    net = BgpNetwork(graph)
    bgp_messages = sum(net.announce(d) for d in dests)

    capable = frozenset(graph.nodes())
    miro = MiroRouting(graph, ctx.routing, capable)

    miro_messages = 0
    miro_alternatives = 0
    mifo_alternatives = 0
    with tm.span("metrics.compute"):
        for d in dests:
            routing = ctx.routing(d)
            for x in graph.nodes():
                if x == d or not routing.has_route(x):
                    continue
                n_miro = len(miro.available_paths(x, d)) - 1
                miro_alternatives += n_miro
                # Bilateral negotiation: request + response per alternative.
                miro_messages += 2 * n_miro
                mifo_alternatives += len(routing.alternatives(x))

    raw = OverheadResult(
        scale_name=sc.name,
        n_destinations=n_destinations,
        bgp_messages=bgp_messages,
        miro_messages=miro_messages,
        mifo_messages=0,
        miro_alternatives=miro_alternatives,
        mifo_alternatives=mifo_alternatives,
    )
    meta = {**provenance_meta(ctx), **dataclasses.asdict(raw)}
    meta.pop("scale_name")
    return ExperimentResult(
        name="overhead", scale=sc.name, series={}, meta=meta, raw=raw
    )
