"""What-if diagnostics: explain MIFO's choices for one AS pair.

Operators evaluating a scheme like MIFO ask concrete questions: *which
path would my traffic take right now, and why?  What were the
alternatives, and which did Tag-Check forbid?*  :func:`explain_path`
answers them, producing a hop-by-hop narrative of one deflection walk —
the default next hop, the congestion state that triggered (or didn't
trigger) a deflection, every RIB candidate with its valley-free verdict,
and the greedy pick.

This is a diagnostic layer only: it takes each choice from the same
:meth:`~repro.mifo.deflection.MifoPathBuilder.select_alternative` the
simulators' walk uses, and stops where that walk stops, so what it prints
is what the data plane does.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from .errors import LoopDetectedError, NoRouteError
from .mifo.deflection import MifoPathBuilder
from .mifo.tag import check_bit, tag_for_upstream
from .topology.asgraph import ASGraph

__all__ = ["CandidateVerdict", "HopExplanation", "PathExplanation", "explain_path"]

CongestedFn = Callable[[int, int], bool]
SpareFn = Callable[[int, int], float]


@dataclasses.dataclass(frozen=True)
class CandidateVerdict:
    """One RIB alternative at one hop, and what happened to it."""

    neighbor: int
    relationship: str
    length: int
    tag_check_passed: bool
    congested: bool
    spare_bps: float
    chosen: bool

    def describe(self) -> str:
        """How this candidate fared in the greedy selection."""
        if self.chosen:
            state = "CHOSEN (greedy max spare)"
        elif not self.tag_check_passed:
            state = "forbidden by Tag-Check (Eq. 3)"
        elif self.congested:
            state = "skipped: direct link congested"
        else:
            state = "valid but less spare capacity"
        return (
            f"via AS {self.neighbor} ({self.relationship.lower()}, "
            f"{self.length} hops, spare {self.spare_bps / 1e6:.0f} Mbps) — {state}"
        )


@dataclasses.dataclass(frozen=True)
class HopExplanation:
    """The decision taken at one AS of the walk."""

    asn: int
    upstream: int | None
    tag_bit: bool
    default_next_hop: int
    default_congested: bool
    capable: bool
    deflected_to: int | None
    candidates: tuple[CandidateVerdict, ...]

    def describe(self) -> str:
        """One-line story of the decision taken at this AS."""
        lines = [
            f"AS {self.asn} (tag bit={'1' if self.tag_bit else '0'}"
            + ("" if self.upstream is None else f", entered from AS {self.upstream}")
            + ")"
        ]
        state = "CONGESTED" if self.default_congested else "clear"
        lines.append(f"  default next hop: AS {self.default_next_hop} ({state})")
        if not self.default_congested:
            lines.append("  -> follows the default path")
        elif not self.capable:
            lines.append("  -> not MIFO-capable: stuck with the congested default")
        elif self.deflected_to is None:
            lines.append("  -> no usable alternative: stays on the default")
        else:
            lines.append(f"  -> DEFLECTS to AS {self.deflected_to}")
        for c in self.candidates:
            lines.append(f"     {c.describe()}")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class PathExplanation:
    """The full walk from source to destination, with per-hop rationale."""

    src: int
    dst: int
    path: tuple[int, ...]
    default_path: tuple[int, ...]
    deflections: int
    hops: tuple[HopExplanation, ...]

    def describe(self) -> str:
        """Full narrative of the walk, hop by hop."""
        head = (
            f"MIFO path {self.src} -> {self.dst}: "
            f"{' -> '.join(map(str, self.path))}\n"
            f"default (BGP) path:     {' -> '.join(map(str, self.default_path))}\n"
            f"deflections: {self.deflections}\n"
        )
        return head + "\n".join(h.describe() for h in self.hops)


def explain_path(
    builder: MifoPathBuilder,
    src: int,
    dst: int,
    congested: CongestedFn,
    spare: SpareFn,
) -> PathExplanation:
    """Re-run the deflection walk, recording every decision it makes.

    Raises what :meth:`MifoPathBuilder.build_path` raises, where it
    raises it: :class:`NoRouteError` for an unroutable source and
    :class:`LoopDetectedError` at the first repeated directed link
    (reachable only with Tag-Check off).
    """
    graph: ASGraph = builder.graph
    routing = builder.routing(dst)
    if not routing.has_route(src):
        raise NoRouteError(src, dst)

    hops: list[HopExplanation] = []
    path = [src]
    used_links: set[tuple[int, int]] = set()
    upstream: int | None = None
    u = src
    deflections = 0
    limit = 2 * len(graph) + 2

    while u != dst:
        nh = routing.next_hop(u)
        is_congested = congested(u, nh)
        capable = u in builder.capable
        bit = tag_for_upstream(
            None if upstream is None else graph.relationship(u, upstream)
        )
        deflect_to: int | None = None
        candidates: list[CandidateVerdict] = []
        if is_congested and capable:
            deflect_to = builder.select_alternative(
                routing, u, upstream, nh, congested, spare
            )
            for entry in routing.rib(u):
                v = entry.neighbor
                if v == nh:
                    continue
                candidates.append(
                    CandidateVerdict(
                        neighbor=v,
                        relationship=entry.relationship.name,
                        length=entry.length,
                        tag_check_passed=check_bit(bit, entry.relationship),
                        congested=congested(u, v),
                        spare_bps=spare(u, v),
                        chosen=v == deflect_to,
                    )
                )
        hops.append(
            HopExplanation(
                asn=u,
                upstream=upstream,
                tag_bit=bit,
                default_next_hop=nh,
                default_congested=is_congested,
                capable=capable,
                deflected_to=deflect_to,
                candidates=tuple(candidates),
            )
        )
        nxt = deflect_to if deflect_to is not None else nh
        if deflect_to is not None:
            deflections += 1
        if (u, nxt) in used_links:
            raise LoopDetectedError(path + [nxt])
        used_links.add((u, nxt))
        upstream, u = u, nxt
        path.append(u)
        if len(path) > limit:
            raise LoopDetectedError(path)

    return PathExplanation(
        src=src,
        dst=dst,
        path=tuple(path),
        default_path=routing.best_path(src),
        deflections=deflections,
        hops=tuple(hops),
    )
