"""Path-diversity counting — reproduces Fig. 7 ("Available Paths").

Counts, for an AS pair (s, t), how many distinct end-to-end forwarding
paths each scheme can realize:

* **BGP** — exactly one (the default path);
* **MIRO** — the default plus the strict-policy negotiated alternatives
  (:meth:`repro.miro.negotiation.MiroRouting.available_paths`);
* **MIFO** — every walk realizable by hop-by-hop forwarding where each
  MIFO-capable AS may deflect to any Tag-Check-permitted RIB alternative
  and every AS may use its default next hop.

The MIFO count is a memoised depth-first search over states
``(AS, tag_bit)``: a state's count is the sum of its successors' counts.
The move relation is acyclic: moves out of a ``bit=1`` state either climb
the (acyclic) provider hierarchy, keeping ``bit=1``, or drop to
``bit=0``; moves out of a ``bit=0`` state strictly descend customer
edges.  Hence the search terminates and counts exactly — no sampling, no
approximation.  (Walks may legitimately visit one AS twice — once
climbing, once descending — see :mod:`repro.mifo.deflection`; they are
counted as distinct paths, as the data plane would indeed realize them.)
A provider ring, which only a graph frozen with
``require_acyclic_hierarchy=False`` can hold, breaks that argument: the
search then raises :class:`~repro.errors.LoopDetectedError` naming the
ring, on either routing backend.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

from ..bgp.propagation import RoutingCache
from ..errors import LoopDetectedError, NoRouteError
from ..mifo.deflection import default_hops
from ..mifo.tag import check_bit
from ..miro.negotiation import MiroRouting
from ..topology.asgraph import ASGraph
from ..topology.relationships import Relationship

__all__ = ["count_bgp_paths", "count_mifo_paths", "DiversityResult", "diversity_counts"]

_PROVIDER = Relationship.PROVIDER


def count_bgp_paths(routing_cache: RoutingCache, src: int, dst: int) -> int:
    """1 if a route exists, else 0 — BGP's single default path."""
    return 1 if routing_cache(dst).has_route(src) else 0


def count_mifo_paths(
    graph: ASGraph,
    routing_cache: RoutingCache,
    capable: frozenset[int],
    src: int,
    dst: int,
    *,
    max_count: int | None = None,
) -> int:
    """Exact number of distinct MIFO-realizable paths from ``src`` to
    ``dst`` under the given deployment set.

    ``max_count`` optionally clamps the result (counts can reach many
    thousands on well-connected pairs — the paper's Fig. 7 saturates its
    axis at 10^4).

    A memoised depth-first search over ``(AS, tag_bit)`` states.  The tag
    bit set on entering ``v`` from ``u`` is 1 exactly when ``v`` is
    ``u``'s provider, which the routing view already says: the RIB
    entry's relationship for an alternative, the route's class for the
    default hop (:func:`~repro.mifo.deflection.default_hops`, which also
    refuses a corrupted next hop that is not one hop closer).  A state
    met again while its own count is open raises
    :class:`LoopDetectedError` with the ring of ASes that closes it.
    """
    routing = routing_cache(dst)
    if not routing.has_route(src):
        raise NoRouteError(src, dst)

    memo: dict[tuple[int, bool], int] = {}
    open_states: list[tuple[int, bool]] = []
    default_hop = default_hops(routing)

    def visit(u: int, bit: bool) -> int:
        if u == dst:
            return 1
        key = (u, bit)
        cached = memo.get(key)
        if cached is not None:
            if cached < 0:
                # A state met again while its own count is open: a cycle of
                # moves, which only a provider ring can make.
                ring = open_states[open_states.index(key) :] + [key]
                raise LoopDetectedError([v for v, _ in ring])
            return cached
        memo[key] = -1
        open_states.append(key)
        total = 0
        default_nh, default_bit = default_hop(u)
        # Default forwarding is always available.
        total += visit(default_nh, default_bit)
        # Capable ASes may deflect to Tag-Check-permitted alternatives.
        if u in capable:
            for entry in routing.rib(u):
                v = entry.neighbor
                if v == default_nh:
                    continue
                if check_bit(bit, entry.relationship):
                    total += visit(v, entry.relationship is _PROVIDER)
        if max_count is not None and total > max_count:
            total = max_count
        open_states.pop()
        memo[key] = total
        return total

    # The source originates the packet: bit semantics of "own traffic".
    return visit(src, True)


@dataclasses.dataclass(frozen=True)
class DiversityResult:
    """Per-pair path counts for one scheme/deployment combination."""

    scheme: str
    deployment: float
    counts: list[int]

    def fraction_with_at_least(self, k: int) -> float:
        """Fraction of pairs with at least ``k`` paths."""
        if not self.counts:
            return 0.0
        return sum(c >= k for c in self.counts) / len(self.counts)


def diversity_counts(
    graph: ASGraph,
    routing_cache: RoutingCache,
    pairs: Iterable[tuple[int, int]],
    *,
    mifo_capable: frozenset[int],
    miro_routing: MiroRouting,
    max_count: int = 100_000,
) -> tuple[list[int], list[int]]:
    """MIFO and MIRO path counts over the same pair sample.

    Unroutable pairs (possible under adversarial graphs) are skipped in
    both series to keep them comparable.
    """
    mifo_counts: list[int] = []
    miro_counts: list[int] = []
    for s, t in pairs:
        if not routing_cache(t).has_route(s):
            continue
        mifo_counts.append(
            count_mifo_paths(
                graph, routing_cache, mifo_capable, s, t, max_count=max_count
            )
        )
        miro_counts.append(len(miro_routing.available_paths(s, t)))
    return mifo_counts, miro_counts
