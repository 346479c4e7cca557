"""AS-level MIFO path construction for the fluid simulator.

The packet-level engine (:mod:`repro.mifo.engine`) makes one deflection
decision per packet per router.  At the AS level the same logic collapses to
a hop-by-hop walk: at each AS, follow the default BGP next hop unless the AS
is MIFO-capable and its default egress link is congested, in which case
deflect to the RIB alternative with the greatest spare direct-link capacity
— subject to the valley-free Tag-Check, with the tag bit derived from how
the packet entered this AS.

Loop-freedom: every step of this walk satisfies the paper's Eq. 3 — default
steps because any BGP-exported route step is valley-free-compatible, and
deflected steps because Tag-Check enforces Eq. 3 explicitly.  The paper's
Theorem (whose proof assumes cycles of length > 2) rules out repeating
*cycles*; a compliant walk may still visit one AS twice — climbing through
it on the up-leg and descending through it again on the down-leg (e.g.
``a -> b -> c -> b -> d`` with ``b < c``) — but can never reuse a
*directed* inter-AS link, because the walk's phase structure is
``up* peer? down*``: up-steps strictly climb the acyclic provider
hierarchy, down-steps strictly descend it, and a link cannot be both an
up-step and a down-step in the same direction.  :class:`MifoPathBuilder`
therefore asserts (a) no directed link repeats and (b) the walk stays
within ``2·|V|`` hops; either firing means the valley-free invariant is
broken — which the ablation tests demonstrate by disabling Tag-Check.

On an :class:`~repro.bgp.array_routing.ArrayDestinationRouting` view the
same walk runs in dense indices (:func:`default_steps`,
:func:`permitted_alternatives`); the walk over any other view is the
oracle it is held to.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from .. import telemetry as tm
from ..bgp.array_routing import ArrayDestinationRouting
from ..bgp.propagation import RoutingSource, RoutingView
from ..errors import LoopDetectedError, NoRouteError, RoutingError
from ..topology.asgraph import ASGraph
from ..topology.relationships import Relationship
from .tag import check_bit, tag_for_upstream

__all__ = [
    "PathOutcome",
    "MifoPathBuilder",
    "checked_next_hop",
    "default_hops",
    "default_steps",
    "permitted_alternatives",
]

#: ``congested(u, v)`` — is the directed inter-AS link u->v congested?
CongestedFn = Callable[[int, int], bool]
#: ``spare(u, v)`` — spare capacity (bps) of the directed link u->v.
SpareFn = Callable[[int, int], float]

#: Relationship codes, as the array view's rows and CSR hold them.
_CUSTOMER = int(Relationship.CUSTOMER)
_PROVIDER = int(Relationship.PROVIDER)


def checked_next_hop(routing: RoutingView, x: int) -> int:
    """``routing.next_hop(x)`` of an AS ``x`` that is not the destination,
    refused with :class:`RoutingError` unless it is one hop closer to the
    destination (routed, its route one hop shorter than ``x``'s).

    A converged view always passes; an array view rebuilt from a
    :meth:`~repro.bgp.array_routing.ArrayDestinationRouting.from_state`
    payload need not, and a hop that is not closer could step onto a
    stranger or close a loop of default steps.  The views' own
    ``next_hop`` does not refuse it: the static verifier reads such a
    state through them to report what is wrong with it.
    """
    nh = routing.next_hop(x)
    if nh is None:
        raise RoutingError(
            f"inconsistent routing state: AS {x} holds the destination's own "
            f"route toward {routing.dest}"
        )
    if not routing.has_route(nh) or routing.best_len(nh) + 1 != routing.best_len(x):
        raise RoutingError(
            f"inconsistent routing state: AS {x}'s next hop toward "
            f"{routing.dest}, AS {nh}, is not one hop closer"
        )
    return nh


def default_hops(routing: RoutingView) -> Callable[[int], tuple[int, bool]]:
    """The default hop out of any AS but the destination, as a function
    ``hop(x)`` returning ``(checked next hop, tag bit set there)`` — the
    bit is 1 exactly when the route's class is provider.

    On an array view it reads the rows (:func:`default_steps`); on any
    other view it asks :func:`checked_next_hop` and ``best_class``.
    """
    if isinstance(routing, ArrayDestinationRouting):
        step = default_steps(routing)
        index = routing.csr.index

        def array_hop(x: int) -> tuple[int, bool]:
            _, nh, bit = step(x, index[x])
            return nh, bit

        return array_hop

    def hop(x: int) -> tuple[int, bool]:
        return checked_next_hop(routing, x), routing.best_class(x) is Relationship.PROVIDER

    return hop


#: ``step(x, i)`` -> ``(dense next hop, its asn, tag bit set there)``.
DefaultStep = Callable[[int, int], tuple[int, int, bool]]


def default_steps(view: ArrayDestinationRouting) -> DefaultStep:
    """The default step out of any AS on an array view, as a function
    ``step(x, i)`` of the AS (``x``, dense ``i``, not the destination)
    returning the next hop as ``(dense index, asn, tag bit set there)`` —
    the bit is 1 exactly when the route's class is provider, i.e. when
    the next hop is ``x``'s provider.

    Read from the view's ``class``, ``next_hop`` and ``export`` rows
    through bound methods made once per walk.  A row that fails a check —
    a class code outside the kernel's, a next hop outside the index or
    not one hop closer, which a
    :meth:`~ArrayDestinationRouting.from_state` payload can hold — raises
    what :meth:`~ArrayDestinationRouting.best_class` and
    :func:`checked_next_hop` raise for it, so default steps alone can
    never close a loop.
    """
    _, _, export, klass, next_hop = view.state()
    code_of, hop_of, length_of = klass.item, next_hop.item, export.item
    asn_of = view.csr.asns.item
    n = len(next_hop)

    def step(x: int, i: int) -> tuple[int, int, bool]:
        code = code_of(i)
        h = hop_of(i)
        if 0 <= code <= _PROVIDER and 0 <= h < n and length_of(h) + 1 == length_of(i):
            return h, asn_of(h), code == _PROVIDER
        view.best_class(x)  # a class code outside the kernel's
        checked_next_hop(view, x)  # the destination's code, or a bad hop
        raise AssertionError(f"default step out of AS {x} neither taken nor refused")

    return step


def permitted_alternatives(
    view: ArrayDestinationRouting,
    x: int,
    i: int,
    default: int,
    *,
    customers_only: bool,
    congested: CongestedFn | None = None,
) -> list[tuple[int, int, bool]]:
    """The RIB alternatives AS ``x`` (dense ``i``) may deflect to on an
    array view, as ``(asn, dense index, tag bit set there)``.

    Cheapest test first: skip the default next hop (dense ``default``)
    and, with ``customers_only`` (Tag-Check with the bit clear), every
    non-customer; then every ``v`` with ``congested(x, v)``, if given;
    and only then run the loop filter, the one test that walks a path.
    If the view already holds ``x``'s RIB (:meth:`~ArrayDestinationRouting.cached_rib`),
    that is filtered, its loop filter already paid; otherwise ``x``'s CSR
    slice is scanned once (:meth:`~ArrayDestinationRouting.announcers`)
    and no RIB is built.  The moves of :meth:`MifoPathBuilder.build_path`'s
    greedy pick.
    """
    out: list[tuple[int, int, bool]] = []
    rib = view.cached_rib(x)
    if rib is not None:
        index = view.csr.index
        default_asn = view.csr.asns.item(default)
        for entry in rib:
            v = entry.neighbor
            rel = entry.relationship
            if customers_only and rel != _CUSTOMER:
                break  # a RIB lists its customers' routes first
            if v == default_asn or (congested is not None and congested(x, v)):
                continue
            out.append((v, index[v], rel == _PROVIDER))
        return out
    asn_of = view.csr.asns.item
    for j, rel in view.announcers(x, i):
        if j == default or (customers_only and rel != _CUSTOMER):
            continue
        v = asn_of(j)
        if congested is not None and congested(x, v):
            continue
        if not view.passes_through(j, x, i):
            out.append((v, j, rel == _PROVIDER))
    return out


@dataclasses.dataclass(frozen=True, slots=True)
class PathOutcome:
    """Result of routing one flow at the AS level."""

    path: tuple[int, ...]  #: AS-level path, source and destination inclusive
    deflections: int  #: number of hops that deviated from the default
    dropped: bool = False  #: packet-level MIFO would have dropped (no valid alt)

    @property
    def used_alternative(self) -> bool:
        """True when at least one deflection occurred."""
        return self.deflections > 0


class MifoPathBuilder:
    """Builds the path a flow's packets take under MIFO.

    ``capable`` is the set of MIFO-deploying ASes (partial-deployment
    studies vary it); other ASes always use their default next hop.
    ``deflect_uncongested_only``: when True, an alternative whose own
    direct link is congested is never chosen (there is no point moving
    congestion sideways); the flow stays on the default.
    ``event_fields`` is merged into every telemetry event this builder
    records — the scenario engine stamps its epoch number here so trace
    consumers can match each deflection against the routing state that
    justified it (a FIB from a *previous* epoch would refute it).
    """

    def __init__(
        self,
        graph: ASGraph,
        routing: RoutingSource,
        capable: frozenset[int],
        *,
        tag_check_enabled: bool = True,
        deflect_uncongested_only: bool = True,
        alt_selection: str = "greedy",
        event_fields: "dict[str, tm.EventValue] | None" = None,
    ) -> None:
        if alt_selection not in ("greedy", "first", "random"):
            raise ValueError(f"unknown alt_selection {alt_selection!r}")
        self.graph = graph
        self.routing = routing
        self.capable = capable
        self.tag_check_enabled = tag_check_enabled
        self.deflect_uncongested_only = deflect_uncongested_only
        #: "greedy" = paper Section III-C (max spare direct-link capacity);
        #: "first" = highest-preference RIB alternative; "random" =
        #: deterministic pseudo-random pick.  The non-greedy modes exist
        #: for the alternative-selection ablation bench.
        self.alt_selection = alt_selection
        self.event_fields: dict[str, tm.EventValue] = dict(event_fields or {})

    def default_path(self, src: int, dst: int) -> tuple[int, ...]:
        """The plain BGP path (used by the BGP baseline and as fallback)."""
        return self.routing(dst).best_path(src)

    def build_path(
        self,
        src: int,
        dst: int,
        congested: CongestedFn,
        spare: SpareFn,
    ) -> PathOutcome:
        """Walk from ``src`` to ``dst`` under the current congestion state.

        Raises :class:`NoRouteError` if ``src`` has no route at all and
        :class:`LoopDetectedError` if the walk revisits an AS (impossible
        with Tag-Check on; reachable in ablation mode).
        """
        routing = self.routing(dst)
        if not routing.has_route(src):
            raise NoRouteError(src, dst)
        if isinstance(routing, ArrayDestinationRouting):
            return self._build_array_path(routing, src, dst, congested, spare)

        graph = self.graph
        path = [src]
        used_links: set[tuple[int, int]] = set()
        upstream: int | None = None
        u = src
        deflections = 0
        limit = 2 * len(graph) + 2

        with tm.span("mifo.deflect"):
            while u != dst:
                nh = routing.next_hop(u)
                nxt = nh
                if u in self.capable and congested(u, nh):
                    alt, filtered = self._pick_alternative(
                        routing, u, upstream, nh, congested, spare
                    )
                    if alt is not None:
                        nxt = alt
                        deflections += 1
                        t = tm.active()
                        if t is not None:
                            t.inc("mifo.deflections")
                            t.event(
                                "deflection",
                                **{"as": u},
                                dst=dst,
                                upstream=upstream,
                                default_nh=nh,
                                chosen=alt,
                                cause="congested_link",
                                spare_bps=spare(u, alt),
                                **self.event_fields,
                            )
                    elif filtered:
                        t = tm.active()
                        if t is not None:
                            t.inc("mifo.tagcheck_drops")
                            t.event(
                                "tagcheck_drop",
                                **{"as": u},
                                dst=dst,
                                upstream=upstream,
                                default_nh=nh,
                                cause="tag_check",
                                tagcheck_filtered=filtered,
                                **self.event_fields,
                            )
                link = (u, nxt)
                if link in used_links:
                    # A repeated directed link implies a cycle — impossible
                    # with Tag-Check on (see module docstring).
                    raise LoopDetectedError(path + [nxt])
                used_links.add(link)
                upstream, u = u, nxt
                path.append(u)
                if len(path) > limit:  # unreachable with Tag-Check on
                    raise LoopDetectedError(path)
        tm.observe("mifo.path_hops", len(path) - 1)
        return PathOutcome(tuple(path), deflections)

    def _pick_alternative(
        self,
        routing: RoutingView,
        u: int,
        upstream: int | None,
        default_nh: int,
        congested: CongestedFn,
        spare: SpareFn,
    ) -> tuple[int | None, int]:
        """Greedy selection among valley-free-permitted RIB alternatives.

        Returns ``(chosen, tagcheck_filtered)``: the alternative (or None)
        plus how many candidates Tag-Check rejected, so the caller can
        attribute an empty move set to the valley-free guard.
        """
        graph = self.graph
        bit = tag_for_upstream(
            None if upstream is None else graph.relationship(u, upstream)
        )
        candidates: list[int] = []
        tagcheck_filtered = 0
        for entry in routing.rib(u):
            v = entry.neighbor
            if v == default_nh:
                continue
            if self.tag_check_enabled and not check_bit(bit, entry.relationship):
                tagcheck_filtered += 1
                continue
            if self.deflect_uncongested_only and congested(u, v):
                continue
            candidates.append(v)
        if not candidates:
            return None, tagcheck_filtered
        if self.alt_selection == "first":
            return candidates[0], tagcheck_filtered
        if self.alt_selection == "random":
            # Deterministic hash pick so runs stay reproducible.
            pick = candidates[(u * 2654435761 + default_nh) % len(candidates)]
            return pick, tagcheck_filtered
        return max(candidates, key=lambda v: (spare(u, v), -v)), tagcheck_filtered

    def _build_array_path(
        self,
        view: ArrayDestinationRouting,
        src: int,
        dst: int,
        congested: CongestedFn,
        spare: SpareFn,
    ) -> PathOutcome:
        """:meth:`build_path` over an array view's rows, in dense indices.

        The same walk, decisions, errors and telemetry as the dict walk
        above (which stays the oracle); the tag bit rides along from each
        step's relationship instead of being looked up at every pick.
        """
        csr = view.csr
        n = len(csr.asns)
        dest = csr.index[dst]
        capable = self.capable
        t = tm.active()
        path = [src]
        used_links: set[int] = set()
        upstream: int | None = None
        u, i = src, csr.index[src]
        bit = True  # the source originates the packet
        deflections = 0
        limit = 2 * n + 2
        default_step = default_steps(view)

        with tm.span("mifo.deflect"):
            while i != dest:
                h, nh, next_bit = default_step(u, i)
                nxt, j = nh, h
                if u in capable and congested(u, nh):
                    alt = self._array_alternative(
                        view, u, i, h, bit, upstream, congested, spare
                    )
                    if alt is not None:
                        nxt, j, next_bit = alt
                        deflections += 1
                        if t is not None:
                            t.inc("mifo.deflections")
                            t.event(
                                "deflection",
                                **{"as": u},
                                dst=dst,
                                upstream=upstream,
                                default_nh=nh,
                                chosen=nxt,
                                cause="congested_link",
                                spare_bps=spare(u, nxt),
                                **self.event_fields,
                            )
                    elif t is not None and (
                        filtered := self._tagcheck_filtered(view, u, i, h, bit)
                    ):
                        t.inc("mifo.tagcheck_drops")
                        t.event(
                            "tagcheck_drop",
                            **{"as": u},
                            dst=dst,
                            upstream=upstream,
                            default_nh=nh,
                            cause="tag_check",
                            tagcheck_filtered=filtered,
                            **self.event_fields,
                        )
                link = i * n + j
                if link in used_links:
                    # A repeated directed link implies a cycle — impossible
                    # with Tag-Check on (see module docstring).
                    raise LoopDetectedError(path + [nxt])
                used_links.add(link)
                upstream, u, i, bit = u, nxt, j, next_bit
                path.append(u)
                if len(path) > limit:  # unreachable with Tag-Check on
                    raise LoopDetectedError(path)
        tm.observe("mifo.path_hops", len(path) - 1)
        return PathOutcome(tuple(path), deflections)

    def _array_alternative(
        self,
        view: ArrayDestinationRouting,
        u: int,
        i: int,
        default: int,
        bit: bool,
        upstream: int | None,
        congested: CongestedFn,
        spare: SpareFn,
    ) -> tuple[int, int, bool] | None:
        """The pick at congested capable AS ``u`` (dense ``i``) of an array
        walk, as ``(asn, dense index, tag bit set there)``, or None.

        Greedy tests the cheap things first — the default, Tag-Check by
        relationship code, then ``congested`` — and loop-filters only what
        survives them (:func:`permitted_alternatives`).  The ablation-only
        ``first`` / ``random`` picks keep reading :meth:`rib` order.
        """
        if self.alt_selection != "greedy":
            nh = view.csr.asns.item(default)
            alt, _ = self._pick_alternative(view, u, upstream, nh, congested, spare)
            if alt is None:
                return None
            up = self.graph.relationship(u, alt) is Relationship.PROVIDER
            return alt, view.csr.index[alt], up
        candidates = permitted_alternatives(
            view,
            u,
            i,
            default,
            customers_only=self.tag_check_enabled and not bit,
            congested=congested if self.deflect_uncongested_only else None,
        )
        if len(candidates) < 2:
            return candidates[0] if candidates else None
        return max(candidates, key=lambda c: (spare(u, c[0]), -c[0]))

    def _tagcheck_filtered(
        self, view: ArrayDestinationRouting, u: int, i: int, default: int, bit: bool
    ) -> int:
        """How many RIB alternatives of ``u`` Tag-Check rejected — exact,
        and derived only when a ``tagcheck_drop`` event will report it."""
        if not self.tag_check_enabled or bit:
            return 0
        every = permitted_alternatives(view, u, i, default, customers_only=False)
        rel = self.graph.relationship
        return sum(1 for v, _, _ in every if rel(u, v) is not Relationship.CUSTOMER)

    def select_alternative(
        self,
        routing: RoutingView,
        u: int,
        upstream: int | None,
        default_nh: int,
        congested: CongestedFn,
        spare: SpareFn,
    ) -> int | None:
        """The alternative :meth:`build_path` deflects to at congested,
        capable AS ``u`` entered from ``upstream``, or None to stay on the
        default — the paper's Section III-C selection, on either backend."""
        if isinstance(routing, ArrayDestinationRouting):
            index = routing.csr.index
            bit = tag_for_upstream(
                None if upstream is None else self.graph.relationship(u, upstream)
            )
            alt = self._array_alternative(
                routing, u, index[u], index[default_nh], bit, upstream, congested, spare
            )
            return None if alt is None else alt[0]
        return self._pick_alternative(routing, u, upstream, default_nh, congested, spare)[0]
