"""Dirty-set BGP re-propagation for single-link topology events.

Re-running every destination's three-stage convergence after each timeline
event is what makes naive dynamic studies quadratic.  This module keeps a
cache of converged per-destination views and, on a link change, recomputes
only the destinations the change can actually affect.

**The dirty test.**  For destination *d* and a changed link ``(u, v)``,
the converged state can differ only if, under the *old* converged state,
at least one endpoint would announce its best route across the link:

    ``has_route(v) and export_allowed(best_class(v), rel(u as seen from v))``

or symmetrically for ``u`` announcing toward ``v``.  If neither direction
carries an export, the link is *inert* for *d*: tracing the three stages
of :class:`~repro.bgp.propagation.DestinationRouting` shows the edge
contributes to stage 1 (customer BFS) only when the lower endpoint has a
customer route (which it would export to everyone), to stage 2 (peer hop)
only when the peer endpoint has a customer route, and to stage 3
(provider Dijkstra) only when the provider endpoint has *any* route
(which it would export to its customer) — each case implies the export
test fires.  Removal of an inert link therefore leaves the fixpoint
untouched; for link *addition* the same test runs against the old views
plus the new link's relationship (no initial announcement across the new
edge means no new routes anywhere, by the same stage-by-stage argument).

Clean destinations are *rebased* — their converged state is re-wrapped
around the new graph object (:meth:`DestinationRouting.rebind`) with all
tables and lazy caches shared.  The test is a sound over-approximation:
dirty destinations may turn out unchanged after recomputation, but a
clean destination is provably byte-identical — which
``tests/scenario/test_crossvalidation.py`` re-proves empirically by
diffing against full recomputation after every event of every built-in
scenario.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from .. import telemetry as tm
from ..bgp.propagation import DEFAULT_BACKEND, RoutingView, check_backend, compute_routings
from ..errors import ConfigError, TopologyError, VerificationError
from ..topology.asgraph import ASGraph
from ..topology.relationships import Relationship, export_allowed

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..bgp.propagation import RibEntry

__all__ = ["IncrementalRouting"]

#: per-node forwarding fingerprint: (has_route, best class, export length,
#: next hop, full RIB) — total state a view can serve for that node.
_NodePrint = tuple[
    bool, "Relationship | None", int | None, "int | None", "tuple[RibEntry, ...]"
]


class IncrementalRouting:
    """A routing source whose cached views follow topology changes.

    Satisfies :class:`~repro.bgp.propagation.RoutingSource` (call it with
    a destination, get a :class:`~repro.bgp.propagation.RoutingView`), so
    the deflection builder and the verifier consume it exactly like a
    :class:`~repro.bgp.propagation.RoutingCache`.

    ``recompute`` selects the update policy on :meth:`advance`:
    ``"dirty"`` (the point of this class) recomputes only dirty
    destinations and rebases the rest; ``"all"`` recomputes every cached
    destination from scratch — the full-recomputation baseline the
    incremental mode is cross-validated (and benchmarked) against.  Both
    policies *report* the same dirty set, so engine-level decisions keyed
    on it are mode-independent.
    """

    #: Checkpoint derivability: restore builds a fresh instance over the
    #: replayed topology and converges every captured destination.
    DERIVABLE: ClassVar[dict[str, str]] = {
        "graph": "advance() rebinds it; restore rebuilds the topology",
        "recompute": "policy recomputed from captured config mode",
        "_views": (
            "the destination set and every view's tables round-trip; the "
            "insertion order does not, and it only orders the destination "
            "list advance() hands compute_routings, whose per-destination "
            "result does not depend on that order (tests/bgp/"
            "test_array_routing.py::TestComputeRoutingsOrder)"
        ),
    }

    def __init__(
        self,
        graph: ASGraph,
        *,
        backend: str = DEFAULT_BACKEND,
        recompute: str = "dirty",
    ) -> None:
        if recompute not in ("dirty", "all"):
            raise ConfigError(
                f"recompute policy {recompute!r} not in ('dirty', 'all')"
            )
        self.graph = graph
        self.backend = check_backend(backend)
        self.recompute = recompute
        self._views: dict[int, RoutingView] = {}
        #: cumulative advance() bookkeeping, surfaced in run provenance.
        self.dests_recomputed = 0
        self.dests_rebased = 0

    # ------------------------------------------------------------------
    # RoutingSource surface
    # ------------------------------------------------------------------
    def __call__(self, dest: int) -> RoutingView:
        """The (possibly cached) converged view for ``dest`` on the
        current graph; first use converges it."""
        view = self._views.get(dest)
        if view is None:
            view = compute_routings(self.graph, (dest,), self.backend)[dest]
            self._views[dest] = view
        return view

    def cached_destinations(self) -> tuple[int, ...]:
        """Destinations currently converged, ascending (verifier scope)."""
        return tuple(sorted(self._views))

    def __contains__(self, dest: int) -> bool:
        return dest in self._views

    def __len__(self) -> int:
        return len(self._views)

    # ------------------------------------------------------------------
    # incremental update
    # ------------------------------------------------------------------
    @staticmethod
    def _would_export(view: RoutingView, x: int, rel_of_peer: Relationship) -> bool:
        """Would ``x`` announce its best route across the changed link,
        given the receiver's relationship as seen from ``x``?"""
        if not view.has_route(x):
            return False
        # best_class is None at the destination itself: local origination,
        # announced to every neighbor.
        return export_allowed(view.best_class(x), rel_of_peer)

    def dirty_destinations(self, u: int, v: int) -> tuple[int, ...]:
        """Cached destinations whose state may change with link ``(u, v)``.

        The link's relationship is read from whichever graph contains it:
        the current one (the link is about to be removed) or, for an
        addition, the caller passes the post-change graph to
        :meth:`advance`, which resolves it there before calling this via
        the resolved relationship — see :meth:`_dirty_for_rel`.
        """
        rel_v_from_u = self.graph.relationship(u, v)
        return self._dirty_for_rel(u, v, rel_v_from_u)

    def _dirty_for_rel(
        self, u: int, v: int, rel_v_from_u: Relationship
    ) -> tuple[int, ...]:
        from ..topology.relationships import invert

        rel_u_from_v = invert(rel_v_from_u)
        dirty = []
        for d, view in self._views.items():
            if self._would_export(view, v, rel_u_from_v) or self._would_export(
                view, u, rel_v_from_u
            ):
                dirty.append(d)
        return tuple(sorted(dirty))

    def advance(self, new_graph: ASGraph, u: int, v: int) -> tuple[int, ...]:
        """Move every cached view onto ``new_graph``, which differs from
        the current graph by exactly the link ``(u, v)``.

        Returns the (ascending) dirty destination set.  Under the
        ``"dirty"`` policy only those are re-converged; the rest are
        rebased.  Under ``"all"`` everything is re-converged, but the
        same dirty set is still computed and returned.
        """
        was_adjacent = self.graph.are_adjacent(u, v)
        if was_adjacent == new_graph.are_adjacent(u, v):
            raise TopologyError(
                f"advance() expects the graphs to differ by link ({u}, {v})"
            )
        # Evaluate the export test with the link's relationship, taken
        # from whichever graph actually contains the link.
        rel_graph = self.graph if was_adjacent else new_graph
        dirty = self._dirty_for_rel(u, v, rel_graph.relationship(u, v))

        targets = set(self._views) if self.recompute == "all" else set(dirty)
        old_views = self._views
        self.graph = new_graph
        with tm.span("scenario.repropagate"):
            # The whole dirty set converges as one destination list (the
            # array backend cuts it into kernel blocks).
            fresh = compute_routings(
                new_graph, [d for d in old_views if d in targets], self.backend
            )
            self._views = {
                d: fresh[d] if d in targets else view.rebind(new_graph)
                for d, view in old_views.items()
            }
        n_recomputed = len(targets)
        n_rebased = len(old_views) - n_recomputed
        self.dests_recomputed += n_recomputed
        self.dests_rebased += n_rebased
        tm.inc("scenario.dirty_dests", len(dirty))
        tm.inc("scenario.dests_recomputed", n_recomputed)
        tm.inc("scenario.dests_rebased", n_rebased)
        return dirty

    # ------------------------------------------------------------------
    # cross-validation
    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint(view: RoutingView, nodes: list[int]) -> list[_NodePrint]:
        prints: list[_NodePrint] = []
        for x in nodes:
            if not view.has_route(x):
                prints.append((False, None, None, None, ()))
                continue
            prints.append(
                (
                    True,
                    view.best_class(x),
                    view.best_len(x),
                    view.next_hop(x),
                    view.rib(x),
                )
            )
        return prints

    def crosscheck(self) -> None:
        """Re-converge every cached destination from scratch and demand
        the live view serve identical state for every node.

        This is the incremental engine's own refutation oracle: a rebased
        view gone stale (an unsound dirty test) cannot survive it.  Cost
        is a full recomputation — meant for tests and the CI scenario
        job, not for production timelines.
        """
        nodes = sorted(self.graph.nodes())
        recomputed = compute_routings(
            self.graph, self.cached_destinations(), self.backend
        )
        for d, fresh in recomputed.items():
            live_fp = self._fingerprint(self._views[d], nodes)
            fresh_fp = self._fingerprint(fresh, nodes)
            if live_fp == fresh_fp:
                continue
            for x, got, want in zip(nodes, live_fp, fresh_fp):
                if got != want:
                    raise VerificationError(
                        f"incremental routing diverged from full recompute: "
                        f"dest {d}, node {x}: cached={got!r} fresh={want!r}"
                    )
