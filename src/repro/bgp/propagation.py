"""Per-destination BGP route computation (system S2 in DESIGN.md).

For a destination AS *d*, this module computes — for every AS in the graph —
the Gao–Rexford outcome of BGP convergence under valley-free export and the
paper's selection rule, using the classic three-stage algorithm instead of
simulating message exchange (the slow message-level simulator in
:mod:`repro.bgp.speaker` exists to cross-validate this one on small graphs):

1. **customer routes** — breadth-first search from *d* climbing provider
   edges: an AS has a customer route iff *d* lies in its customer cone;
2. **peer routes** — one peer hop from any AS whose *best* route is a
   customer route (peers only export customer routes);
3. **provider routes** — multi-source Dijkstra descending customer edges,
   seeded with each AS's exported best length (providers export their best
   route, whatever its class, to customers).

The result object also materializes the **multi-path RIB** MIFO exploits:
for any AS *x*, the set of neighbors whose selected best route passes the
export filter toward *x* and does not contain *x* — i.e. the alternatives
present in *x*'s Adj-RIB-In with *zero* control-plane overhead (paper
Section II-B).

Loop-freedom of default forwarding is structural: each hop decreases the
best-route length by exactly one (the selected path of the next hop is the
tail of ours), so following ``next_hop`` pointers always terminates at *d*.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from collections.abc import Iterable
from typing import Protocol

from .. import telemetry as tm
from ..errors import ConfigError, NoRouteError, TopologyError
from ..topology.asgraph import ASGraph
from ..topology.relationships import Relationship, export_allowed, invert

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "check_backend",
    "RibEntry",
    "RoutingView",
    "RoutingSource",
    "DestinationRouting",
    "compute_routing",
    "compute_routings",
    "RoutingCache",
    "CacheStats",
]


@dataclasses.dataclass(frozen=True, slots=True)
class RibEntry:
    """One Adj-RIB-In alternative at some AS toward the destination.

    ``relationship`` is the announcing neighbor's relationship as seen from
    the RIB owner (this is the class that determines the route's local
    preference at the owner).  ``length`` is the full AS-hop distance to the
    destination via this neighbor.
    """

    neighbor: int
    length: int
    relationship: Relationship

    @property
    def selection_key(self) -> tuple[int, int, int]:
        """Sort key implementing Gao-Rexford route preference."""
        return (int(self.relationship), self.length, self.neighbor)


class RoutingView(Protocol):
    """Per-destination query interface shared by both routing backends.

    :class:`DestinationRouting` (dict oracle) and
    :class:`~repro.bgp.array_routing.ArrayDestinationRouting` (CSR) both
    satisfy it structurally; the cache, the verifier and every metric
    depend only on this surface, never on a concrete backend.
    """

    graph: ASGraph
    dest: int

    def has_route(self, x: int) -> bool:
        """Whether AS ``x`` has any route toward the destination."""
        ...  # pragma: no cover

    def best_class(self, x: int) -> Relationship | None:
        """Class of ``x``'s selected route (None at the destination)."""
        ...  # pragma: no cover

    def best_len(self, x: int) -> int:
        """AS-hop length of ``x``'s selected route."""
        ...  # pragma: no cover

    def next_hop(self, x: int) -> int | None:
        """Default next hop of ``x`` (None at the destination)."""
        ...  # pragma: no cover

    def best_path(self, x: int) -> tuple[int, ...]:
        """The selected default AS path from ``x`` to the destination."""
        ...  # pragma: no cover

    def rib(self, x: int, *, loop_filter: bool = True) -> tuple[RibEntry, ...]:
        """``x``'s Adj-RIB-In toward the destination, in selection order."""
        ...  # pragma: no cover

    def alternatives(self, x: int) -> tuple[RibEntry, ...]:
        """The RIB entries of ``x`` other than its selected route."""
        ...  # pragma: no cover

    def reachable_count(self) -> int:
        """How many ASes have a route toward the destination."""
        ...  # pragma: no cover


class RoutingSource(Protocol):
    """Anything that yields a per-destination :class:`RoutingView` on call.

    :class:`RoutingCache` is the canonical implementation; the scenario
    engine's :class:`~repro.scenario.incremental.IncrementalRouting`
    satisfies it too, which is how :class:`~repro.mifo.deflection.MifoPathBuilder`
    stays oblivious to whether its routing state is static or evolving.
    """

    def __call__(self, dest: int) -> RoutingView: ...


class DestinationRouting:
    """Converged BGP state of the whole AS graph for one destination."""

    __slots__ = (
        "graph",
        "dest",
        "_cust_dist",
        "_peer_dist",
        "_export_len",
        "_best_class",
        "_next_hop",
        "_path_cache",
        "_rib_cache",
    )

    def __init__(self, graph: ASGraph, dest: int) -> None:
        if dest not in graph:
            raise TopologyError(f"destination AS {dest} not in graph")
        self.graph = graph
        self.dest = dest
        self._cust_dist: dict[int, int] = {}
        self._peer_dist: dict[int, int] = {}
        self._export_len: dict[int, int] = {}
        self._best_class: dict[int, Relationship | None] = {}
        self._next_hop: dict[int, int | None] = {}
        self._path_cache: dict[int, tuple[int, ...]] = {}
        self._rib_cache: dict[int, tuple[RibEntry, ...]] = {}
        with tm.span("bgp.propagate"):
            self._compute()
        tm.inc("bgp.destinations_converged")
        tm.inc("bgp.routes_propagated", len(self._best_class))

    # ------------------------------------------------------------------
    # the three-stage computation
    # ------------------------------------------------------------------
    def _compute(self) -> None:
        g = self.graph
        dest = self.dest
        cust = self._cust_dist
        peer = self._peer_dist
        export_len = self._export_len

        # Stage 1: customer routes — BFS climbing provider edges from dest.
        cust[dest] = 0
        frontier = deque([dest])
        while frontier:
            u = frontier.popleft()
            du = cust[u] + 1
            for p in g.providers(u):
                if p not in cust:
                    cust[p] = du
                    frontier.append(p)

        # Stage 2: peer routes — one peer hop off the customer cone.
        for x in g.nodes():
            if x == dest:
                continue
            best = None
            for y in g.peers(x):
                dy = cust.get(y)
                if dy is not None and (best is None or dy + 1 < best):
                    best = dy + 1
            if best is not None:
                peer[x] = best

        # Stage 3: provider routes — Dijkstra descending customer edges,
        # seeded with exported best lengths (class priority means an AS
        # with a customer or peer route exports *that*, never a shorter
        # provider route).
        heap: list[tuple[int, int]] = []
        for u, d in cust.items():
            heap.append((d, u))
        for u, d in peer.items():
            if u not in cust:
                heap.append((d, u))
        heapq.heapify(heap)
        has_cp = cust.keys() | peer.keys()
        while heap:
            d, u = heapq.heappop(heap)
            if u in export_len:
                continue
            export_len[u] = d
            nd = d + 1
            for c in g.customers(u):
                if c not in export_len and c not in has_cp:
                    heapq.heappush(heap, (nd, c))

        # Best class and default next hop per node.
        best_class = self._best_class
        next_hop = self._next_hop
        for x in g.nodes():
            if x == dest:
                best_class[x] = None
                next_hop[x] = None
                continue
            if x in cust:
                best_class[x] = Relationship.CUSTOMER
                target = cust[x] - 1
                next_hop[x] = min(
                    c for c in g.customers(x) if cust.get(c, -2) == target
                )
            elif x in peer:
                best_class[x] = Relationship.PEER
                target = peer[x] - 1
                next_hop[x] = min(
                    y for y in g.peers(x) if cust.get(y, -2) == target
                )
            elif x in export_len:
                best_class[x] = Relationship.PROVIDER
                target = export_len[x] - 1
                next_hop[x] = min(
                    p for p in g.providers(x) if export_len.get(p, -2) == target
                )
            # else: unreachable — absent from best_class entirely.

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_route(self, x: int) -> bool:
        """Whether AS ``x`` has any route toward the destination."""
        return x in self._best_class

    def best_class(self, x: int) -> Relationship | None:
        """Class of ``x``'s selected route (None at the destination)."""
        try:
            return self._best_class[x]
        except KeyError:
            raise NoRouteError(x, self.dest) from None

    def best_len(self, x: int) -> int:
        """AS-hop length of ``x``'s selected route."""
        if x not in self._best_class:
            raise NoRouteError(x, self.dest)
        return self._export_len[x]

    def next_hop(self, x: int) -> int | None:
        """Default next hop of ``x`` (None at the destination)."""
        try:
            return self._next_hop[x]
        except KeyError:
            raise NoRouteError(x, self.dest) from None

    def best_path(self, x: int) -> tuple[int, ...]:
        """The selected default AS path from ``x`` to the destination,
        inclusive of both endpoints."""
        cached = self._path_cache.get(x)
        if cached is not None:
            return cached
        if x not in self._best_class:
            raise NoRouteError(x, self.dest)
        hops = [x]
        cur = x
        limit = len(self.graph) + 1
        while cur != self.dest:
            cur = self._next_hop[cur]
            hops.append(cur)
            if len(hops) > limit:  # impossible by construction; be loud
                raise AssertionError(f"default-path loop from AS {x}: {hops[:16]}...")
        path = tuple(hops)
        self._path_cache[x] = path
        return path

    def rib(self, x: int, *, loop_filter: bool = True) -> tuple[RibEntry, ...]:
        """The multi-neighbor Adj-RIB-In of ``x`` toward the destination.

        Entries are sorted by selection preference; entry 0 is always the
        default route (same neighbor as :meth:`next_hop`).  ``loop_filter``
        drops neighbors whose selected path contains ``x`` (the standard
        AS-path import filter); the default next hop can never be dropped
        by it.
        """
        if x == self.dest:
            return ()
        if loop_filter:
            cached = self._rib_cache.get(x)
            if cached is not None:
                return cached
        g = self.graph
        entries: list[RibEntry] = []
        missing = object()
        for nb, rel in g.neighbors(x).items():
            learned = self._best_class.get(nb, missing)
            if learned is missing:
                continue  # neighbor has no route at all
            # nb announces its best route to x iff the export policy allows
            # it toward x (relationship of x as seen from nb).  learned is
            # None when nb is the destination itself (local origination).
            if not export_allowed(learned, invert(rel)):
                continue
            if loop_filter and nb != self.dest and x in self.best_path(nb):
                continue
            entries.append(RibEntry(nb, self._export_len[nb] + 1, rel))
        entries.sort(key=lambda e: e.selection_key)
        result = tuple(entries)
        if loop_filter:
            self._rib_cache[x] = result
        return result

    def alternatives(self, x: int) -> tuple[RibEntry, ...]:
        """RIB entries other than the default route — MIFO's alt candidates."""
        rib = self.rib(x)
        default = self._next_hop.get(x)
        return tuple(e for e in rib if e.neighbor != default)

    def reachable_count(self) -> int:
        """Number of ASes holding a route (connectivity sanity metric)."""
        return len(self._best_class)

    def rebind(self, graph: ASGraph) -> "DestinationRouting":
        """Re-wrap this converged state around a different graph object.

        Used by the scenario engine's incremental re-propagation: after a
        link event proved *inert* for this destination (the changed link
        carried no export in either direction — see
        :class:`repro.scenario.incremental.IncrementalRouting`), the
        converged state on the new graph is identical to this one, so the
        distance/class/next-hop tables and the lazy path/RIB caches are
        shared rather than recomputed.  **Only sound under that inertness
        condition**; rebasing past a relevant change silently serves stale
        routes (which the scenario cross-validation suite would refute).
        """
        clone = object.__new__(DestinationRouting)
        clone.graph = graph
        clone.dest = self.dest
        clone._cust_dist = self._cust_dist
        clone._peer_dist = self._peer_dist
        clone._export_len = self._export_len
        clone._best_class = self._best_class
        clone._next_hop = self._next_hop
        clone._path_cache = self._path_cache
        clone._rib_cache = self._rib_cache
        return clone


def compute_routing(graph: ASGraph, dest: int) -> DestinationRouting:
    """Compute converged BGP state for one destination.

    ``graph`` must be frozen; results are undefined if it mutates afterward.
    """
    if not graph.frozen:
        raise TopologyError("freeze() the graph before computing routing")
    return DestinationRouting(graph, dest)


#: ``array`` ships (every ``bench/`` workload runs it); ``dict`` is the
#: oracle.  Every ``backend=`` default and ``--routing-backend`` read these.
BACKENDS = ("dict", "array")
DEFAULT_BACKEND = "array"


def check_backend(backend: str) -> str:
    """Return ``backend`` if it names one of :data:`BACKENDS`; raise
    :class:`~repro.errors.ConfigError` naming it otherwise."""
    if backend not in BACKENDS:
        raise ConfigError(f"unknown routing backend {backend!r}")
    return backend


def compute_routings(
    graph: ASGraph, dests: Iterable[int], backend: str = DEFAULT_BACKEND
) -> dict[int, RoutingView]:
    """Converge every destination of ``dests`` on ``backend``; returns
    ``{dest: routing}`` in first-seen order (duplicates once).

    The one way anything converges a destination *set*: the dict oracle
    one at a time, the array backend as blocks
    (:func:`~repro.bgp.array_routing.compute_array_routings`).
    Propagation is serial — docs/scaling.md records why.
    """
    if check_backend(backend) == "array":
        from .array_routing import compute_array_routings

        return dict(compute_array_routings(graph, dests))
    return {d: compute_routing(graph, d) for d in dict.fromkeys(dests)}


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of a :class:`RoutingCache`."""

    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """Cache hits as a fraction of all lookups."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RoutingCache:
    """Memoizes per-destination routing with true LRU eviction.

    The flow simulator and the diversity counter both touch the same small
    set of destination ASes many times; computing each destination once is
    the single biggest constant-factor win in the whole pipeline.

    ``backend`` selects the routing implementation: ``"array"`` (the
    default, :data:`DEFAULT_BACKEND`) is the vectorized
    :class:`~repro.bgp.array_routing.ArrayDestinationRouting`; ``"dict"``
    is the original pure-Python :class:`DestinationRouting`, kept as the
    oracle (same query API, same results — the cross-validation suite
    proves it).  :meth:`precompute` bulk-fills the cache in blocks.
    """

    def __init__(
        self,
        graph: ASGraph,
        *,
        max_entries: int | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
        self.graph = graph
        self.max_entries = max_entries
        self.backend = check_backend(backend)
        # dicts preserve insertion order; LRU = re-insert on hit, evict the
        # first (= least recently used) key when full.
        self._cache: dict[int, RoutingView] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _insert(self, dest: int, routing: RoutingView) -> None:
        if self.max_entries is not None and len(self._cache) >= self.max_entries:
            self._cache.pop(next(iter(self._cache)))
            self._evictions += 1
            tm.inc("cache.evictions")
        self._cache[dest] = routing

    def __call__(self, dest: int) -> RoutingView:
        r = self._cache.get(dest)
        if r is not None:
            self._hits += 1
            tm.inc("cache.hits")
            # refresh recency: move to the back of the insertion order.
            del self._cache[dest]
            self._cache[dest] = r
            return r
        self._misses += 1
        tm.inc("cache.misses")
        r = compute_routings(self.graph, (dest,), self.backend)[dest]
        self._insert(dest, r)
        return r

    def precompute(self, dests: Iterable[int]) -> int:
        """Bulk-fill the cache for ``dests`` with one
        :func:`compute_routings` call; returns how many were computed.

        Already-cached destinations are skipped without touching the
        hit/miss counters — precomputation is capacity planning, not
        demand.
        """
        todo = [d for d in dict.fromkeys(dests) if d not in self._cache]
        if not todo:
            return 0
        for dest, routing in compute_routings(self.graph, todo, self.backend).items():
            self._insert(dest, routing)
        return len(todo)

    def cached_destinations(self) -> tuple[int, ...]:
        """Destinations currently held, ascending — the verifier's default
        scope after a run (everything the run could have forwarded along)."""
        return tuple(sorted(self._cache))

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss/eviction counters."""
        return CacheStats(self._hits, self._misses, self._evictions)

    def __contains__(self, dest: int) -> bool:
        return dest in self._cache

    def __len__(self) -> int:
        return len(self._cache)
