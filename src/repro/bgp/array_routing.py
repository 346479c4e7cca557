"""Array-backed per-destination routing (the compact twin of
:mod:`repro.bgp.propagation`).

Same three-stage Gao–Rexford computation, same query API, different
substrate: instead of per-node dicts this backend runs every stage as
vectorized numpy passes over the frozen graph's CSR arrays
(:meth:`repro.topology.asgraph.ASGraph.csr`):

1. **customer routes** — level-synchronous BFS climbing provider edges,
   one gather/scatter per BFS level;
2. **peer routes** — a single ``np.minimum.at`` scatter over all peering
   edges;
3. **provider routes** — the unit-weight "Dijkstra" degenerates into a
   level-by-level relaxation over customer edges seeded with exported
   best lengths.

Next hops are recovered with three more scatter-min passes (dense indices
are assigned in ascending AS-number order, so an index minimum *is* the
AS-number minimum the dict backend's tie-break takes).

The dict-based :class:`~repro.bgp.propagation.DestinationRouting` stays as
the cross-validation oracle — ``tests/bgp/test_array_routing.py`` asserts
both backends produce identical ``best_path``/``rib``/``alternatives``
output — while this class is what the parallel engine ships across worker
processes: :meth:`state`/:meth:`from_state` serialize just five small
int32 arrays, never the graph.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry as tm
from ..errors import NoRouteError, RoutingError, TopologyError
from ..topology.asgraph import ASGraph, CsrAdjacency
from ..topology.relationships import Relationship, export_allowed, invert
from .propagation import RibEntry

__all__ = [
    "ArrayDestinationRouting",
    "compute_array_routing",
    "converge_csr",
    "state_reachable_count",
]

#: best_class codes; 0/1/2 match Relationship values, the rest are local.
_UNREACHABLE = np.int8(-1)
_DEST = np.int8(3)

#: next-hop sentinel for "no next hop" (destination / unreachable).
_NO_HOP = np.int32(-1)


def _expand_rows(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenated CSR rows of ``frontier`` without a Python-level loop."""
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return indices[:0]
    # Classic CSR multi-row gather: repeat each row's (start - preceding
    # output offset), then add a flat arange to enumerate within rows.
    offsets = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(total)
    return indices[offsets]


def converge_csr(csr: CsrAdjacency, dest_idx: int) -> tuple[np.ndarray, ...]:
    """The three-stage Gao–Rexford computation over bare CSR arrays.

    Returns the five per-node result arrays ``(cust, peer, export, class,
    next_hop)`` — the exact payload :meth:`ArrayDestinationRouting.state`
    ships between processes.  Needs only a :class:`CsrAdjacency` (which may
    be a read-only shared-memory attachment, see :mod:`repro.bgp.shm`) and
    a **dense** destination index, so pool workers can converge
    destinations without ever holding an :class:`ASGraph`.
    """
    n = csr.n_nodes
    inf = np.int32(n + 2)
    d = dest_idx

    # Stage 1: customer routes — level-synchronous BFS up provider edges.
    cust = np.full(n, inf, dtype=np.int32)
    cust[d] = 0
    frontier = np.array([d], dtype=np.int32)
    dist = np.int32(0)
    while frontier.size:
        dist += 1
        nbrs = _expand_rows(csr.prov_indptr, csr.prov_indices, frontier)
        fresh = np.unique(nbrs[cust[nbrs] == inf])
        cust[fresh] = dist
        frontier = fresh

    # Stage 2: peer routes — one scatter-min over every peering edge.
    peer = np.full(n, inf, dtype=np.int32)
    if csr.peer_indices.size:
        np.minimum.at(peer, csr.peer_rows, cust[csr.peer_indices] + 1)
    peer[peer > inf] = inf  # inf+1 candidates back to inf
    peer[d] = inf  # the destination never takes a peer route

    # Stage 3: provider routes — unit-weight Dijkstra == level-by-level
    # relaxation down customer edges, seeded with exported best lengths
    # (class priority: an AS with a customer/peer route exports that).
    export = np.where(cust < inf, cust, peer).astype(np.int32)
    has_cp = export < inf
    prov_class = np.zeros(n, dtype=bool)
    max_level = int(export[has_cp].max(initial=0))
    level = 0
    while level <= max_level:
        frontier = np.nonzero(export == level)[0].astype(np.int32)
        if frontier.size:
            custs = _expand_rows(csr.cust_indptr, csr.cust_indices, frontier)
            fresh = np.unique(custs[export[custs] == inf])
            if fresh.size:
                export[fresh] = level + 1
                prov_class[fresh] = True
                max_level = max(max_level, level + 1)
        level += 1

    # Best class per node.
    cls = np.full(n, _UNREACHABLE, dtype=np.int8)
    cls[prov_class] = int(Relationship.PROVIDER)
    cls[peer < inf] = int(Relationship.PEER)
    cls[cust < inf] = int(Relationship.CUSTOMER)
    cls[d] = _DEST

    # Default next hops: scatter-min of the qualifying neighbor per
    # class (index order == AS-number order, so min index == min ASN).
    nh = np.full(n, np.int32(n), dtype=np.int32)
    if csr.cust_indices.size:
        rows, cols = csr.cust_rows, csr.cust_indices
        mask = (cls[rows] == int(Relationship.CUSTOMER)) & (
            cust[cols] == cust[rows] - 1
        )
        np.minimum.at(nh, rows[mask], cols[mask])
    if csr.peer_indices.size:
        rows, cols = csr.peer_rows, csr.peer_indices
        mask = (cls[rows] == int(Relationship.PEER)) & (
            cust[cols] == peer[rows] - 1
        )
        np.minimum.at(nh, rows[mask], cols[mask])
    if csr.prov_indices.size:
        rows, cols = csr.prov_rows, csr.prov_indices
        mask = (cls[rows] == int(Relationship.PROVIDER)) & (
            export[cols] == export[rows] - 1
        )
        np.minimum.at(nh, rows[mask], cols[mask])
    nh[nh == n] = _NO_HOP
    nh[d] = _NO_HOP

    return (cust, peer, export, cls, nh)


def state_reachable_count(state: tuple[np.ndarray, ...]) -> int:
    """Reachable-AS count of a raw state tuple (telemetry accounting for
    workers that converge without constructing the result object)."""
    return int((state[3] != _UNREACHABLE).sum())


class ArrayDestinationRouting:
    """Converged BGP state for one destination, stored as dense arrays.

    Query-compatible with :class:`repro.bgp.propagation.DestinationRouting`.
    """

    __slots__ = (
        "graph",
        "csr",
        "dest",
        "_dest_idx",
        "_cust",
        "_peer",
        "_export",
        "_class",
        "_nh",
        "_inf",
        "_path_cache",
        "_rib_cache",
    )

    def __init__(
        self,
        graph: ASGraph,
        dest: int,
        *,
        _state: tuple[np.ndarray, ...] | None = None,
    ) -> None:
        if dest not in graph:
            raise TopologyError(f"destination AS {dest} not in graph")
        self.graph = graph
        self.csr = graph.csr()
        self.dest = dest
        self._dest_idx = self.csr.index[dest]
        self._inf = np.int32(self.csr.n_nodes + 2)
        self._path_cache: dict[int, tuple[int, ...]] = {}
        self._rib_cache: dict[int, tuple[RibEntry, ...]] = {}
        if _state is not None:
            # Re-wrapping a worker's shipped state is not a convergence;
            # the worker already counted it (snapshot protocol).
            self._cust, self._peer, self._export, self._class, self._nh = _state
        else:
            with tm.span("bgp.propagate"):
                self._compute()
            tm.inc("bgp.destinations_converged")
            tm.inc("bgp.routes_propagated", self.reachable_count())

    # ------------------------------------------------------------------
    # the three-stage computation, vectorized
    # ------------------------------------------------------------------
    def _compute(self) -> None:
        state = converge_csr(self.csr, int(self._dest_idx))
        self._cust, self._peer, self._export, self._class, self._nh = state

    # ------------------------------------------------------------------
    # worker-process serialization
    # ------------------------------------------------------------------
    def state(self) -> tuple[np.ndarray, ...]:
        """The five result arrays — everything a worker must ship back."""
        return (self._cust, self._peer, self._export, self._class, self._nh)

    @classmethod
    def from_state(
        cls, graph: ASGraph, dest: int, state: tuple[np.ndarray, ...]
    ) -> "ArrayDestinationRouting":
        """Rebuild a result object around a parent-process graph."""
        return cls(graph, dest, _state=state)

    def rebind(self, graph: ASGraph) -> "ArrayDestinationRouting":
        """Re-wrap this converged state around a different graph object.

        The scenario-engine counterpart of the dict backend's
        :meth:`~repro.bgp.propagation.DestinationRouting.rebind`: after a
        link event proved inert for this destination, the five result
        arrays (and the lazy path/RIB caches) are carried to the new
        epoch's graph unchanged.  Requires the new graph to have the same
        node set (scenario derivatives guarantee it — see
        :mod:`repro.topology.dynamics`), so the dense index mapping is
        identical.  Only sound when the topology delta is inert for this
        destination.
        """
        clone = ArrayDestinationRouting(graph, self.dest, _state=self.state())
        clone._path_cache = self._path_cache
        clone._rib_cache = self._rib_cache
        return clone

    # ------------------------------------------------------------------
    # queries — mirror DestinationRouting exactly
    # ------------------------------------------------------------------
    def _idx(self, x: int) -> int:
        try:
            return self.csr.index[x]
        except KeyError:
            raise TopologyError(f"unknown AS {x}") from None

    def has_route(self, x: int) -> bool:
        """Whether AS ``x`` has any route toward the destination."""
        return self._class[self._idx(x)] != _UNREACHABLE

    def best_class(self, x: int) -> Relationship | None:
        """Class of ``x``'s selected route (None at the destination)."""
        code = self._class[self._idx(x)]
        if code == _UNREACHABLE:
            raise NoRouteError(x, self.dest)
        if code == _DEST:
            return None
        return Relationship(int(code))

    def best_len(self, x: int) -> int:
        """AS-hop length of ``x``'s selected route."""
        i = self._idx(x)
        if self._class[i] == _UNREACHABLE:
            raise NoRouteError(x, self.dest)
        return int(self._export[i])

    def next_hop(self, x: int) -> int | None:
        """Default next hop of ``x`` (None at the destination)."""
        i = self._idx(x)
        code = self._class[i]
        if code == _UNREACHABLE:
            raise NoRouteError(x, self.dest)
        if code == _DEST:
            return None
        hop = int(self._nh[i])
        if hop < 0:
            # A reachable class with the no-hop sentinel means the result
            # arrays disagree (possible only via a corrupted from_state()
            # payload).  Without this guard the -1 would silently index
            # the *last* ASN — a wrong answer instead of an error.
            raise RoutingError(
                f"inconsistent routing state: AS {x} is reachable toward "
                f"{self.dest} but has no next hop"
            )
        return int(self.csr.asns[hop])

    def best_path(self, x: int) -> tuple[int, ...]:
        """The selected default AS path from ``x`` to the destination,
        inclusive of both endpoints."""
        cached = self._path_cache.get(x)
        if cached is not None:
            return cached
        i = self._idx(x)
        if self._class[i] == _UNREACHABLE:
            raise NoRouteError(x, self.dest)
        asns = self.csr.asns
        nh = self._nh
        hops = [x]
        cur = i
        limit = self.csr.n_nodes + 1
        while cur != self._dest_idx:
            cur = int(nh[cur])
            if cur < 0:  # same corrupted-state guard as next_hop()
                raise RoutingError(
                    f"inconsistent routing state: default path from AS {x} "
                    f"toward {self.dest} dead-ends at AS {hops[-1]}"
                )
            hops.append(int(asns[cur]))
            if len(hops) > limit:  # impossible by construction; be loud
                raise AssertionError(f"default-path loop from AS {x}: {hops[:16]}...")
        path = tuple(hops)
        self._path_cache[x] = path
        return path

    def rib(self, x: int, *, loop_filter: bool = True) -> tuple[RibEntry, ...]:
        """The multi-neighbor Adj-RIB-In of ``x`` toward the destination.

        Same semantics (and same :class:`~repro.bgp.propagation.RibEntry`
        entries) as the dict backend.
        """
        if x == self.dest:
            return ()
        if loop_filter:
            cached = self._rib_cache.get(x)
            if cached is not None:
                return cached
        i = self._idx(x)
        asns = self.csr.asns
        cls = self._class
        export = self._export
        entries: list[RibEntry] = []
        nbr_idx, nbr_rel = self.csr.neighbors_of(i)
        for j, rel_code in zip(nbr_idx.tolist(), nbr_rel.tolist()):
            code = cls[j]
            if code == _UNREACHABLE:
                continue  # neighbor has no route at all
            rel = Relationship(rel_code)
            learned = None if code == _DEST else Relationship(int(code))
            if not export_allowed(learned, invert(rel)):
                continue
            nb = int(asns[j])
            if loop_filter and nb != self.dest and x in self.best_path(nb):
                continue
            entries.append(RibEntry(nb, int(export[j]) + 1, rel))
        entries.sort(key=lambda e: e.selection_key)
        result = tuple(entries)
        if loop_filter:
            self._rib_cache[x] = result
        return result

    def alternatives(self, x: int) -> tuple[RibEntry, ...]:
        """RIB entries other than the default route — MIFO's alt candidates."""
        rib = self.rib(x)
        i = self._idx(x)
        if self._nh[i] == _NO_HOP:
            return rib
        default = int(self.csr.asns[self._nh[i]])
        return tuple(e for e in rib if e.neighbor != default)

    def reachable_count(self) -> int:
        """Number of ASes holding a route (connectivity sanity metric)."""
        return int((self._class != _UNREACHABLE).sum())


def compute_array_routing(graph: ASGraph, dest: int) -> ArrayDestinationRouting:
    """Compute converged BGP state for one destination on the array backend.

    ``graph`` must be frozen; results are undefined if it mutates afterward.
    """
    if not graph.frozen:
        raise TopologyError("freeze() the graph before computing routing")
    return ArrayDestinationRouting(graph, dest)
