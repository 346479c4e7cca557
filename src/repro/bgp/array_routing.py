"""Array-backed per-destination routing (the compact twin of
:mod:`repro.bgp.propagation`).

Same Gao–Rexford fixpoint, same query API, different substrate — and a
different schedule.  The dict oracle converges one destination with three
frontier searches; this backend converges a **block** of destinations in
one pass of numpy calls over the frozen graph's CSR arrays
(:meth:`repro.topology.asgraph.ASGraph.csr`), so the per-call overhead
that dominates a single destination is shared by the whole block.
:func:`converge_block` is the only array implementation: a single
destination is a block of one.

Every destination's state is a row of five ``(B, n)`` arrays, addressed
through the flat index ``b * n + node``.  One block is settled in two
steps:

1. **Push customer and peer routes from the provider cone.**  Only the
   ASes above a destination (its providers, their providers, ...) hold
   customer routes, and only their peers hold peer routes — a few hundred
   of 44,340 ASes.  A level-synchronous climb over provider edges, all
   destinations of the block at once, assigns customer lengths; one
   expansion of the cone's peering rows assigns peer lengths.  Next hops
   ride along: each AS reached takes the minimum dense index among its
   announcers (dense indices ascend with AS numbers, so that is the
   lowest-ASN tie-break) — a scatter-min, but over an edge list the size
   of the cone, not of the graph.
2. **Pull provider routes down the hierarchy.**  Everything else can only
   hold a provider route, one hop longer than the best route any of its
   providers exports.  :class:`~repro.topology.asgraph.PullSchedule` lays
   the nodes out by longest provider chain, so one ascending sweep over
   its levels — gather each provider column, ``minimum`` them, remember
   which column won — settles all ``n`` nodes with elementwise calls
   only: no frontier, no sort, no scatter.  Routes from step 1 outrank
   provider routes, so they are re-asserted after each level instead of
   being tested for.

The sweep works on a scratch table in the schedule's slot order (each
level a contiguous column range) and un-permutes once at the end.  The
layout is destination-major because the queries are: a view reads one
destination's row, never one node's column.

The dict-based :class:`~repro.bgp.propagation.DestinationRouting` stays as
the cross-validation oracle — ``tests/bgp/test_array_routing.py`` asserts
both backends produce identical ``best_path``/``rib``/``alternatives``
output at every block size.  An :class:`ArrayDestinationRouting` is one
row of the five arrays (:meth:`~ArrayDestinationRouting.state`) wrapped
around the graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .. import telemetry as tm
from ..errors import NoRouteError, RoutingError, TopologyError
from ..topology.asgraph import ASGraph, CsrAdjacency, expand_rows
from ..topology.relationships import Relationship, export_allowed, invert
from .propagation import RibEntry

__all__ = [
    "MAX_BLOCK_DESTS",
    "ArrayDestinationRouting",
    "block_dests",
    "compute_array_routing",
    "compute_array_routings",
    "converge_block",
]

#: best_class codes; 0/1/2 match Relationship values, the rest are local.
_UNREACHABLE = np.int8(-1)
_PROVIDER = np.int8(Relationship.PROVIDER)
_DEST = np.int8(3)

#: next-hop sentinel for "no next hop" (destination / unreachable).
_NO_HOP = np.int32(-1)

#: dtypes of the five state arrays ``(cust, peer, export, class, next_hop)``.
_STATE_DTYPES = (np.int32, np.int32, np.int32, np.int8, np.int32)

#: Relationship by code: RIB entries are built from ``tolist()`` values,
#: and their ``relationship`` must be the enum member itself.
_RELS = (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)

#: Floor of a neighbour whose class code the kernel never writes: below
#: every relationship code, so no reader can pass it over silently.
_CORRUPT = -1
#: Floor of an unreachable neighbour: above every relationship code.
_SILENT = len(_RELS)


def _announce_floor() -> np.ndarray:
    """Whether a neighbour's route reaches the RIB owner, as a floor.

    Indexed by the neighbour's class code (``take`` wraps a negative
    ``int8`` code, so unreachable ``-1`` is entry 255 and every code has an
    entry of its own).  The route reaches the owner exactly when the
    neighbour's relationship code, as seen from the owner, is at least
    the floor.  The Gao–Rexford export rule, :func:`export_allowed`,
    decides: a customer route, or the destination's own prefix, goes to
    everyone (floor 0); any other route only to a customer — an owner
    whose *provider* the neighbour is (floor 2).  That every code's
    audience is such an up-set is checked here, once.
    """
    floor = np.full(256, _CORRUPT, dtype=np.int8)
    floor[_UNREACHABLE] = _SILENT  # entry -1 is entry 255
    # codes 0..2 are routes learned from that class, 3 (_DEST) the origin
    for code, learned in enumerate((*_RELS, None)):
        heard = [export_allowed(learned, invert(rel)) for rel in _RELS]
        low = heard.index(True)
        assert all(heard[low:]), "an export audience is not an up-set"
        floor[code] = low
    floor.flags.writeable = False
    return floor


_ANNOUNCE_FLOOR = _announce_floor()

#: Node-rows (destinations x ASes) one kernel pass may hold.  A pass keeps
#: ~25 bytes per node-row live (the five result rows, the scratch table
#: and its next hops), so this is a ~4.5 MB working set: four destinations
#: at the paper's 44,340 ASes, which is what still fits a 4 MB L2 there.
_BLOCK_CELLS = 180_000

#: Widest block, however small the graph: past this the per-call overhead
#: a block exists to share is already negligible.
MAX_BLOCK_DESTS = 32

#: ``bgp.block_dests`` buckets: one per possible block width.
_BLOCK_BOUNDS = tuple(float(w) for w in range(1, MAX_BLOCK_DESTS + 1))


def block_dests(n_nodes: int) -> int:
    """Destinations the kernel settles in one pass on an ``n_nodes`` graph.

    Derived, not tunable: callers hand over any number of destinations
    and the kernel cuts them into consecutive runs of this width, so the
    cut — and with it every telemetry count — depends on the graph and the
    destination list alone, never on the caller.
    """
    return max(1, min(MAX_BLOCK_DESTS, _BLOCK_CELLS // max(n_nodes, 1)))


def _pull_level(
    table: np.ndarray,
    hops: np.ndarray,
    level: tuple[int, int, tuple[tuple[np.ndarray, np.ndarray], ...]],
    inf: int,
) -> None:
    """Settle one schedule level: every node takes its best provider's
    exported length plus one, and that provider as next hop."""
    lo, hi, columns = level
    slots, provs = columns[0]
    best = np.take(table, slots, axis=1)
    hop = np.empty(best.shape, dtype=np.int32)
    hop[:] = provs
    for slots, provs in columns[1:]:
        # Only the level's first ``len(slots)`` nodes have this provider.
        head, head_hop = best[:, : slots.size], hop[:, : slots.size]
        cand = np.take(table, slots, axis=1)
        # Strictly shorter only: columns ascend by AS number, so on a tie
        # the earlier — lower-ASN — provider keeps the next hop.
        closer = cand < head
        np.minimum(head, cand, out=head)
        # head_hop = where(closer, provs, head_hop), without the branch.
        step = provs - head_hop
        step *= closer
        head_hop += step
    best += 1
    np.minimum(best, inf, out=best)  # unreachable stays exactly inf
    table[:, lo:hi] = best
    hops[:, lo:hi] = hop


def _converge_rows(
    csr: CsrAdjacency,
    dests: np.ndarray,
    state: tuple[np.ndarray, ...],
    table: np.ndarray,
    hops: np.ndarray,
) -> None:
    """Fill ``state`` — ``w`` rows of the five result arrays — for the dense
    destinations ``dests``.  ``table``/``hops`` are ``(w, n)`` scratch."""
    cust, peer, export, cls, nh = state
    schedule = csr.pull_schedule
    slot_of = schedule.slot_of
    w, n = cust.shape
    inf = n + 2
    cust_f, peer_f, cls_f, nh_f, table_f = (
        a.reshape(-1) for a in (cust, peer, cls, nh, table)
    )
    cust.fill(inf)
    peer.fill(inf)
    table.fill(inf)

    # -- push: customer routes climb the provider cone --------------------
    # ``nh`` is free until the final gather, so it doubles as the table in
    # which each newly reached AS collects its lowest-ASN announcer (dense
    # indices ascend with AS numbers, so a minimum over them is BGP's
    # tie-break).  Every ``ufunc.at`` below runs over a cone-sized array.
    origin = np.arange(w, dtype=np.int64) * n + dests
    cust_f[origin] = 0
    frontier = origin
    levels = [origin]
    dist = 0
    while True:
        dist += 1
        node = frontier % n
        provs, lens = expand_rows(csr.prov_indptr, csr.prov_indices, node)
        target = provs + np.repeat(frontier - node, lens)
        via = np.repeat(node.astype(np.int32), lens)
        fresh = cust_f[target] == inf
        target, via = target[fresh], via[fresh]
        if not target.size:
            break
        nh_f[target] = n
        np.minimum.at(nh_f, target, via)
        frontier = target[nh_f[target] == via]  # one survivor per target
        cust_f[frontier] = dist
        levels.append(frontier)
    cone = np.concatenate(levels)
    cone_node = cone % n
    cone_row = cone - cone_node
    cone_len = cust_f[cone]
    cone_hop = nh_f[cone]

    # -- push: the cone's peers learn peer routes --------------------------
    # Shortest announcement first, then the lowest-ASN announcer of that
    # length; ``heard`` keeps exactly one (target, length, announcer) per
    # AS that hears anything.
    peers, lens = expand_rows(csr.peer_indptr, csr.peer_indices, cone_node)
    target = peers + np.repeat(cone_row, lens)
    via = np.repeat(cone_node.astype(np.int32), lens)
    length = np.repeat(cone_len + 1, lens)
    np.minimum.at(peer_f, target, length)
    shortest = peer_f[target] == length
    target, via, length = target[shortest], via[shortest], length[shortest]
    nh_f[target] = n
    np.minimum.at(nh_f, target, via)
    heard = nh_f[target] == via
    peer_target, peer_via, peer_len = target[heard], via[heard], length[heard]
    peer_f[origin] = inf  # the destination never takes a peer route

    # -- pull: provider routes, one sweep down the hierarchy ---------------
    # The table holds exported lengths in slot order; customer routes are
    # stored after peer routes because they outrank them.
    peer_node = peer_target % n
    peer_fixed = peer_target - peer_node + slot_of[peer_node]
    cone_fixed = cone_row + slot_of[cone_node]
    table_f[peer_fixed] = peer_len
    table_f[cone_fixed] = cone_len
    # A pull overwrites its whole level, so the routes pushed above are
    # put back after each one: sort them by slot and cut at level starts.
    fixed = np.concatenate((peer_fixed, cone_fixed))
    fixed = fixed[np.argsort(fixed % n, kind="stable")]
    fixed_len = table_f[fixed]
    cuts = np.searchsorted(fixed % n, schedule.level_starts)
    mine = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    for level, put_back in zip(schedule.levels, mine):
        _pull_level(table, hops, level, inf)
        table_f[fixed[put_back]] = fixed_len[put_back]
    if schedule.cyclic:
        # A provider cycle's closure (the last level) has no sweep order;
        # repeat it until nothing moves — lengths only ever shrink.
        level, put_back = schedule.levels[-1], mine[-1]
        lo, hi, _ = level
        while True:
            before = table[:, lo:hi].copy()
            _pull_level(table, hops, level, inf)
            table_f[fixed[put_back]] = fixed_len[put_back]
            if np.array_equal(before, table[:, lo:hi]):
                break
    np.take(table, slot_of, axis=1, out=export, mode="clip")
    np.take(hops, slot_of, axis=1, out=nh, mode="clip")

    # -- classes and next hops ---------------------------------------------
    # Branch-free: whatever is reachable and was not pushed is a provider
    # route; unreachable next hops (garbage from the sweep) become -1.
    reach = export < inf
    np.multiply(reach.view(np.int8), _PROVIDER - _UNREACHABLE, out=cls)
    cls += _UNREACHABLE
    lost = reach.astype(np.int32)
    lost -= 1
    nh |= lost
    cls_f[peer_target] = int(Relationship.PEER)
    nh_f[peer_target] = peer_via
    cls_f[cone] = int(Relationship.CUSTOMER)
    nh_f[cone] = cone_hop
    cls_f[origin] = _DEST
    nh_f[origin] = _NO_HOP


def converge_block(
    csr: CsrAdjacency, dest_idxs: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, ...]:
    """Converge a block of destinations over bare CSR arrays.

    ``dest_idxs`` are **dense** destination indices (``B`` of them, any
    ``B``); returns the five ``(B, n)`` result arrays ``(cust, peer,
    export, class, next_hop)`` whose rows become the views'
    :meth:`ArrayDestinationRouting.state`.  Needs only the graph's
    :class:`CsrAdjacency`, never the :class:`ASGraph` itself.

    Indices must be unique and in ``[0, n)`` — a negative one would wrap
    to a real AS and return a plausible table for the wrong destination.

    This is where propagation telemetry is defined, once, for every
    caller: per run of :func:`block_dests` destinations one
    ``bgp.propagate`` span and one ``bgp.block_dests`` sample, with
    ``bgp.destinations_converged`` / ``bgp.routes_propagated`` advanced
    by the run's exact totals.
    """
    idxs = np.asarray(dest_idxs, dtype=np.int64).reshape(-1)
    n = csr.n_nodes
    if idxs.size and (idxs.min() < 0 or idxs.max() >= n):
        bad = idxs[(idxs < 0) | (idxs >= n)][0]
        raise TopologyError(f"dense destination index {bad} outside [0, {n})")
    if np.unique(idxs).size != idxs.size:
        raise TopologyError("duplicate destination index in one block")
    state = tuple(np.empty((idxs.size, n), dtype=t) for t in _STATE_DTYPES)
    width = block_dests(n)
    table = np.empty((min(idxs.size, width), n), dtype=np.int32)
    hops = np.empty_like(table)
    telemetry = tm.active()
    for lo in range(0, idxs.size, width):
        run = idxs[lo : lo + width]
        rows = tuple(a[lo : lo + run.size] for a in state)
        with tm.span("bgp.propagate"):
            _converge_rows(csr, run, rows, table[: run.size], hops[: run.size])
        if telemetry is not None:
            telemetry.inc("bgp.destinations_converged", run.size)
            telemetry.inc(
                "bgp.routes_propagated", int(np.count_nonzero(rows[3] != _UNREACHABLE))
            )
            telemetry.observe("bgp.block_dests", run.size, bounds=_BLOCK_BOUNDS)
    return state


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
        "_path_cache",
        "_rib_cache",
    )

    def __init__(
        self, graph: ASGraph, dest: int, state: tuple[np.ndarray, ...]
    ) -> None:
        """Wrap converged ``state`` (one row of :func:`converge_block`'s
        five arrays); use :func:`compute_array_routing` to converge."""
        if dest not in graph:
            raise TopologyError(f"destination AS {dest} not in graph")
        self.graph = graph
        self.csr = graph.csr()
        self.dest = dest
        self._dest_idx = self.csr.index[dest]
        self._path_cache: dict[int, tuple[int, ...]] = {}
        self._rib_cache: dict[int, tuple[RibEntry, ...]] = {}
        self._cust, self._peer, self._export, self._class, self._nh = state

    # ------------------------------------------------------------------
    # raw state
    # ------------------------------------------------------------------
    def state(self) -> tuple[np.ndarray, ...]:
        """The five result arrays — everything the view knows besides
        the graph."""
        return (self._cust, self._peer, self._export, self._class, self._nh)

    @classmethod
    def from_state(
        cls, graph: ASGraph, dest: int, state: tuple[np.ndarray, ...]
    ) -> "ArrayDestinationRouting":
        """Rebuild a view from five result arrays around ``graph``, in
        :func:`converge_block`'s dtypes (``rib`` reads the int8 class row
        as bytes)."""
        return cls(graph, dest, state)

    @classmethod
    def from_block(
        cls, graph: ASGraph, dest: int, block: tuple[np.ndarray, ...], row: int
    ) -> "ArrayDestinationRouting":
        """The view of row ``row`` of :func:`converge_block`'s output.

        The view owns *copies* of its five rows: one that outlives its
        siblings (an LRU cache, a dirty-set re-convergence) must not pin
        the whole block.
        """
        return cls(graph, dest, tuple(a[row].copy() for a in block))

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
        clone = ArrayDestinationRouting(graph, self.dest, self.state())
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
        code = self._class.item(self._idx(x))
        if code == _UNREACHABLE:
            raise NoRouteError(x, self.dest)
        if code == _DEST:
            return None
        if not 0 <= code < len(_RELS):
            raise RoutingError(
                f"inconsistent routing state: AS {x} holds class code {code} "
                f"toward {self.dest}"
            )
        return _RELS[code]

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
        if not 0 <= hop < len(self._nh):
            # A reachable class with the no-hop sentinel (or any index
            # past the last AS) means the result arrays disagree — possible
            # only via a corrupted from_state() payload.  Without this guard
            # the -1 would silently index the *last* ASN — a wrong answer
            # instead of an error.
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
        path = tuple(map(self.csr.asns.item, self._walk(x, i)))
        self._path_cache[x] = path
        return path

    def _walk(self, x: int, i: int) -> list[int]:
        """Dense indices of the default path from AS ``x`` (dense ``i``) to
        the destination, both ends included.

        The one walk of the next-hop row, with the corrupted-state guards
        in one place: :meth:`best_path` memoises what it returns,
        :meth:`rib`'s loop filter never does.
        """
        nh = self._nh
        dest = self._dest_idx
        n = len(nh)
        limit = n + 1
        hops = [i]
        cur = i
        while cur != dest:
            cur = nh.item(cur)
            if not 0 <= cur < n:  # same corrupted-state guard as next_hop()
                raise RoutingError(
                    f"inconsistent routing state: default path from AS {x} "
                    f"toward {self.dest} dead-ends at AS "
                    f"{self.csr.asns.item(hops[-1])}"
                )
            hops.append(cur)
            if len(hops) > limit:  # a from_state() payload can hold a cycle
                raise RoutingError(
                    f"inconsistent routing state: default-path loop from AS {x} "
                    f"toward {self.dest}: {self.csr.asns[hops[:16]].tolist()}..."
                )
        return hops

    def rib(self, x: int, *, loop_filter: bool = True) -> tuple[RibEntry, ...]:
        """The multi-neighbor Adj-RIB-In of ``x`` toward the destination.

        Same semantics (and same :class:`~repro.bgp.propagation.RibEntry`
        entries) as the dict backend, derived from one pass over ``x``'s
        CSR neighbour slice (:meth:`announcers`), sorted by relationship,
        exported length and AS number — :attr:`RibEntry.selection_key`.
        The loop filter walks each announcer's default path, reading the
        path memo but never adding to it: a read that memoised every
        neighbour's path would grow a long-lived view by all of them.
        """
        if x == self.dest:
            return ()
        if loop_filter:
            cached = self._rib_cache.get(x)
            if cached is not None:
                return cached
        i = self._idx(x)
        heard = self.announcers(x, i)
        if loop_filter:
            # In CSR order, as the dict backend walks them: a corrupted
            # state raises the same error, from the same neighbour.
            heard = [(j, r) for j, r in heard if not self.passes_through(j, x, i)]
        export, asns = self._export, self.csr.asns
        # dense indices ascend with AS numbers: (rel, length, j) is the
        # selection key
        ranked = sorted([(r, export.item(j), j) for j, r in heard])
        result = tuple(
            [RibEntry(asns.item(j), length + 1, _RELS[r]) for r, length, j in ranked]
        )
        if loop_filter:
            self._rib_cache[x] = result
        return result

    def cached_rib(self, x: int) -> tuple[RibEntry, ...] | None:
        """``x``'s loop-filtered RIB if an earlier :meth:`rib` call kept
        it, else None — a peek that never derives one."""
        return self._rib_cache.get(x)

    def announcers(self, x: int, i: int) -> list[tuple[int, int]]:
        """``(dense index, relationship code)`` of every neighbour whose
        route reaches AS ``x`` (dense ``i``), in CSR (ascending-ASN) order:
        the RIB's members before the loop filter, unsorted and unbuilt.

        The one home of the announce rule (:func:`_announce_floor`) and of
        its guard: a neighbour holding a class code the kernel never
        writes raises :class:`RoutingError` rather than count as either.
        :meth:`rib` sorts and builds these; a caller that needs only a
        few of them tests its own conditions first and applies the loop
        filter, :meth:`passes_through`, to what is left.
        """
        csr = self.csr
        lo, hi = csr.nbr_indptr.item(i), csr.nbr_indptr.item(i + 1)
        nbr = csr.nbr_indices[lo:hi]
        rel = csr.nbr_rel[lo:hi]
        floor = _ANNOUNCE_FLOOR.take(self._class.take(nbr))
        out: list[tuple[int, int]] = []
        for p in (floor <= rel).nonzero()[0].tolist():
            j = nbr.item(p)
            if floor.item(p) == _CORRUPT:
                raise RoutingError(
                    f"inconsistent routing state: neighbour AS {csr.asns.item(j)} "
                    f"of AS {x} holds class code {self._class.item(j)} toward "
                    f"{self.dest}"
                )
            out.append((j, rel.item(p)))
        return out

    def passes_through(self, j: int, x: int, i: int) -> bool:
        """Whether the default path of neighbour ``j`` (dense) runs through
        AS ``x`` (dense ``i``) — BGP's AS-path import filter, which
        :meth:`rib` applies to every announcer."""
        if j == self._dest_idx:
            return False
        nb = self.csr.asns.item(j)
        path = self._path_cache.get(nb)
        if path is not None:
            return x in path
        return i in self._walk(nb, j)

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


def compute_array_routings(
    graph: ASGraph, dests: Iterable[int]
) -> dict[int, ArrayDestinationRouting]:
    """Converge ``dests`` (duplicates collapse) on the array backend, in
    blocks; returns ``{dest: routing}`` in first-seen order.

    One kernel call per block, so only one block of kernel output is ever
    alive beside the views.  ``graph`` must be frozen; results are
    undefined if it mutates afterward.
    """
    if not graph.frozen:
        raise TopologyError("freeze() the graph before computing routing")
    csr = graph.csr()
    unique = list(dict.fromkeys(dests))
    try:
        idxs = [csr.index[d] for d in unique]
    except KeyError as exc:
        raise TopologyError(f"destination AS {exc.args[0]} not in graph") from None
    out: dict[int, ArrayDestinationRouting] = {}
    width = block_dests(csr.n_nodes)
    for lo in range(0, len(unique), width):
        block = converge_block(csr, idxs[lo : lo + width])
        for row, dest in enumerate(unique[lo : lo + width]):
            out[dest] = ArrayDestinationRouting.from_block(graph, dest, block, row)
    return out


def compute_array_routing(graph: ASGraph, dest: int) -> ArrayDestinationRouting:
    """Converged BGP state for one destination: a block of one."""
    return compute_array_routings(graph, (dest,))[dest]
