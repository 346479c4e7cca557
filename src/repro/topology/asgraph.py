"""AS-level topology graph annotated with business relationships.

The graph is the substrate everything else (BGP propagation, MIFO
deflection, the fluid and packet simulators) runs on.  Nodes are AS numbers
(arbitrary ints); each undirected inter-AS link carries a business
relationship — provider–customer (P2C) or mutual peering — stored from both
endpoints' perspectives.

Performance notes (per the HPC guides): adjacency is kept in plain dicts and
per-relationship lists for O(1) neighbor queries inside the per-destination
BFS hot loops; :meth:`ASGraph.freeze` validates invariants once and caches
derived structures (sorted neighbor lists, link index) so the routing code
never re-derives them.
"""

from __future__ import annotations

import bisect
import dataclasses
from collections.abc import Iterable, Iterator

import numpy as np

from ..errors import TopologyError
from .relationships import Relationship, invert

__all__ = ["ASGraph", "CsrAdjacency", "PullSchedule", "expand_rows", "link_key"]


def link_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected link identifier (smaller AS number first)."""
    return (u, v) if u <= v else (v, u)


def expand_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows of ``rows`` and each row's length, without a
    Python-level loop (``np.repeat(x, lens)`` aligns per-row data ``x``
    with the concatenation)."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return indices[:0], lens
    # Classic CSR multi-row gather: repeat each row's (start - preceding
    # output offset), then add a flat arange to enumerate within rows.
    offsets = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(total)
    return indices[offsets], lens


@dataclasses.dataclass(frozen=True)
class PullSchedule:
    """Provider-hierarchy level schedule of one :class:`CsrAdjacency`.

    A node's *level* is the length of its longest provider chain: level 0
    has no providers, level ``k`` has every provider in a level below
    ``k``.  A provider route is one hop longer than the best route any
    provider exports, so visiting levels in ascending order and *pulling*
    from the providers settles every node in one sweep — the array
    backend's replacement for a per-destination frontier search (see
    :func:`repro.bgp.array_routing.converge_block`).

    Nodes are laid out in *slots*: ascending level, then descending
    provider count, then ascending dense index.  A level is therefore one
    contiguous slot range, and "the ``j``-th provider of every node that
    has more than ``j``" is a prefix of it, so each column is a plain
    gather with no padding.  Within a node the columns follow its CSR
    provider row (ascending dense index): the first column attaining the
    minimum is the lowest-ASN provider, BGP's tie-break.

    A hierarchy with a provider cycle (``freeze(require_acyclic_hierarchy=
    False)``) has no longest chain for the nodes on or below the cycle;
    they form one last level that the kernel sweeps to a fixpoint, flagged
    by :attr:`cyclic`.

    Derived from the CSR arrays alone.  Every array is read-only.
    """

    slot_of: np.ndarray  #: int64[n] dense index -> slot
    level_starts: np.ndarray  #: int64[len(levels) + 1] first slot of each level, then n
    #: one ``(lo, hi, columns)`` per level >= 1: the level's slot range and,
    #: per column ``j``, the ``j``-th provider of its first ``len`` nodes as
    #: ``(slots int64[len], dense indices int32[len])``.
    levels: tuple[
        tuple[int, int, tuple[tuple[np.ndarray, np.ndarray], ...]], ...
    ]
    cyclic: bool  #: the last level is a provider cycle's closure


def _build_pull_schedule(csr: "CsrAdjacency") -> PullSchedule:
    n = csr.n_nodes
    n_prov = np.diff(csr.prov_indptr)
    # Kahn peeling down customer edges: a node is released once its last
    # provider is, which makes its peel round its longest provider chain.
    level = np.full(n, -1, dtype=np.int64)
    waiting = n_prov.copy()
    frontier = np.flatnonzero(waiting == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        released = np.bincount(
            expand_rows(csr.cust_indptr, csr.cust_indices, frontier)[0], minlength=n
        )
        waiting -= released
        frontier = np.flatnonzero((waiting == 0) & (released > 0))
        depth += 1
    cyclic = bool((level < 0).any())
    if cyclic:
        # Never released: on a provider cycle or below one.  One last
        # level — not level 0 even when nothing was released at all.
        depth = max(depth, 1)
        level[level < 0] = depth
        depth += 1
    order = np.lexsort((-n_prov, level))  # stable: ties stay in index order
    slot_of = np.empty(n, dtype=np.int64)
    slot_of[order] = np.arange(n, dtype=np.int64)
    slot_of.flags.writeable = False
    bounds = np.searchsorted(level[order], np.arange(depth + 1))
    levels = []
    for lv in range(1, depth):
        lo, hi = int(bounds[lv]), int(bounds[lv + 1])
        nodes = order[lo:hi]
        counts = n_prov[nodes]
        first = csr.prov_indptr[nodes]
        columns = []
        for j in range(int(counts[0])):
            # counts descend, so "more than j providers" is a prefix.
            width = int(np.searchsorted(-counts, -j, side="left"))
            provs = csr.prov_indices[first[:width] + j]
            slots = slot_of[provs]
            slots.flags.writeable = False
            provs.flags.writeable = False
            columns.append((slots, provs))
        levels.append((lo, hi, tuple(columns)))
    level_starts = np.array([lo for lo, _, _ in levels] + [n], dtype=np.int64)
    level_starts.flags.writeable = False
    return PullSchedule(
        slot_of=slot_of, level_starts=level_starts, levels=tuple(levels), cyclic=cyclic
    )


@dataclasses.dataclass(frozen=True)
class CsrAdjacency:
    """Compact CSR view of a frozen :class:`ASGraph`.

    Nodes get a dense index ``0..n-1`` in **ascending AS-number order**, so
    index order and AS-number order coincide: a minimum over dense indices
    is a minimum over AS numbers, which is what BGP tie-breaking needs.

    Three per-relationship adjacency structures (customers, providers,
    peers) plus one combined structure carrying the relationship code of
    each neighbor (as seen from the row node).

    Built once per frozen graph (see :meth:`ASGraph.csr`), or spliced
    from the parent's for a graph derived by one link event, and shared
    read-only by every destination computation.  Every array is
    read-only: derived graphs share the ones an event leaves alone.
    """

    asns: np.ndarray  #: int64[n] dense index -> AS number (ascending)
    index: dict[int, int]  #: AS number -> dense index
    cust_indptr: np.ndarray  #: int64[n+1]
    cust_indices: np.ndarray  #: int32[sum deg_c] customers of each row
    prov_indptr: np.ndarray
    prov_indices: np.ndarray  #: providers of each row
    peer_indptr: np.ndarray
    peer_indices: np.ndarray  #: peers of each row
    nbr_indptr: np.ndarray
    nbr_indices: np.ndarray  #: all neighbors of each row (ascending)
    nbr_rel: np.ndarray  #: int8 relationship code of that neighbor
    #: cache behind :attr:`pull_schedule`; derived from the arrays above.
    _pull_schedule: PullSchedule | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_nodes(self) -> int:
        """Number of ASes in the dense index."""
        return len(self.asns)

    @property
    def pull_schedule(self) -> PullSchedule:
        """The provider-hierarchy level schedule, built on first use."""
        schedule = self._pull_schedule
        if schedule is None:
            schedule = _build_pull_schedule(self)
            # A derived cache, not state, so frozen-ness is bypassed — into
            # a *declared* field: a ``cached_property`` would add a new key
            # to the instance after ``__init__``, which un-shares the
            # attribute table CPython specializes ``csr.<field>`` reads on
            # (measured: every view query 4-5 % slower).
            object.__setattr__(self, "_pull_schedule", schedule)
        return schedule

    def neighbors_of(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor indices, relationship codes) of one dense index."""
        lo, hi = self.nbr_indptr[idx], self.nbr_indptr[idx + 1]
        return self.nbr_indices[lo:hi], self.nbr_rel[lo:hi]


def _build_class_csr(
    n: int, index: dict[int, int], rows_of: dict[int, list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    counts = np.zeros(n, dtype=np.int64)
    for asn, nbrs in rows_of.items():
        counts[index[asn]] = len(nbrs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for asn, nbrs in rows_of.items():
        i = index[asn]
        # neighbor lists are sorted by AS number at freeze(); the dense
        # mapping is monotone, so the mapped slice stays sorted.
        indices[indptr[i] : indptr[i + 1]] = [index[v] for v in nbrs]
    return indptr, indices


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _build_csr(graph: "ASGraph") -> CsrAdjacency:
    asns = np.array(sorted(graph.nodes()), dtype=np.int64)
    index = {int(a): i for i, a in enumerate(asns)}
    n = len(asns)

    cust = _build_class_csr(n, index, graph._customers)
    prov = _build_class_csr(n, index, graph._providers)
    peer = _build_class_csr(n, index, graph._peers)

    counts = np.zeros(n, dtype=np.int64)
    for asn, nbrs in graph._nbr.items():
        counts[index[asn]] = len(nbrs)
    nbr_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=nbr_indptr[1:])
    nbr_indices = np.empty(int(nbr_indptr[-1]), dtype=np.int32)
    nbr_rel = np.empty(int(nbr_indptr[-1]), dtype=np.int8)
    for asn, nbrs in graph._nbr.items():
        i = index[asn]
        lo = int(nbr_indptr[i])
        for k, (v, rel) in enumerate(sorted((index[v], r) for v, r in nbrs.items())):
            nbr_indices[lo + k] = v
            nbr_rel[lo + k] = int(rel)
    return CsrAdjacency(
        asns=_read_only(asns),
        index=index,
        cust_indptr=_read_only(cust[0]),
        cust_indices=_read_only(cust[1]),
        prov_indptr=_read_only(prov[0]),
        prov_indices=_read_only(prov[1]),
        peer_indptr=_read_only(peer[0]),
        peer_indices=_read_only(peer[1]),
        nbr_indptr=_read_only(nbr_indptr),
        nbr_indices=_read_only(nbr_indices),
        nbr_rel=_read_only(nbr_rel),
    )


def _edited(row: list[int], x: int, add: bool) -> list[int]:
    """A sorted copy of ``row`` with ``x`` inserted or removed."""
    out = list(row)
    if add:
        bisect.insort(out, x)
    else:
        out.remove(x)
    return out


def _splice_csr(
    indptr: np.ndarray, indices: np.ndarray, edits: tuple[tuple[int, int], ...], add: bool
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """A CSR structure with each ``(row, column)`` of ``edits`` inserted or
    deleted, plus the positions it spliced at, for parallel arrays.
    ``edits`` ascend by row, so two insertions at one position (the end
    of row ``r`` is the start of row ``r + 1``) land in row order."""
    pos = [
        int(indptr[r]) + int(np.searchsorted(indices[indptr[r] : indptr[r + 1]], c))
        for r, c in edits
    ]
    if add:
        spliced = np.insert(indices, pos, [c for _, c in edits])
    else:
        spliced = np.delete(indices, pos)
    new_indptr = indptr.copy()
    for r, _ in edits:
        new_indptr[r + 1 :] += 1 if add else -1
    return _read_only(new_indptr), _read_only(spliced), pos


class ASGraph:
    """Mutable AS-level graph with provider/customer/peer annotations.

    Build with :meth:`add_as`, :meth:`add_p2c` and :meth:`add_peering`, then
    call :meth:`freeze` before handing the graph to routing or simulation
    code.  ``freeze`` checks structural invariants (no self loops, no
    duplicate conflicting links, acyclic provider hierarchy unless disabled)
    and makes the graph immutable.
    """

    def __init__(self) -> None:
        # _nbr[u][v] is the relationship of v *as seen from u*.
        self._nbr: dict[int, dict[int, Relationship]] = {}
        self._customers: dict[int, list[int]] = {}
        self._providers: dict[int, list[int]] = {}
        self._peers: dict[int, list[int]] = {}
        self._frozen = False
        self._links: list[tuple[int, int, Relationship]] | None = None
        self._csr: CsrAdjacency | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_as(self, asn: int) -> None:
        """Register an AS.  Adding an existing AS is a no-op."""
        self._check_mutable()
        if asn not in self._nbr:
            self._nbr[asn] = {}
            self._customers[asn] = []
            self._providers[asn] = []
            self._peers[asn] = []

    def add_p2c(self, provider: int, customer: int) -> None:
        """Add a provider→customer link (``customer`` pays ``provider``)."""
        self._add_link(provider, customer, Relationship.CUSTOMER)

    def add_peering(self, a: int, b: int) -> None:
        """Add a settlement-free peering link between ``a`` and ``b``."""
        self._add_link(a, b, Relationship.PEER)

    def _add_link(self, u: int, v: int, rel_of_v: Relationship) -> None:
        self._check_mutable()
        if u == v:
            raise TopologyError(f"self-loop on AS {u}")
        self.add_as(u)
        self.add_as(v)
        if v in self._nbr[u]:
            if self._nbr[u][v] is rel_of_v:
                return  # idempotent duplicate
            raise TopologyError(
                f"conflicting relationship on link {u}-{v}: "
                f"{self._nbr[u][v].name} vs {rel_of_v.name}"
            )
        self._nbr[u][v] = rel_of_v
        self._nbr[v][u] = invert(rel_of_v)
        if rel_of_v is Relationship.CUSTOMER:
            self._customers[u].append(v)
            self._providers[v].append(u)
        else:
            self._peers[u].append(v)
            self._peers[v].append(u)

    def _check_mutable(self) -> None:
        if self._frozen:
            raise TopologyError("graph is frozen")

    # ------------------------------------------------------------------
    # freezing & invariants
    # ------------------------------------------------------------------
    def freeze(self, *, require_acyclic_hierarchy: bool = True) -> "ASGraph":
        """Validate invariants, make immutable, and return ``self``.

        ``require_acyclic_hierarchy`` asserts the provider→customer
        relation has no directed cycle — a precondition of Gao–Rexford
        stability and of the path-counting DP.
        """
        if self._frozen:
            return self
        if require_acyclic_hierarchy and self._hierarchy_has_cycle():
            raise TopologyError("provider-customer hierarchy contains a cycle")
        for d in (self._customers, self._providers, self._peers):
            for lst in d.values():
                lst.sort()
        self._links = sorted(
            (u, v, rel)
            for u, nbrs in self._nbr.items()
            for v, rel in nbrs.items()
            if u < v
        )
        self._frozen = True
        return self

    def _hierarchy_has_cycle(self) -> bool:
        # Kahn's algorithm over provider→customer edges.
        indeg = {n: len(self._providers[n]) for n in self._nbr}
        stack = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while stack:
            n = stack.pop()
            seen += 1
            for c in self._customers[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    stack.append(c)
        return seen != len(self._nbr)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether freeze() has been called."""
        return self._frozen

    def csr(self) -> CsrAdjacency:
        """The compact CSR adjacency of this graph (frozen graphs only).

        Built lazily on first use and cached; the arrays are shared
        read-only by every array-backend view, so paper-scale graphs pay
        the construction cost exactly once.  A graph derived by one link
        event comes with its CSR already spliced from its parent's.
        """
        if not self._frozen:
            raise TopologyError("freeze() the graph before building CSR arrays")
        if self._csr is None:
            self._csr = _build_csr(self)
        return self._csr

    def _splice_link(
        self, parent: "ASGraph", u: int, v: int, rel_of_v: Relationship | None
    ) -> "ASGraph":
        """Become ``parent`` with the link ``u``–``v`` added (``rel_of_v`` is
        ``v`` seen from ``u``) or removed (``rel_of_v`` is ``None``), frozen.

        Called on a fresh graph; the caller has checked the endpoints and
        that the link is absent (add) or present (remove).  Frozen graphs
        never mutate, so everything the link does not touch is shared with
        ``parent``: the unchanged row dicts and class lists, ``asns`` and
        ``index``, the untouched class CSR and, for a peering, the pull
        schedule.  The two endpoint rows are rebuilt in ascending ASN
        order, ``links()`` changes by one bisect, and each touched CSR
        gets one ``np.insert`` / ``np.delete`` per row — O(degree) Python
        plus O(links) ``memmove`` instead of a rebuild.
        """
        if not parent._frozen:
            raise TopologyError("freeze() the graph before deriving from it")
        add = rel_of_v is not None
        rel = rel_of_v if rel_of_v is not None else parent._nbr[u][v]
        lo, hi, rel_lo = (u, v, rel) if u < v else (v, u, invert(rel))
        # One link (lo, hi): row lo gains/loses hi with code rel_lo, and
        # row hi gains/loses lo with the inverse code.
        nbr = dict(parent._nbr)
        for x, y, r in ((lo, hi, rel_lo), (hi, lo, invert(rel_lo))):
            row = dict(parent._nbr[x])
            if add:
                row[y] = r
            else:
                del row[y]
            nbr[x] = dict(sorted(row.items()))
        links = list(parent.links())
        at = bisect.bisect_left(links, (lo, hi, rel_lo))
        if add:
            links.insert(at, (lo, hi, rel_lo))
        else:
            del links[at]

        csr = parent.csr()
        a, b = csr.index[lo], csr.index[hi]
        both = ((a, b), (b, a))
        nbr_indptr, nbr_indices, pos = _splice_csr(
            csr.nbr_indptr, csr.nbr_indices, both, add
        )
        codes = [int(rel_lo), int(invert(rel_lo))]
        nbr_rel = np.insert(csr.nbr_rel, pos, codes) if add else np.delete(csr.nbr_rel, pos)
        customers, providers, peers = parent._customers, parent._providers, parent._peers
        cust = csr.cust_indptr, csr.cust_indices
        prov = csr.prov_indptr, csr.prov_indices
        peer = csr.peer_indptr, csr.peer_indices
        if rel_lo is Relationship.PEER:
            peers = dict(peers)
            for x, y in ((lo, hi), (hi, lo)):
                peers[x] = _edited(peers[x], y, add)
            peer = _splice_csr(*peer, both, add)[:2]
        else:
            (p, c), (pi, ci) = (
                ((lo, hi), (a, b)) if rel_lo is Relationship.CUSTOMER else ((hi, lo), (b, a))
            )
            customers, providers = dict(customers), dict(providers)
            customers[p] = _edited(customers[p], c, add)
            providers[c] = _edited(providers[c], p, add)
            cust = _splice_csr(*cust, ((pi, ci),), add)[:2]
            prov = _splice_csr(*prov, ((ci, pi),), add)[:2]
        child = CsrAdjacency(
            asns=csr.asns,
            index=csr.index,
            cust_indptr=cust[0],
            cust_indices=cust[1],
            prov_indptr=prov[0],
            prov_indices=prov[1],
            peer_indptr=peer[0],
            peer_indices=peer[1],
            nbr_indptr=nbr_indptr,
            nbr_indices=nbr_indices,
            nbr_rel=_read_only(nbr_rel),
        )
        # A peering leaves the provider hierarchy, hence the schedule, as
        # it was; a provider-customer change re-levels it, and its cycle
        # flag is the acyclicity check freeze() makes from scratch.
        schedule = (
            csr.pull_schedule
            if rel_lo is Relationship.PEER
            else _build_pull_schedule(child)
        )
        if schedule.cyclic:
            raise TopologyError("provider-customer hierarchy contains a cycle")
        object.__setattr__(child, "_pull_schedule", schedule)

        self._nbr = nbr
        self._customers, self._providers, self._peers = customers, providers, peers
        self._links = links
        self._csr = child
        self._frozen = True
        return self

    def __len__(self) -> int:
        return len(self._nbr)

    def __contains__(self, asn: int) -> bool:
        return asn in self._nbr

    def nodes(self) -> Iterator[int]:
        """Iterate ASNs in insertion order."""
        return iter(self._nbr)

    def links(self) -> list[tuple[int, int, Relationship]]:
        """All links as ``(u, v, relationship-of-v-seen-from-u)``, u < v."""
        if self._links is not None:
            return self._links
        return sorted(
            (u, v, rel)
            for u, nbrs in self._nbr.items()
            for v, rel in nbrs.items()
            if u < v
        )

    def num_links(self) -> int:
        """Number of undirected links."""
        return sum(len(n) for n in self._nbr.values()) // 2

    def neighbors(self, asn: int) -> dict[int, Relationship]:
        """Mapping neighbor → relationship of that neighbor seen from ``asn``."""
        try:
            return self._nbr[asn]
        except KeyError:
            raise TopologyError(f"unknown AS {asn}") from None

    def relationship(self, u: int, v: int) -> Relationship:
        """Relationship of ``v`` as seen from ``u`` (raises if not adjacent)."""
        try:
            return self._nbr[u][v]
        except KeyError:
            raise TopologyError(f"no link between AS {u} and AS {v}") from None

    def are_adjacent(self, u: int, v: int) -> bool:
        """Whether a link ``u``-``v`` exists."""
        return v in self._nbr.get(u, ())

    def customers(self, asn: int) -> list[int]:
        """Customer ASNs of ``asn`` (sorted at freeze)."""
        return self._customers[asn]

    def providers(self, asn: int) -> list[int]:
        """Provider ASNs of ``asn`` (sorted at freeze)."""
        return self._providers[asn]

    def peers(self, asn: int) -> list[int]:
        """Peer ASNs of ``asn`` (sorted at freeze)."""
        return self._peers[asn]

    def degree(self, asn: int) -> int:
        """Number of neighbors of ``asn``."""
        return len(self._nbr[asn])

    def stub_ases(self) -> list[int]:
        """ASes with no customers — the traffic consumers of Section IV."""
        return [n for n in self._nbr if not self._customers[n]]

    def tier1_ases(self) -> list[int]:
        """ASes with no providers (the top of the hierarchy)."""
        return [n for n in self._nbr if not self._providers[n]]

    def is_connected(self) -> bool:
        """Whether the underlying undirected graph is connected."""
        if not self._nbr:
            return True
        it = iter(self._nbr)
        start = next(it)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self._nbr[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self._nbr)

    def subgraph_nodes_reachable_from(self, start: int) -> set[int]:
        """All ASes reachable from ``start`` ignoring relationships."""
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self._nbr[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    # ------------------------------------------------------------------
    # bulk helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_links(
        cls,
        p2c: Iterable[tuple[int, int]] = (),
        peering: Iterable[tuple[int, int]] = (),
        *,
        freeze: bool = True,
    ) -> "ASGraph":
        """Build a graph from link tuples; convenient in tests and examples.

        ``p2c`` tuples are ``(provider, customer)``.
        """
        g = cls()
        for prov, cust in p2c:
            g.add_p2c(prov, cust)
        for a, b in peering:
            g.add_peering(a, b)
        if freeze:
            g.freeze()
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ASGraph(|V|={len(self)}, |E|={self.num_links()}, "
            f"frozen={self._frozen})"
        )
