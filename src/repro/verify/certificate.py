"""The block-native certificate: Theorem 1 evaluated, not searched for.

:mod:`repro.verify.checker` decides the three invariants by *walking* —
it re-materialises one FIB dict and one Adj-RIB-In tuple per AS out of a
routing view, then runs a BFS and a DFS over the tagged deflection
relation.  On the array backend that state already exists as rows of
:func:`~repro.bgp.array_routing.converge_block`'s ``(B, n)`` arrays, and
everything the walk decides is a masked comparison over the CSR's
directed edge list, ``B`` destinations at a time.  :func:`certify_block`
is that comparison.  It can only answer **certified** or **don't know**:
it never reports a finding, and whatever it does not certify goes to the
dict checker, which stays the refuter that builds counterexample walks
and the independent oracle this module is tested against (it shares no
code with it).

For one destination ``t`` and one directed link ``u -> v`` (``v`` seen
from ``u`` as ``rel``), in the order the checks run:

1. **The Adj-RIB-In.**  ``u`` holds a route from ``v`` iff ``v`` is
   routed, may export to ``u`` (its route is a customer route or its own
   prefix, or ``u`` is its customer: ``rel == PROVIDER``), ``u`` is routed
   and is not ``t``, and ``u`` is not on ``v``'s default path (the AS-path
   import filter) — decided by jumping ``next_hop`` pointers from ``v``
   for every candidate link at once; a next-hop cycle is "don't know".
2. **fib ⊆ rib.**  Every routed AS but ``t`` has a next hop, and exactly
   one of its RIB links leads there; the row has exactly one ``DEST``
   cell, at ``t``.
3. **The tagged relation, without a search.**  Every routed AS is a
   traffic source, entered with the bit set, and Tag-Check makes a
   bit-clear state's out-edges a subset of the same AS's bit-set
   out-edges.  So the edges out of bit-set states are the default links
   plus every other RIB link of a MIFO-capable AS; the reachable
   bit-clear states are exactly the targets of those edges that do *not*
   climb to a provider; and the edges out of bit-clear states are the
   customer-bound ones among the former.  No fixpoint is needed.
4. **Valley-freedom.**  A bit-clear state's deflect edges are
   customer-bound by Tag-Check; its default edge must be too (Eq. 3).
5. **Loop-freedom as a potential.**  With ``level`` an AS's longest
   provider chain (read off :class:`~repro.topology.asgraph.PullSchedule`),
   an edge that keeps the bit set climbs to a provider and must strictly
   lower ``level``; an edge that clears the bit lowers the bit; an edge
   out of a bit-clear state descends to a customer and must strictly
   raise ``level``.  Then ``(bit, level if bit else -level)`` falls
   lexicographically along every edge, which *implies* the relation is
   acyclic — the ``up* peer? down*`` argument of Theorem 1.  Inside the
   closure of a provider cycle every AS has the same level, so such an
   edge never qualifies and the destination is handed over.
6. **The counts.**  ``n_states`` and ``n_edges`` are reductions over the
   same masks, so they equal what the BFS would have counted.
"""

from __future__ import annotations

import numpy as np

from ..topology.asgraph import CsrAdjacency
from ..topology.relationships import Relationship

__all__ = ["certify_block"]

#: class codes of :mod:`repro.bgp.array_routing` rows (0..2 are
#: :class:`Relationship` values).
_UNREACHABLE = -1
_CUSTOMER = int(Relationship.CUSTOMER)
_PROVIDER = int(Relationship.PROVIDER)
_DEST = 3


def certify_block(
    csr: CsrAdjacency,
    dest_idxs: np.ndarray,
    state: tuple[np.ndarray, ...],
    capable_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certify ``B`` destinations' converged rows against the CSR.

    ``state`` is the five ``(B, n)`` arrays
    :func:`~repro.bgp.array_routing.converge_block` returns (only
    ``class`` and ``next_hop`` are read — the checker never looks at a
    length), ``dest_idxs`` their dense destination indices and
    ``capable_mask`` a ``bool[n]`` of the MIFO-capable ASes.  Returns
    ``(certified bool[B], n_states int64[B], n_edges int64[B])``; a row
    that is not certified proves nothing and its counts are meaningless.
    Assumes Tag-Check is enabled.
    """
    cls, nh = state[3], state[4]
    n_rows, n = cls.shape
    dests = np.asarray(dest_idxs, dtype=np.int64)
    rows = np.arange(n_rows)

    # -- the graph side: directed links and the potential's level ---------
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.nbr_indptr))
    dst = csr.nbr_indices
    up = csr.nbr_rel == _PROVIDER
    down = csr.nbr_rel == _CUSTOMER
    schedule = csr.pull_schedule
    level = np.searchsorted(schedule.level_starts, schedule.slot_of, side="right")
    rise = level[dst] - level[src]

    # -- cells: classes in range, one DEST at the destination, real hops --
    ok = ~((cls < _UNREACHABLE) | (cls > _DEST)).any(axis=1)
    at_dest = cls == _DEST
    ok &= (at_dest.sum(axis=1) == 1) & at_dest[rows, dests]
    source = cls != _UNREACHABLE
    source[rows, dests] = False
    hopless = source & ((nh < 0) | (nh >= n))
    ok &= ~hopless.any(axis=1)

    # -- 1. the Adj-RIB-In ------------------------------------------------
    cls_dst = np.take(cls, dst, axis=1)
    rib = (
        (cls_dst != _UNREACHABLE)
        & ((cls_dst == _CUSTOMER) | (cls_dst == _DEST) | up)
        & np.take(source, src, axis=1)
    )
    # The import filter, in the flat ``row * n + node`` space.  A pointer
    # stops (points at itself) at the destination and wherever there is no
    # hop to follow; a walk that leaves the routed set stops there, and
    # the AS that sent it fails fib ⊆ rib below.  Pointer doubling gives
    # every AS its hop count to where its default path stops — or finds
    # that it never does: a next-hop cycle.
    here = np.arange(n, dtype=np.int64)
    pointer = (np.where(source & ~hopless, nh, here) + rows[:, None] * n).reshape(-1)
    stopped = pointer == np.arange(pointer.size)
    jump = pointer
    hops = (~stopped).astype(np.int32)
    for _ in range(n.bit_length()):  # 2**rounds jumps outrun any simple path
        if stopped[jump].all():
            break
        hops += hops[jump]
        jump = jump[jump]
    else:
        ok &= stopped[jump].reshape(n_rows, n).all(axis=1)
    # ``u`` can only be on ``v``'s path if ``v`` is farther out, and then it
    # is the AS exactly that many jumps down the path.  (Rows already lost
    # are not walked: in a cycle "that many" means nothing.)
    hops = hops.reshape(n_rows, n)
    ahead = np.take(hops, dst, axis=1) - np.take(hops, src, axis=1)
    row_of, link = np.nonzero(rib & (ahead > 0) & ok[:, None])
    at = row_of * n + dst[link]
    owner = row_of * n + src[link]
    left = ahead[row_of, link]
    while at.size:
        at = pointer[at]
        left -= 1
        arrived = left == 0
        back = arrived & (at == owner)
        rib[row_of[back], link[back]] = False
        row_of, link, at, owner, left = (
            a[~arrived] for a in (row_of, link, at, owner, left)
        )

    # -- 2. fib ⊆ rib (a CSR row lists a neighbour once) -------------------
    default = rib & (np.take(nh, src, axis=1) == dst)
    ok &= default.sum(axis=1) == source.sum(axis=1)

    # -- 3. the relation --------------------------------------------------
    set_edges = rib & (default | capable_mask[src])
    clear = np.zeros((n_rows, n), dtype=bool)
    row_of, link = np.nonzero(set_edges & ~up)
    clear[row_of, dst[link]] = True
    from_clear = np.take(clear, src, axis=1)
    clear_edges = set_edges & from_clear & down

    # -- 4. valley-freedom, 5. the potential -------------------------------
    ok &= ~(default & from_clear & ~down).any(axis=1)
    stalled = (set_edges & up & (rise >= 0)) | (clear_edges & (rise <= 0))
    ok &= ~stalled.any(axis=1)

    # -- 6. the counts ------------------------------------------------------
    # Bit-set states: every source, and the destination if a customer
    # climbs into it.
    dest_set = (set_edges & up & (dst == dests[:, None])).any(axis=1)
    n_states = source.sum(axis=1) + dest_set + clear.sum(axis=1)
    n_edges = set_edges.sum(axis=1) + clear_edges.sum(axis=1)
    return ok, n_states.astype(np.int64), n_edges.astype(np.int64)
