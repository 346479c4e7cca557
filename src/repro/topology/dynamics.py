"""Derived topologies for dynamic scenarios (link failure / recovery).

Every consumer of an :class:`~repro.topology.asgraph.ASGraph` relies on the
freeze contract: once routing code sees a graph it never mutates.  Dynamic
scenarios therefore never edit a graph in place — a link event produces a
*new* frozen graph that shares read-only structure with the old one (every
row, class list and CSR array the link does not touch), and the scenario
engine re-points its state at the derivative.

Three properties matter downstream:

* **The node set is preserved.**  Removing the last link of an AS leaves
  the AS in the graph (isolated, hence unreachable) instead of dropping
  it.  This keeps the dense CSR index mapping identical across the whole
  event timeline, which is what lets
  :meth:`~repro.bgp.array_routing.ArrayDestinationRouting.rebind` carry a
  converged state tuple from one epoch's graph to the next.
* **An event costs the size of the event.**  The derivative's CSR
  adjacency is spliced from the parent's (one insert or delete per touched
  row) and comes attached; a peering reuses the parent's pull schedule.
  The two endpoint rows are rebuilt with neighbours in ascending ASN
  order; every other row is the parent's.
* **Invariants are re-validated.**  A provider-customer change re-levels
  the pull schedule, and a link addition that would create a
  provider-customer cycle raises :class:`~repro.errors.TopologyError`
  instead of corrupting routing.
"""

from __future__ import annotations

from ..errors import TopologyError
from .asgraph import ASGraph
from .relationships import Relationship

__all__ = ["with_link", "without_link"]


def without_link(graph: ASGraph, u: int, v: int) -> ASGraph:
    """A new frozen graph equal to ``graph`` minus the link ``u``–``v``.

    The node set is preserved even if an endpoint becomes isolated.
    Raises :class:`~repro.errors.TopologyError` if the link does not exist
    or ``graph`` is not frozen.
    """
    if not graph.are_adjacent(u, v):
        raise TopologyError(f"no link between AS {u} and AS {v} to remove")
    return ASGraph()._splice_link(graph, u, v, None)


def with_link(graph: ASGraph, u: int, v: int, rel_of_v: Relationship) -> ASGraph:
    """A new frozen graph equal to ``graph`` plus a ``u``–``v`` link.

    ``rel_of_v`` is the relationship of ``v`` as seen from ``u``
    (``CUSTOMER`` makes ``u`` the provider; ``PEER`` adds a peering); it
    is coerced with ``Relationship(rel_of_v)``.  Both endpoints must
    already exist — scenarios change connectivity, never membership — and
    the provider hierarchy must stay acyclic; violations, a value that is
    no relationship, and an unfrozen ``graph`` raise
    :class:`~repro.errors.TopologyError`.
    """
    try:
        rel = Relationship(rel_of_v)
    except (TypeError, ValueError):
        raise TopologyError(
            f"invalid relationship {rel_of_v!r} for link {u}-{v}"
        ) from None
    if u not in graph or v not in graph:
        missing = u if u not in graph else v
        raise TopologyError(f"AS {missing} not in graph; scenarios cannot add ASes")
    if u == v:
        raise TopologyError(f"self-loop on AS {u}")
    if graph.are_adjacent(u, v):
        raise TopologyError(f"link between AS {u} and AS {v} already exists")
    return ASGraph()._splice_link(graph, u, v, rel)
