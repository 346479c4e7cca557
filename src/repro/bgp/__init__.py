"""BGP control plane (system S2 in DESIGN.md).

Three equivalent models, fastest first:

* :func:`~repro.bgp.array_routing.converge_block` — the array backend:
  one numpy kernel over the frozen graph's CSR arrays that settles a
  block of destinations per pass (a single destination,
  :func:`~repro.bgp.array_routing.compute_array_routing`, is a block of
  one);
* :func:`~repro.bgp.propagation.compute_routing` — the original
  dict-based three-stage computation, kept as the array backend's
  cross-validation oracle, exposing default paths *and* the
  multi-neighbor RIB that MIFO mines for alternatives;
* :class:`~repro.bgp.speaker.BgpNetwork` — exact message-level convergence
  (test oracle + small-topology control plane).

:func:`~repro.bgp.propagation.compute_routings` is the one way to converge
a destination set on either of the first two, in-process.
"""

from .array_routing import ArrayDestinationRouting, compute_array_routing
from .policy import accepts, can_export, local_preference, select_best
from .propagation import (
    CacheStats,
    DestinationRouting,
    RibEntry,
    RoutingCache,
    compute_routing,
)
from .rib import AdjRibIn, LocRib
from .route import Route, selection_key
from .speaker import BgpNetwork, Speaker

__all__ = [
    "ArrayDestinationRouting",
    "compute_array_routing",
    "CacheStats",
    "Route",
    "selection_key",
    "accepts",
    "can_export",
    "local_preference",
    "select_best",
    "RibEntry",
    "DestinationRouting",
    "RoutingCache",
    "compute_routing",
    "AdjRibIn",
    "LocRib",
    "Speaker",
    "BgpNetwork",
]
