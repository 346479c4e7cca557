"""Serial stand-in for the deleted routing pool, kept for ``bench/`` only.

``bench/workloads/table_44k.py`` and ``bench/workloads/probes.py`` still
construct a ``ParallelRoutingEngine``; this class keeps those call shapes
working and nothing else.  Every call is
:func:`~repro.bgp.propagation.compute_routings` — ``n_workers`` and
``persistent`` are accepted and ignored.  It is not re-exported from
:mod:`repro.bgp`; library code converges destinations through
``compute_routings`` directly.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..topology.asgraph import ASGraph
from .propagation import DEFAULT_BACKEND, RoutingView, compute_routings

__all__ = ["ParallelRoutingEngine"]


class ParallelRoutingEngine:
    """:func:`compute_routings` behind the interface ``bench/`` calls."""

    def __init__(
        self,
        graph: ASGraph,
        *,
        n_workers: int | None = None,
        backend: str = DEFAULT_BACKEND,
        persistent: bool = True,
    ) -> None:
        del n_workers, persistent  # accepted for bench/, ignored
        self.graph = graph
        self.backend = backend

    def compute(self, dest: int) -> RoutingView:
        """One destination."""
        return compute_routings(self.graph, (dest,), self.backend)[dest]

    def compute_many(self, dests: Iterable[int]) -> dict[int, RoutingView]:
        """Every destination of ``dests`` (duplicates once)."""
        return compute_routings(self.graph, dests, self.backend)

    def close(self) -> None:
        """Nothing to release."""
