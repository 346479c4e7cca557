"""The flow plane: per-directed-link state under both flow simulators.

MIFO's Section IV behaviour rests on two per-link signals: a congestion
bit with hysteresis, and the spare capacity of the directly connected
link that the greedy selector ranks.  :class:`FlowPlane` owns both, the
link table they are read from and the one max-min solver that fills it.
The event-driven fluid simulator
(:class:`~repro.flowsim.simulator.FluidSimulator`, Figs. 5/6/8/9) and the
per-epoch scenario engine (:class:`~repro.scenario.engine.ScenarioEngine`,
scenarios and ``serve``) sit on it.

A directed link gets a dense index the first time a path crosses it or
an event names it.  Per index the plane keeps the allocated rate
(``alloc``, bps), the hysteresis bit (``congested``), the capacity as a
factor of the base (``cap_factor``) and the share of it taken by
scripted cross traffic (``exo_frac``).  The arrays grow by doubling and
the padding keeps its initial value, so planes that interned the same
links in the same order hold the same bytes.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

import numpy as np

from ..errors import ConfigError
from .incremental import IncrementalMaxMin

__all__ = ["FlowPlane", "check_capacity_factor"]


def check_capacity_factor(factor: float | np.ndarray) -> None:
    """Refuse a capacity factor (or a per-link column of them) that is not
    finite and ``>= 0`` with a :class:`ConfigError` naming ``factor``."""
    if isinstance(factor, np.ndarray):
        ok = bool(np.all(np.isfinite(factor) & (factor >= 0.0)))
    else:  # NaN fails both comparisons; an int past float range the second
        ok = isinstance(factor, (int, float)) and 0.0 <= factor <= sys.float_info.max
    if not ok:
        raise ConfigError(f"capacity factor must be >= 0 and finite, got factor={factor!r}")


class FlowPlane:
    """Link table, congestion signals and the one pooled max-min solver.

    ``group_rtol`` is the solver's rate-grouping tolerance (see
    :func:`~repro.flowsim.maxmin.maxmin_rates`).  The fluid simulator
    passes 1e-3 and the scenario engine 0: the figure digests and the
    ``serve`` checkpoints were recorded at those values.
    """

    def __init__(
        self,
        link_capacity_bps: float,
        congest_threshold: float,
        clear_threshold: float,
        *,
        group_rtol: float,
    ) -> None:
        self.link_capacity_bps = link_capacity_bps
        self.congest_threshold = congest_threshold
        self.clear_threshold = clear_threshold
        #: directed link ``(u, v)`` -> dense index, in interning order.
        self.links: dict[tuple[int, int], int] = {}
        self.alloc = np.zeros(0)
        self.congested = np.zeros(0, dtype=bool)
        self.cap_factor = np.ones(0)
        self.exo_frac = np.zeros(0)
        self.solver = IncrementalMaxMin(
            unconstrained_rate=link_capacity_bps, group_rtol=group_rtol
        )

    def intern_link(self, u: int, v: int) -> int:
        """The dense index of directed link ``(u, v)``, assigned on first use."""
        idx = self.links.get((u, v))
        if idx is None:
            idx = len(self.links)
            self.links[(u, v)] = idx
            if idx >= self.alloc.shape[0]:
                grow = max(64, self.alloc.shape[0])
                self.alloc = np.concatenate([self.alloc, np.zeros(grow)])
                self.congested = np.concatenate([self.congested, np.zeros(grow, dtype=bool)])
                self.cap_factor = np.concatenate([self.cap_factor, np.ones(grow)])
                self.exo_frac = np.concatenate([self.exo_frac, np.zeros(grow)])
        return idx

    def intern_path(self, path: Sequence[int]) -> list[int]:
        """The link indices of an AS path, hop by hop."""
        return [self.intern_link(path[i], path[i + 1]) for i in range(len(path) - 1)]

    def scale_link(self, u: int, v: int, factor: float) -> tuple[int, ...]:
        """Set both directions of ``u``–``v`` to ``factor`` × the base
        capacity; returns the indices whose factor changed."""
        check_capacity_factor(factor)
        return self._set_both("cap_factor", u, v, factor)

    def load_link(self, u: int, v: int, utilization: float) -> tuple[int, ...]:
        """Set the cross-traffic share on both directions of ``u``–``v``;
        returns the indices whose share changed."""
        return self._set_both("exo_frac", u, v, utilization)

    def _set_both(self, column: str, u: int, v: int, value: float) -> tuple[int, ...]:
        changed = []
        for a, b in ((u, v), (v, u)):
            idx = self.intern_link(a, b)
            values = getattr(self, column)  # interning may have regrown it
            if values[idx] != value:
                values[idx] = value
                changed.append(idx)
        return tuple(changed)

    # Dense per-link views over the interned links, bps.
    def capacity(self) -> np.ndarray:
        """Per-link capacity."""
        return self.link_capacity_bps * self.cap_factor[: len(self.links)]

    def residual(self) -> np.ndarray:
        """Per-link capacity left for the simulated flows (the solver's
        capacity vector)."""
        return self.capacity() * (1.0 - self.exo_frac[: len(self.links)])

    def load(self) -> np.ndarray:
        """Per-link allocated plus cross traffic."""
        n = len(self.links)
        return self.alloc[:n] + self.exo_frac[:n] * self.capacity()

    def utilization(self) -> np.ndarray:
        """Per-link load over capacity, unclipped (1 on a zero-capacity link)."""
        cap = self.capacity()
        return np.divide(self.load(), cap, out=np.ones(cap.shape[0]), where=cap > 0)

    # The two signals, as callbacks for the walk and the providers.
    def is_congested(self, u: int, v: int) -> bool:
        """The hysteresis bit of ``(u, v)``; a link never crossed is clear."""
        idx = self.links.get((u, v))
        return bool(self.congested[idx]) if idx is not None else False

    def spare(self, u: int, v: int) -> float:
        """Unused capacity of ``(u, v)``, bps; a link never crossed is idle."""
        idx = self.links.get((u, v))
        if idx is None:
            return self.link_capacity_bps
        cap = self.link_capacity_bps * float(self.cap_factor[idx])
        used = float(self.alloc[idx]) + float(self.exo_frac[idx]) * cap
        return max(0.0, cap - used)

    def read_load(self) -> None:
        """Take ``alloc`` from the solver's last fill."""
        n = len(self.links)
        self.alloc.fill(0.0)
        self.alloc[:n] = self.solver.link_load()[:n]

    def update_congestion(self) -> tuple[set[int], bool]:
        """Hysteresis: a bit sets when load reaches ``congest_threshold``
        of capacity and clears only when it falls to ``clear_threshold``.

        Returns ``(newly_congested_link_ids, any_link_cleared)`` so a
        response pass can target only the flows a transition affects.
        """
        cap, load = self.capacity(), self.load()
        bits = self.congested[: len(self.links)]
        old = bits.copy()
        bits[load >= self.congest_threshold * cap] = True
        bits[load <= self.clear_threshold * cap] = False
        return set(np.flatnonzero(bits & ~old).tolist()), bool((old & ~bits).any())

    def shift(self, old_ids: Sequence[int], new_ids: Sequence[int], rate_bps: float) -> None:
        """Move one rerouted flow's rate (``new_ids`` already interned) in
        ``alloc``, so later decisions of the same response pass see it."""
        alloc = self.alloc
        for idx in old_ids:
            alloc[idx] = max(0.0, alloc[idx] - rate_bps)
        for idx in new_ids:
            alloc[idx] += rate_bps
