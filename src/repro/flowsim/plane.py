"""The flow plane: per-directed-link state and the flows under both simulators.

MIFO's Section IV behaviour rests on two per-link signals: a congestion
bit with hysteresis, and the spare capacity of the directly connected
link that the greedy selector ranks.  :class:`FlowPlane` owns both, the
link table they are read from, the one max-min solver that fills it and
the one rule by which flows react to them (:meth:`FlowPlane.reroute`).
The event-driven fluid simulator
(:class:`~repro.flowsim.simulator.FluidSimulator`, Figs. 5/6/8/9) and the
per-epoch scenario engine (:class:`~repro.scenario.engine.ScenarioEngine`,
scenarios and ``serve``) sit on it; each brings only its flows
(:class:`~repro.flowsim.flow.Flow`) and its routing decision.

A directed link gets a dense index the first time a path crosses it or
an event names it.  Per index the plane keeps the allocated rate
(``alloc``, bps), the hysteresis bit (``congested``), the capacity as a
factor of the base (``cap_factor``) and the share of it taken by
scripted cross traffic (``exo_frac``).  The arrays grow by doubling and
the padding keeps its initial value, so planes that interned the same
links in the same order hold the same bytes.  Every rate on the plane,
a flow's ``rate_bps`` included, is in bps.
"""

from __future__ import annotations

import copy
import math
import sys
from collections.abc import Callable, Iterable, Sequence, Set

import numpy as np

from .. import telemetry as tm
from ..errors import ConfigError
from .flow import Flow
from .incremental import IncrementalMaxMin

__all__ = ["FlowPlane", "check_capacity_factor", "check_plane_settings"]

#: a reroute decision, ``(path, on_alt)`` with a ``None`` path for no
#: route; ``None`` keeps the flow where it is.
Decision = tuple[tuple[int, ...] | None, bool] | None


def check_capacity_factor(factor: float | np.ndarray) -> None:
    """Refuse a capacity factor (or a per-link column of them) that is not
    finite and ``>= 0`` with a :class:`ConfigError` naming ``factor``."""
    if isinstance(factor, np.ndarray):
        ok = bool(np.all(np.isfinite(factor) & (factor >= 0.0)))
    else:  # NaN fails both comparisons; an int past float range the second
        ok = isinstance(factor, (int, float)) and 0.0 <= factor <= sys.float_info.max
    if not ok:
        raise ConfigError(f"capacity factor must be >= 0 and finite, got factor={factor!r}")


def check_plane_settings(
    link_capacity_bps: float, congest_threshold: float, clear_threshold: float
) -> None:
    """Refuse a base capacity that is not finite and positive, or
    thresholds outside ``0 < clear <= congest <= 1``, with a
    :class:`ConfigError` naming the field (the one check behind both
    simulators' configs)."""
    if not 0.0 < link_capacity_bps <= sys.float_info.max:  # NaN fails too
        raise ConfigError(
            f"link_capacity_bps must be > 0 and finite, got {link_capacity_bps!r}"
        )
    if not 0.0 < clear_threshold <= congest_threshold <= 1.0:
        raise ConfigError(
            "need 0 < clear_threshold <= congest_threshold <= 1, got "
            f"clear_threshold={clear_threshold!r}, congest_threshold={congest_threshold!r}"
        )


class FlowPlane:
    """Link table, congestion signals, the one pooled max-min solver and
    the flow rules both simulators share (:meth:`place`, :meth:`reroute`).

    ``group_rtol`` is the solver's rate-grouping tolerance (see
    :func:`~repro.flowsim.maxmin.maxmin_rates`).  The fluid simulator
    passes 1e-3 and the scenario engine 0: the figure digests and the
    ``serve`` checkpoints were recorded at those values.  With
    ``pooled=False`` flows are placed without touching the solver (the
    fluid simulator's cold reference fills from its own incidence).
    """

    def __init__(
        self,
        link_capacity_bps: float,
        congest_threshold: float,
        clear_threshold: float,
        *,
        group_rtol: float,
        pooled: bool = True,
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
        self.pooled = pooled
        #: flow id -> time of its last switch (or its start), kept for
        #: reroute passes run with a cooldown.
        self.switched_at: dict[int, float] = {}

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

    def snapshot(self) -> "FlowPlane":
        """A copy of the link table and its signals that later writes to
        this plane do not reach: a control-plane view between refreshes.
        Read it only (it shares the solver)."""
        snap = copy.copy(self)
        snap.links = dict(self.links)
        snap.alloc, snap.congested = self.alloc.copy(), self.congested.copy()
        snap.cap_factor, snap.exo_frac = self.cap_factor.copy(), self.exo_frac.copy()
        return snap

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def place(self, flow: Flow, path: tuple[int, ...] | None, on_alt: bool) -> bool:
        """Put ``flow`` on ``path`` (``None``: no route, or it left) and
        keep the solver in step, which holds a flow exactly while it has
        a path; returns whether the path changed.  Only a move from one
        path to another counts as a switch."""
        old = flow.path
        if path is None:
            flow.path, flow.link_ids, flow.on_alt, flow.rate_bps = None, [], False, 0.0
        else:
            flow.path, flow.link_ids, flow.on_alt = path, self.intern_path(path), on_alt
        if path == old:
            return False
        if self.pooled:
            if old is None:
                self.solver.add_flow(flow.flow_id, flow.link_ids)
            elif path is None:
                self.solver.remove_flow(flow.flow_id)
            else:
                self.solver.move_flow(flow.flow_id, flow.link_ids)
        if old is not None and path is not None:
            flow.switches += 1
        return True

    def reroute(
        self,
        flows: Iterable[Flow],
        trigger: Set[int],
        any_cleared: bool,
        decide: Callable[[Flow], Decision],
        *,
        by_flow: bool = False,
        cooldown: float | None = None,
        now: float = 0.0,
        **event_fields: float | int,
    ) -> list[Flow]:
        """The response pass after a congestion transition (Section IV);
        returns the flows it moved.

        A flow on its default path is consulted when it crosses a link in
        ``trigger`` (the links that just congested) or, with ``by_flow``,
        when its id is in it (its RTT series alarmed); a deflected flow
        only when ``any_cleared``.  A ``cooldown`` holds a flow back that
        long after ``switched_at`` (its last switch or start).  Flows are
        consulted by ascending id, and each move shifts its rate in
        ``alloc`` at once, so later decisions see it, and emits a
        ``path_switch`` event carrying ``event_fields``.
        """
        if not trigger and not any_cleared:
            return []
        hit = [
            f
            for f in flows
            if (
                any_cleared
                if f.on_alt
                else f.flow_id in trigger if by_flow else not trigger.isdisjoint(f.link_ids)
            )
        ]
        if cooldown is not None:
            since = self.switched_at
            hit = [f for f in hit if now - since.get(f.flow_id, -math.inf) >= cooldown]
        cause = "rtt_alarm" if by_flow else "congested_link"
        moved = []
        for f in sorted(hit, key=lambda f: f.flow_id):
            decision = decide(f)
            old_ids, rate_bps = f.link_ids, f.rate_bps
            if decision is None or not self.place(f, *decision):
                continue
            self.shift(old_ids, f.link_ids, rate_bps)
            if cooldown is not None:
                self.switched_at[f.flow_id] = now
            tm.event(
                "path_switch", flow=f.flow_id, src=f.src, dst=f.dst, on_alt=f.on_alt,
                cause=cause if f.on_alt else "resume", **event_fields,
            )
            moved.append(f)
        return moved
