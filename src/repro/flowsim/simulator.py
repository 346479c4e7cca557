"""Event-driven fluid flow simulator (system S5 in DESIGN.md), on a
:class:`~repro.flowsim.plane.FlowPlane`.

Models the AS-level network of the paper's Section IV: every directed
inter-AS link is a 1 Gbps pipe (configurable); concurrent flows crossing a
link share it max-min fairly; flows arrive per a Poisson process and carry
a fixed number of bytes.  Between consecutive events (flow arrival or
completion) rates are constant, so the simulation advances exactly — no
time stepping, no discretization error.

Congestion, the signal MIFO's deflection consumes, is the plane's
per-directed-link hysteresis bit: a link becomes *congested* when its
allocation reaches ``congest_threshold`` of capacity and *clears* only when
the allocation falls below ``clear_threshold``.  The gap is what keeps flows
from flapping (paper Fig. 9: most flows switch paths at most twice).

After every event that flips some link's congestion state, the plane's
reroute pass (:meth:`~repro.flowsim.plane.FlowPlane.reroute`, the one the
scenario engine runs too) offers the provider (MIFO only) the flows the
flip can affect; moved flows immediately update the allocation estimate
so later decisions in the same pass see the shifting load (routers react
packet-by-packet, not in synchronized rounds).  The simulator keeps only
what is its own: each flow's bits left, its spec, whether it ever took an
alternative, and the stale control-plane snapshot MIRO reads.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import sys

import numpy as np

from .. import telemetry as tm
from ..errors import ConfigError, NoRouteError, SimulationError
from ..topology.asgraph import ASGraph
from .flow import Flow, FlowRecord, FlowSpec
from .maxmin import build_incidence, maxmin_rates
from .plane import FlowPlane, check_plane_settings
from .providers import LinkView, PathProvider

__all__ = ["FluidSimConfig", "FluidSimResult", "FluidSimulator"]

#: a flow with at most this many bits (one byte) left completes.
_COMPLETION_TOL_BITS = 8.0
#: the ``solver_stats`` trace fields, in event order.
_SOLVER_STATS = ("maxmin_iterations", "pool_hits", "cols_reused", "warm_rounds_saved")


@dataclasses.dataclass(frozen=True)
class FluidSimConfig:
    """Knobs of the fluid simulator (defaults per the paper's Section IV)."""

    link_capacity_bps: float = 1e9
    congest_threshold: float = 0.95
    clear_threshold: float = 0.70
    #: a flow may switch paths at most once per this many (virtual)
    #: seconds — the measurement/daemon reaction interval of a real border
    #: router; the damping behind the paper's Fig-9 stability.
    min_switch_interval: float = 0.05
    #: how often the *control plane* view of remote link state refreshes.
    #: Data-plane schemes (MIFO) see live local state; control-plane
    #: schemes (MIRO) see this stale snapshot for non-local links — the
    #: control/data-plane decoupling that motivates the paper (Section I).
    #: Chosen so the lag is several flow lifetimes (as BGP-scale signaling
    #: is, relative to real flows): stale enough to be routinely wrong,
    #: fresh enough to carry coarse load information.
    control_plane_interval: float = 0.5
    #: unroutable (partitioned) flows raise by default; True records and
    #: skips them instead.
    skip_unroutable: bool = False
    max_events: int | None = None
    #: ``"incremental"`` — the stateful path-pooled solver
    #: (:class:`~repro.flowsim.incremental.IncrementalMaxMin`), updated by
    #: per-event deltas: the shipping path.  ``"full"`` — the reference
    #: tests compare against: rebuild the link×flow incidence and run
    #: :func:`~repro.flowsim.maxmin.maxmin_rates` cold every event.  The
    #: two are byte-identical in every result (cross-validated in
    #: ``tests/flowsim/test_crossvalidation.py``).
    solver: str = "incremental"

    def validate(self) -> None:
        """Reject inconsistent configuration values."""
        check_plane_settings(
            self.link_capacity_bps, self.congest_threshold, self.clear_threshold
        )
        for name in ("min_switch_interval", "control_plane_interval"):
            value = getattr(self, name)
            if not 0.0 <= value <= sys.float_info.max:  # NaN fails too
                raise ConfigError(f"{name} must be >= 0 and finite, got {value!r}")
        if self.solver not in ("incremental", "full"):
            raise ConfigError(f"solver {self.solver!r} not in ('incremental', 'full')")


@dataclasses.dataclass
class FluidSimResult:
    """Outcome of one fluid run."""

    scheme: str
    records: list[FlowRecord]
    duration: float  #: virtual time when the last flow completed
    events: int
    reallocations: int
    unroutable: int

    def throughputs_bps(self) -> np.ndarray:
        """Per-flow throughputs as an array (bps)."""
        return np.array([r.throughput_bps for r in self.records])

    def fraction_on_alternative(self) -> float:
        """Fig-8 metric: flows ever carried on an alternative path."""
        if not self.records:
            return 0.0
        return sum(r.used_alternative for r in self.records) / len(self.records)

    def switch_histogram(self, max_switches: int = 5) -> dict[int, float]:
        """Fig-9 metric: fraction of flows per path-switch count; the last
        bucket aggregates ``>= max_switches``."""
        if not self.records:
            return {}
        hist: dict[int, float] = {k: 0.0 for k in range(max_switches + 1)}
        for r in self.records:
            hist[min(r.path_switches, max_switches)] += 1
        n = len(self.records)
        return {k: v / n for k, v in hist.items()}


class FluidSimulator:
    """Runs one scheme (one provider) over one workload."""

    def __init__(
        self,
        graph: ASGraph,
        provider: PathProvider,
        config: FluidSimConfig | None = None,
    ) -> None:
        self.graph = graph
        self.provider = provider
        self.config = config or FluidSimConfig()
        cfg = self.config
        cfg.validate()
        #: with ``pooled`` the plane's solver fills; else the cold
        #: ``maxmin_rates`` reference runs every event.
        self.plane = FlowPlane(
            cfg.link_capacity_bps, cfg.congest_threshold, cfg.clear_threshold,
            group_rtol=1e-3, pooled=cfg.solver == "incremental",
        )
        self._cap_len = -1  # links covered by the solver's capacity vector
        #: the stale control-plane view (see control_plane_interval), a
        #: snapshot of the plane re-taken once per interval of a run.
        self.control_plane = self.plane.snapshot()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, specs: list[FlowSpec]) -> FluidSimResult:
        """Simulate ``specs`` to completion and collect records."""
        cfg = self.config
        plane = self.plane
        pool = plane.solver if plane.pooled else None
        provider = self.provider
        order = sorted(specs, key=lambda s: (s.start_time, s.flow_id))
        next_refresh = -math.inf
        #: in flow-id order, and each flow's bits left beside it.
        active: list[Flow] = []
        bits: list[float] = []
        #: per flow id: its spec and the hop count of its first path.
        started: dict[int, tuple[FlowSpec, int]] = {}
        used_alt: set[int] = set()  # ever carried on an alternative
        records: list[FlowRecord] = []
        unroutable = 0
        i = 0
        now = 0.0
        events = 0
        reallocs = 0
        t0 = tm.active()
        iters_before = (
            t0.counters.get("flowsim.maxmin_iterations", 0)
            if t0 is not None
            else 0
        )
        pool_before = pool.stats() if pool is not None else None
        solve_span = tm.span("flowsim.solve")
        solve_span.__enter__()
        try:
            while i < len(order) or active:
                events += 1
                if cfg.max_events is not None and events > cfg.max_events:
                    raise SimulationError(
                        f"fluid sim exceeded {cfg.max_events} events"
                    )
                t_arr = order[i].start_time if i < len(order) else math.inf
                dt_fin = math.inf
                for f, left in zip(active, bits):
                    rate = f.rate_bps
                    if rate > 0.0:
                        dt_fin = min(dt_fin, left / rate)
                t_fin = now + dt_fin if math.isfinite(dt_fin) else math.inf
                t_next = min(t_arr, t_fin)
                if not math.isfinite(t_next):
                    raise SimulationError(
                        f"stalled at t={now}: {len(active)} active flows "
                        f"with zero rate"
                    )
                # Advance all flows to t_next.
                dt = t_next - now
                if dt > 0:
                    bits = [left - f.rate_bps * dt for f, left in zip(active, bits)]
                now = t_next

                # Completions (filtering keeps ``active`` in flow-id order).
                if bits and min(bits) <= _COMPLETION_TOL_BITS:
                    for f, left in zip(active, bits):
                        if left > _COMPLETION_TOL_BITS:
                            continue
                        spec, first_len = started.pop(f.flow_id)
                        records.append(
                            FlowRecord(
                                f.flow_id, f.src, f.dst, spec.size_bytes, spec.start_time,
                                finish_time=now,
                                path_switches=f.switches,
                                used_alternative=f.flow_id in used_alt,
                                initial_path_len=first_len,
                                final_path_len=len(f.path or ()),
                            )
                        )
                        del plane.switched_at[f.flow_id]
                        plane.place(f, None, False)
                    active = [f for f in active if f.path is not None]
                    bits = [left for left in bits if left > _COMPLETION_TOL_BITS]

                if now >= next_refresh:
                    self.control_plane = stale = plane.snapshot()
                    view = LinkView(plane.is_congested, plane.spare, stale.is_congested, stale.spare)
                    next_refresh = now + cfg.control_plane_interval

                # Arrivals due now.
                while i < len(order) and order[i].start_time <= now + 1e-12:
                    spec = order[i]
                    i += 1
                    try:
                        path, on_alt = provider.initial_path(spec, view)
                    except NoRouteError:
                        if cfg.skip_unroutable:
                            unroutable += 1
                            continue
                        raise
                    flow = Flow(spec.flow_id, spec.src, spec.dst)
                    plane.place(flow, path, on_alt)
                    at = bisect.bisect_right(active, spec.flow_id, key=lambda f: f.flow_id)
                    active.insert(at, flow)
                    bits.insert(at, float(spec.size_bytes) * 8.0)
                    started[spec.flow_id] = (spec, len(path))
                    plane.switched_at[spec.flow_id] = spec.start_time
                    if on_alt:
                        used_alt.add(spec.flow_id)

                # Re-solve rates, update congestion, offer reroutes on flips.
                newly_congested, any_cleared = self._reallocate(active)
                reallocs += 1
                if provider.supports_reroute:
                    moved = plane.reroute(
                        active,
                        newly_congested,
                        any_cleared,
                        lambda f: provider.reroute(f, view),
                        cooldown=cfg.min_switch_interval,
                        now=now,
                        time_s=now,
                    )
                    if moved:
                        used_alt.update(f.flow_id for f in moved if f.on_alt)
                        self._reallocate(active)
                        reallocs += 1
        finally:
            solve_span.__exit__(None, None, None)
        t = tm.active()
        if t is not None:
            t.inc("flowsim.events", events)
            t.inc("flowsim.reallocations", reallocs)
            t.inc("flowsim.flows_completed", len(records))
            t.inc("flowsim.unroutable", unroutable)
            if pool is not None and pool_before is not None:
                after = pool.stats()
                delta = {k: after[k] - pool_before[k] for k in _SOLVER_STATS}
                t.event("solver_stats", solver="incremental", **delta)
            elif t is t0:
                iters = t.counters.get("flowsim.maxmin_iterations", 0) - iters_before
                zeros = dict.fromkeys(_SOLVER_STATS[1:], 0)
                t.event("solver_stats", solver="full", maxmin_iterations=iters, **zeros)
        return FluidSimResult(
            scheme=self.provider.name,
            records=records,
            duration=now,
            events=events,
            reallocations=reallocs,
            unroutable=unroutable,
        )

    # ------------------------------------------------------------------
    def _reallocate(self, active: list[Flow]) -> tuple[set[int], bool]:
        """Max-min re-solve.

        Returns ``(newly_congested_link_ids, any_link_cleared)`` so the
        reroute pass can target only the flows a transition affects.

        Both solver modes produce bit-identical rates and allocation: the
        pooled solver and :func:`~repro.flowsim.maxmin.maxmin_rates`
        accumulate the same round-ordered ``freeze_count * rate`` deltas
        (see ``repro.flowsim.incremental``).
        """
        plane = self.plane
        n_links = len(plane.links)
        plane.alloc.fill(0.0)
        if active and n_links:
            if plane.pooled:
                pool = plane.solver
                # Capacities never change here, so the vector is pushed
                # only when links were interned since the last push.
                if self._cap_len != n_links:
                    pool.set_capacity(plane.residual())
                    self._cap_len = n_links
                pool.solve()
                plane.read_load()
                rate_of = pool.rate_of
                for f in active:
                    f.rate_bps = rate_of(f.flow_id)
            else:
                incidence = build_incidence(
                    [f.link_ids for f in active], n_links
                )
                rates = maxmin_rates(
                    incidence,
                    plane.residual(),
                    unconstrained_rate=self.config.link_capacity_bps,
                    load_out=plane.alloc[:n_links],
                )
                for f, r in zip(active, rates.tolist()):
                    f.rate_bps = r
        else:
            for f in active:
                f.rate_bps = self.config.link_capacity_bps
        return plane.update_congestion()
