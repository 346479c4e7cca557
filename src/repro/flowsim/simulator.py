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

After every event that flips some link's congestion state, the provider
(MIFO only) is offered reroutes; moved flows immediately update the
allocation estimate so later decisions in the same pass see the shifting
load (routers react packet-by-packet, not in synchronized rounds).
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from .. import telemetry as tm
from ..errors import NoRouteError, SimulationError
from ..topology.asgraph import ASGraph
from .flow import ActiveFlow, FlowRecord, FlowSpec
from .maxmin import build_incidence, maxmin_rates
from .plane import FlowPlane
from .providers import LinkView, PathProvider

__all__ = ["FluidSimConfig", "FluidSimResult", "FluidSimulator"]

#: a flow with at most this many bytes left completes.
_COMPLETION_TOL_BYTES = 1.0
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
        if self.link_capacity_bps <= 0:
            raise SimulationError("link capacity must be positive")
        if not 0.0 < self.clear_threshold <= self.congest_threshold <= 1.0:
            raise SimulationError(
                "need 0 < clear_threshold <= congest_threshold <= 1"
            )
        if self.solver not in ("incremental", "full"):
            raise SimulationError(
                f"solver {self.solver!r} not in ('incremental', 'full')"
            )


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
        self.plane = FlowPlane(
            cfg.link_capacity_bps, cfg.congest_threshold, cfg.clear_threshold, group_rtol=1e-3
        )
        #: whether fills go through the plane's pooled solver (else the
        #: cold ``maxmin_rates`` reference runs every event).
        self._pooled = cfg.solver == "incremental"
        self._cap_len = -1  # links covered by the solver's capacity vector
        # Stale control-plane snapshot (see control_plane_interval).
        self._stale_congested = np.zeros(0, dtype=bool)
        self._stale_alloc = np.zeros(0)
        self._next_cp_refresh = 0.0

    # ------------------------------------------------------------------
    # the stale control-plane view handed to providers
    # ------------------------------------------------------------------
    def _stale_congested_fn(self, u: int, v: int) -> bool:
        idx = self.plane.links.get((u, v))
        if idx is None or idx >= self._stale_congested.shape[0]:
            return False
        return bool(self._stale_congested[idx])

    def _stale_spare_fn(self, u: int, v: int) -> float:
        idx = self.plane.links.get((u, v))
        if idx is None or idx >= self._stale_alloc.shape[0]:
            return self.config.link_capacity_bps
        return max(0.0, self.config.link_capacity_bps - float(self._stale_alloc[idx]))

    def _maybe_refresh_control_plane(self, now: float) -> None:
        if now >= self._next_cp_refresh:
            self._stale_congested = self.plane.congested.copy()
            self._stale_alloc = self.plane.alloc.copy()
            self._next_cp_refresh = now + self.config.control_plane_interval

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, specs: list[FlowSpec]) -> FluidSimResult:
        """Simulate ``specs`` to completion and collect records."""
        cfg = self.config
        plane = self.plane
        pool = plane.solver if self._pooled else None
        order = sorted(specs, key=lambda s: (s.start_time, s.flow_id))
        view = LinkView(
            congested=plane.is_congested,
            spare=plane.spare,
            stale_congested=self._stale_congested_fn,
            stale_spare=self._stale_spare_fn,
        )
        active: list[ActiveFlow] = []
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

        def next_completion() -> float:
            best = math.inf
            for f in active:
                if f.rate > 0.0:
                    best = min(best, f.remaining / f.rate)
            return best

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
                dt_fin = next_completion()
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
                    for f in active:
                        f.remaining -= f.rate * dt
                now = t_next

                # Completions (``active`` stays flow-id ordered: filtering
                # preserves order).
                still = []
                for f in active:
                    if f.remaining <= _COMPLETION_TOL_BYTES:
                        records.append(f.finalize(now))
                        if pool is not None:
                            pool.remove_flow(f.spec.flow_id)
                    else:
                        still.append(f)
                active = still

                # Refresh the control-plane snapshot if its interval elapsed.
                self._maybe_refresh_control_plane(now)

                # Arrivals due now.
                while i < len(order) and order[i].start_time <= now + 1e-12:
                    spec = order[i]
                    i += 1
                    try:
                        path, on_alt = self.provider.initial_path(spec, view)
                    except NoRouteError:
                        if cfg.skip_unroutable:
                            unroutable += 1
                            continue
                        raise
                    flow = ActiveFlow(spec, path, plane.intern_path(path), on_alt)
                    # Keep ``active`` ordered by flow id at insertion so
                    # the reroute pass never re-sorts it.
                    bisect.insort(active, flow, key=lambda f: f.spec.flow_id)
                    if pool is not None:
                        pool.add_flow(spec.flow_id, flow.link_ids)

                # Re-solve rates, update congestion, offer reroutes on flips.
                newly_congested, any_cleared = self._reallocate(active)
                reallocs += 1
                if (newly_congested or any_cleared) and self.provider.supports_reroute and active:
                    if self._offer_reroutes(active, now, view, newly_congested, any_cleared):
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
                t.event(
                    "solver_stats",
                    solver="incremental",
                    **{k: after[k] - pool_before[k] for k in _SOLVER_STATS},
                )
            elif t is t0:
                t.event(
                    "solver_stats",
                    solver="full",
                    maxmin_iterations=t.counters.get(
                        "flowsim.maxmin_iterations", 0
                    )
                    - iters_before,
                    pool_hits=0,
                    cols_reused=0,
                    warm_rounds_saved=0,
                )
        return FluidSimResult(
            scheme=self.provider.name,
            records=records,
            duration=now,
            events=events,
            reallocations=reallocs,
            unroutable=unroutable,
        )

    # ------------------------------------------------------------------
    def _reallocate(self, active: list[ActiveFlow]) -> tuple[set[int], bool]:
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
            if self._pooled:
                pool = plane.solver
                # Capacities never change here, so the vector is pushed
                # only when links were interned since the last push.
                if self._cap_len != n_links:
                    pool.set_capacity(plane.residual())
                    self._cap_len = n_links
                pool.solve()
                plane.read_load()
                for f in active:
                    f.rate = pool.rate_of(f.spec.flow_id) / 8.0
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
                rates_bytes = rates / 8.0
                for f, r in zip(active, rates_bytes):
                    f.rate = float(r)
        else:
            for f in active:
                f.rate = self.config.link_capacity_bps / 8.0
        return plane.update_congestion()

    def _offer_reroutes(
        self,
        active: list[ActiveFlow],
        now: float,
        view: LinkView,
        newly_congested: set[int],
        any_cleared: bool,
    ) -> bool:
        """One reroute pass; moved flows shift the allocation estimate so
        later decisions in the pass see the evolving load.

        A flow is only consulted if the transition can affect it: a flow on
        its default path reacts to links that just congested *on its own
        path*; a deflected flow reconsiders only when some link cleared
        (its resume test re-checks the whole default path anyway).  The
        per-flow switch cooldown models the router's reaction interval.

        ``active`` is maintained in flow-id order by the main loop, so the
        deterministic consult order costs no per-pass sort.
        """
        interval = self.config.min_switch_interval
        moved = False
        for f in active:
            if now - f.last_switch_time < interval:
                continue
            if f.on_alt:
                if not any_cleared:
                    continue
            elif newly_congested.isdisjoint(f.link_ids):
                continue
            decision = self.provider.reroute(f, view)
            if decision is None:
                continue
            path, on_alt = decision
            if path == f.path:
                continue
            new_ids = self.plane.intern_path(path)
            # ``f.rate`` is bytes/s; the allocation estimate is bps.
            self.plane.shift(f.link_ids, new_ids, f.rate * 8.0)
            f.switch_to(path, new_ids, on_alt, now)
            if self._pooled:
                self.plane.solver.move_flow(f.spec.flow_id, new_ids)
            t = tm.active()
            if t is not None:
                t.event(
                    "path_switch",
                    flow=f.spec.flow_id,
                    src=f.spec.src,
                    dst=f.spec.dst,
                    on_alt=on_alt,
                    cause="congested_link" if on_alt else "resume",
                    time_s=now,
                )
            moved = True
        return moved
