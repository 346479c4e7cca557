"""The dynamic-scenario driver: timelines over a live MIFO simulation.

:class:`ScenarioEngine` holds a persistent flow population on an evolving
topology and advances it through a :class:`~repro.scenario.events.ScenarioSpec`
timeline.  Each event runs the same eight-step procedure:

1. **apply** the event (topology derivative, capacity/exogenous-load
   update, or new flows) through an engine primitive;
2. **re-propagate** routing incrementally — only destinations the change
   can affect are re-converged (:class:`~repro.scenario.incremental
   .IncrementalRouting`), the rest are rebased;
3. **select the affected flows**: those crossing a removed link, those
   whose destination went dirty, those crossing a capacity-changed link,
   the event's new flows, and previously unroutable flows whose
   destination went dirty;
4. **re-route** exactly those flows through a fresh
   :class:`~repro.mifo.deflection.MifoPathBuilder` walk under the current
   congestion state;
5. **re-solve** max-min rates through the solver of the engine's
   :class:`~repro.flowsim.plane.FlowPlane` (the plane the fluid simulator
   drives too); an event that moved no path and no capacity is a memo hit
   and skips the fill;
6. **update congestion** bits with the plane's hysteresis and run the
   plane's response pass (:meth:`~repro.flowsim.plane.FlowPlane.reroute`,
   the one the fluid simulator runs too: deflect flows newly congested,
   offer resumes when something cleared) with the MIFO walk as its
   decision;
7. **re-certify**: the verifier statically re-proves loop-freedom,
   valley-freedom and FIB/RIB consistency over the dirty and
   newly-converged destinations — array-backend views by the block
   certificate of :mod:`repro.verify.certificate`, anything else by the
   dict checker's walk — and cross-checks the deflection events this
   epoch recorded (the trace ring's tail) against the epoch's own FIB
   state;
8. **record** a per-event metrics row and a ``scenario_event`` telemetry
   trace entry.

``mode="incremental"`` is the shipping path (dirty-set re-propagation +
memoized solves).  ``mode="full"`` is the reference that tests and the
``bench/`` correctness checks select: every cached destination is
re-converged and the solver's memo is defeated every event — the fill
that then runs is still the pooled one; the *cold* oracle
(:func:`~repro.flowsim.maxmin.maxmin_rates` from a fresh incidence) is
what ``crosscheck`` replays after each fill.  Both modes share steps 3–8
verbatim and both key their decisions on the *same* dirty set, so their
results are byte-identical — ``tests/scenario/test_crossvalidation.py``
asserts the serialized results agree on every built-in scenario.
"""

from __future__ import annotations

import collections
import dataclasses
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .. import telemetry as tm
from ..bgp.propagation import DEFAULT_BACKEND
from ..errors import ConfigError, NoRouteError, VerificationError
from ..flowsim.flow import Flow
from ..flowsim.incremental import IncrementalMaxMin
from ..flowsim.plane import FlowPlane, check_plane_settings
from ..measure.changepoint import DetectorConfig
from ..measure.rtt import PathRttMonitor
from ..mifo.deflection import MifoPathBuilder
from ..topology.asgraph import ASGraph
from ..topology.dynamics import with_link, without_link
from ..topology.relationships import Relationship
from ..traffic.matrix import uniform_pairs
from ..verify.checker import verify_routing
from ..verify.gate import crosscheck_trace
from .events import EngineEvent, ScenarioSpec
from .incremental import IncrementalRouting

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..flowsim.flow import FlowSpec

__all__ = ["EventEffect", "EventRecord", "ScenarioConfig", "ScenarioEngine", "ScenarioRun"]

#: salt for the per-event RNG streams of traffic events.
_EVENT_SEED_SALT = 7919


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the scenario engine (data-plane defaults match
    :class:`~repro.flowsim.simulator.FluidSimConfig`)."""

    link_capacity_bps: float = 1e9
    congest_threshold: float = 0.95
    clear_threshold: float = 0.70
    #: ``"incremental"`` (dirty-set re-propagation + memoized solves) or
    #: ``"full"`` — the reference tests compare against: re-converges
    #: every cached destination and defeats the solver memo every event
    #: (the pooled fill still runs; the cold oracle is ``crosscheck``).
    mode: str = "incremental"
    #: statically re-certify invariants over dirty destinations after
    #: every event (step 7).
    verify: bool = True
    #: additionally diff the incremental state (routing *and* the pooled
    #: max-min solver) against a from-scratch recomputation after every
    #: event (slow; tests and CI only).
    crosscheck: bool = False
    #: bound on retained :class:`EventRecord` rows (``None`` = unbounded,
    #: the batch default).  Service mode sets a finite ring so an
    #: unbounded stream holds steady memory.
    record_capacity: int | None = None
    #: congestion signal driving deflection: ``"oracle"`` (the hysteresis
    #: bits over true link load — the historical behaviour), or a
    #: measurement-driven detector over per-path RTT samples
    #: (``"threshold"`` | ``"changepoint"``, see :mod:`repro.measure`).
    detector: str = "oracle"

    def validate(self) -> None:
        """Reject inconsistent knob combinations."""
        check_plane_settings(
            self.link_capacity_bps, self.congest_threshold, self.clear_threshold
        )
        if self.mode not in ("incremental", "full"):
            raise ConfigError(
                f"scenario mode {self.mode!r} not in ('incremental', 'full')"
            )
        if self.record_capacity is not None and self.record_capacity < 1:
            raise ConfigError("record_capacity must be >= 1 when set")
        if self.detector not in ("oracle", "threshold", "changepoint"):
            raise ConfigError(
                f"detector {self.detector!r} not in "
                "('oracle', 'threshold', 'changepoint')"
            )


@dataclasses.dataclass(frozen=True)
class EventEffect:
    """What one applied event changed — drives affected-flow selection."""

    #: undirected links removed, as ``(min, max)`` pairs.
    removed: tuple[tuple[int, int], ...] = ()
    #: destinations whose routing state may have changed (sorted).
    dirty: tuple[int, ...] = ()
    #: dense directed-link indices whose capacity or exogenous load moved.
    capacity_changed: tuple[int, ...] = ()
    #: flow ids registered by this event.
    new_flows: tuple[int, ...] = ()
    #: human-readable target, e.g. ``"link 12-48"`` (for records/trace).
    target: str = ""


@dataclasses.dataclass(frozen=True)
class EventRecord:
    """Per-event metrics row of a scenario run.

    Every field is a pure function of simulation state, never of
    wall-clock or update policy, so rows are byte-identical between the
    incremental and full modes.
    """

    index: int
    time_s: float
    kind: str
    target: str
    dirty_dests: int
    flows_rerouted: int
    flows_unroutable: int
    flows_total: int
    deflected_flows: int
    congested_links: int
    verified_dests: int
    mean_rate_mbps: float
    total_throughput_gbps: float


@dataclasses.dataclass
class ScenarioRun:
    """Outcome of one scenario timeline."""

    scenario: str
    mode: str
    backend: str
    records: list[EventRecord]
    #: cumulative control-plane work — wall-clock provenance, *not* part
    #: of the determinism-checked payload (differs between modes).
    dests_recomputed: int
    dests_rebased: int
    warm_solves: int
    warm_hits: int

    @property
    def n_events(self) -> int:
        """Timeline events applied (the initial routing row excluded)."""
        return max(0, len(self.records) - 1)


class ScenarioEngine:
    """Advances a MIFO simulation through a scenario timeline.

    ``demands`` is the base (persistent) flow population; traffic events
    size themselves relative to it.  ``capable`` defaults to full MIFO
    deployment.  ``seed`` feeds the deterministic per-event RNG streams
    of :class:`~repro.scenario.events.TrafficRamp` /
    :class:`~repro.scenario.events.FlashCrowd`.
    """

    #: Checkpoint derivability: restore reconstructs
    #: the engine from captured config, then replays failed links and
    #: re-adds captured flows; none of these need serializing.
    DERIVABLE: ClassVar[dict[str, str]] = {
        "graph": "rebuilt by failed-link replay against the base topology",
        "spec": "constructor argument; restore constructs the engine anew",
        "seed": "constructor argument; round-trips via captured config",
        "capable": "derived from graph nodes (full deployment) at construction",
        "_base_demand": "derived from the demands argument at construction",
    }

    def __init__(
        self,
        graph: ASGraph,
        demands: "Sequence[FlowSpec]",
        spec: ScenarioSpec,
        *,
        backend: str = DEFAULT_BACKEND,
        capable: frozenset[int] | None = None,
        seed: int = 2014,
        config: ScenarioConfig | None = None,
    ) -> None:
        spec.validate()
        self.config = config or ScenarioConfig()
        self.config.validate()
        self.graph = graph
        self.spec = spec
        self.seed = seed
        self.capable = capable if capable is not None else frozenset(graph.nodes())
        self.routing = IncrementalRouting(
            graph,
            backend=backend,
            recompute="dirty" if self.config.mode == "incremental" else "all",
        )
        cfg = self.config
        #: per-link state and the one pooled solver; ``group_rtol=0`` is
        #: the value the ``serve`` checkpoints were recorded at.
        self.plane = FlowPlane(
            cfg.link_capacity_bps, cfg.congest_threshold, cfg.clear_threshold, group_rtol=0.0
        )
        #: flow id -> flow, insertion order == ascending flow id.
        self._flows: dict[int, Flow] = {}
        for d in demands:
            if d.flow_id in self._flows:
                raise ConfigError(f"duplicate flow id {d.flow_id} in demands")
            self._flows[d.flow_id] = Flow(d.flow_id, d.src, d.dst)
        self._base_demand = max(1, len(demands))
        self._next_flow_id = 1 + max((d.flow_id for d in demands), default=-1)
        #: failed links, most recent last: (u, v, relationship of v from u).
        self._failed: list[tuple[int, int, Relationship]] = []
        self._event_no = -1  # the initial routing pass is epoch 0
        #: per-path RTT monitor when a measurement-driven detector is
        #: selected; ``None`` keeps the oracle path byte-identical to
        #: pre-measurement behaviour (no sampling, no monitor).
        self._rtt: PathRttMonitor | None = None
        if self.config.detector != "oracle":
            self._rtt = PathRttMonitor(
                seed, config=DetectorConfig(mode=self.config.detector)
            )
        #: per-event metrics rows; a bounded ring when the config caps it.
        self.records: collections.deque[EventRecord] = collections.deque(
            maxlen=self.config.record_capacity
        )

    @property
    def solver(self) -> IncrementalMaxMin:
        """The plane's pooled max-min solver."""
        return self.plane.solver

    # ------------------------------------------------------------------
    # symbolic target resolution (deterministic)
    # ------------------------------------------------------------------
    def pick_link(self, strategy: str) -> tuple[int, int]:
        """Resolve a symbolic link target against live simulation state.

        ``"busiest"`` — the link crossed by the most currently routed
        flows; ties break toward the smallest ``(u, v)`` pair; with no
        routed flows, falls back to the link with the highest endpoint
        degree sum.  ``"edge-peering"`` — the peering link with the
        smallest endpoint degree sum (edge links churn most in practice,
        and a peering between small ASes carries exports only for their
        customer cones, so its dirty set is tiny — the incremental
        engine's best case).  ``"mid-load"`` — among links carried by at
        least one routed flow, the one whose utilisation is closest to
        50% (headroom to visibly congest: the busiest link under max-min
        often already sits at capacity, so adding exogenous load there
        moves neither the oracle bits nor the RTT observable).
        ``"loaded"`` — the link carrying the most exogenous load (the
        natural target for a clear event).  Resolution depends only on
        simulation state, so both update modes pick identical targets.
        """
        plane = self.plane
        if strategy == "mid-load":
            pairs = list(plane.links)
            util = plane.utilization()
            used = {idx for f in self._flows.values() for idx in f.link_ids}
            if not used:
                return self.pick_link("busiest")
            best = min(used, key=lambda i: (abs(float(util[i]) - 0.5), pairs[i]))
            return pairs[best]
        if strategy == "loaded":
            loaded = [
                (float(plane.exo_frac[idx]), (u, v))
                for (u, v), idx in plane.links.items()
                if plane.exo_frac[idx] > 0
            ]
            if not loaded:
                raise ConfigError("no exogenously loaded link to pick")
            return max(loaded, key=lambda e: (e[0], (-e[1][0], -e[1][1])))[1]
        if strategy == "busiest":
            counts: dict[tuple[int, int], int] = {}
            for f in self._flows.values():
                path = f.path or ()
                for a, b in zip(path, path[1:]):
                    key = (a, b) if a <= b else (b, a)
                    counts[key] = counts.get(key, 0) + 1
            if counts:
                return min(counts, key=lambda k: (-counts[k], k))
        elif strategy != "edge-peering":
            raise ConfigError(f"unknown link pick strategy {strategy!r}")
        links = self.graph.links()
        if not links:
            raise ConfigError("graph has no links to pick from")
        deg = {n: len(self.graph.neighbors(n)) for n in self.graph.nodes()}
        if strategy == "edge-peering":
            pool = [(u, v) for u, v, rel in links if rel is Relationship.PEER] or [
                (u, v) for u, v, _ in links
            ]
            return min(pool, key=lambda lk: (deg[lk[0]] + deg[lk[1]], lk))
        u, v, _ = min(links, key=lambda lk: (-(deg[lk[0]] + deg[lk[1]]), lk[:2]))
        return u, v

    def pick_popular_dst(self) -> int:
        """The destination currently attracting the most flows (ties break
        toward the smallest ASN)."""
        counts: dict[int, int] = {}
        for f in self._flows.values():
            counts[f.dst] = counts.get(f.dst, 0) + 1
        if not counts:
            return min(self.graph.nodes())
        return min(counts, key=lambda d: (-counts[d], d))

    def frac_to_count(self, frac: float) -> int:
        """Flow count for a traffic event sized as a fraction of the base
        demand population."""
        return max(1, int(round(self._base_demand * frac)))

    def _event_rng(self) -> np.random.Generator:
        # One independent, deterministic stream per timeline position.
        return np.random.default_rng(
            self.seed + _EVENT_SEED_SALT * (self._event_no + 1)
        )

    # ------------------------------------------------------------------
    # event primitives (called by ScenarioEvent.apply)
    # ------------------------------------------------------------------
    def fail_link(self, u: int, v: int) -> EventEffect:
        """Remove link ``u``–``v``; remembers it for later recovery."""
        rel = self.graph.relationship(u, v)
        with tm.span("topology.derive"):
            new_graph = without_link(self.graph, u, v)
        dirty = self.routing.advance(new_graph, u, v)
        self.graph = new_graph
        self._failed.append((u, v, rel))
        lo, hi = (u, v) if u <= v else (v, u)
        return EventEffect(
            removed=((lo, hi),), dirty=dirty, target=f"link {lo}-{hi}"
        )

    def recover_link(self, u: int | None = None, v: int | None = None) -> EventEffect:
        """Restore a failed link with its original relationship.

        With explicit endpoints, restores that specific link (it must be
        on the failed stack); otherwise restores the most recent failure.
        """
        if not self._failed:
            raise ConfigError("no failed link to recover")
        if u is None or v is None:
            fu, fv, rel = self._failed.pop()
        else:
            want = {u, v}
            pos = next(
                (
                    i
                    for i in range(len(self._failed) - 1, -1, -1)
                    if {self._failed[i][0], self._failed[i][1]} == want
                ),
                None,
            )
            if pos is None:
                raise ConfigError(f"link {u}-{v} is not currently failed")
            fu, fv, rel = self._failed.pop(pos)
        with tm.span("topology.derive"):
            new_graph = with_link(self.graph, fu, fv, rel)
        dirty = self.routing.advance(new_graph, fu, fv)
        self.graph = new_graph
        lo, hi = (fu, fv) if fu <= fv else (fv, fu)
        return EventEffect(dirty=dirty, target=f"link {lo}-{hi}")

    def scale_capacity(self, u: int, v: int, factor: float) -> EventEffect:
        """Set both directions of ``u``–``v`` to ``factor`` × base capacity
        (``factor`` finite and >= 0, else :class:`ConfigError`)."""
        changed = self.plane.scale_link(u, v, factor)
        lo, hi = (u, v) if u <= v else (v, u)
        return EventEffect(capacity_changed=changed, target=f"link {lo}-{hi} x{factor:g}")

    def set_exogenous_load(self, u: int, v: int, utilization: float) -> EventEffect:
        """Set scripted cross-traffic on both directions of ``u``–``v``."""
        changed = self.plane.load_link(u, v, utilization)
        lo, hi = (u, v) if u <= v else (v, u)
        return EventEffect(capacity_changed=changed, target=f"link {lo}-{hi} @{utilization:g}")

    def observe_only(self) -> EventEffect:
        """A no-op event primitive (backs ``MeasureTick``): advances the
        epoch without perturbing the network, so the measurement pass
        takes exactly one RTT sample per active path."""
        return EventEffect(target="measure")

    def _register_flows(self, pairs: list[tuple[int, int]]) -> tuple[int, ...]:
        ids = []
        for src, dst in pairs:
            fid = self._next_flow_id
            self._next_flow_id += 1
            self._flows[fid] = Flow(fid, src, dst)
            ids.append(fid)
        return tuple(ids)

    def add_uniform_flows(self, n: int) -> EventEffect:
        """Register ``n`` uniformly sampled persistent flows."""
        rng = self._event_rng()
        ids = self._register_flows(uniform_pairs(self.graph, n, rng))
        return EventEffect(new_flows=ids, target=f"{n} flows")

    def add_crowd_flows(self, n: int, dst: int) -> EventEffect:
        """Register ``n`` flows from random sources toward one destination."""
        if dst not in self.graph:
            raise ConfigError(f"flash crowd destination AS {dst} not in graph")
        rng = self._event_rng()
        nodes = np.fromiter(
            (x for x in self.graph.nodes() if x != dst), dtype=np.int64
        )
        srcs = rng.choice(nodes, size=n)
        ids = self._register_flows([(int(s), dst) for s in srcs])
        return EventEffect(new_flows=ids, target=f"{n} flows -> AS {dst}")

    def add_explicit_flows(
        self, pairs: Sequence[tuple[int, int]]
    ) -> EventEffect:
        """Register explicit ``(src, dst)`` persistent flows.

        The streaming service's arrival path: the caller (not a seeded
        engine stream) supplies the endpoints, so replay after a restore
        reproduces the identical population.
        """
        for src, dst in pairs:
            if src == dst:
                raise ConfigError(f"flow endpoints coincide (AS {src})")
            if src not in self.graph or dst not in self.graph:
                raise ConfigError(f"flow {src}->{dst} references unknown AS")
        ids = self._register_flows(list(pairs))
        return EventEffect(new_flows=ids, target=f"{len(ids)} flows")

    def retire_flows(self, flow_ids: Sequence[int]) -> EventEffect:
        """Drop completed flows from the population and the solver.

        The freed capacity is reflected by the unconditional re-solve in
        the same step; surviving flows keep their paths (max-min rates
        only grow when competitors leave, so nothing needs re-routing).
        """
        for fid in flow_ids:
            f = self._flows.pop(fid, None)
            if f is None:
                raise ConfigError(f"cannot retire unknown flow {fid}")
            self.plane.place(f, None, False)
            if self._rtt is not None:
                self._rtt.drop_flow(fid)
        return EventEffect(target=f"retired {len(flow_ids)} flows")

    # ------------------------------------------------------------------
    # state accessors (service checkpointing)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Index of the last processed event (-1 before epoch 0)."""
        return self._event_no

    @property
    def next_flow_id(self) -> int:
        """The id the next registered flow will receive."""
        return self._next_flow_id

    @property
    def n_flows(self) -> int:
        """Flows currently in the population (routable or not)."""
        return len(self._flows)

    @property
    def failed_links(self) -> tuple[tuple[int, int, Relationship], ...]:
        """Currently failed links, oldest first, with their original
        relationships — replaying these against the base topology
        reconstructs the live graph exactly."""
        return tuple(self._failed)

    # ------------------------------------------------------------------
    # the per-event procedure
    # ------------------------------------------------------------------
    def _affected_flows(self, effect: EventEffect) -> list[Flow]:
        dirty = set(effect.dirty)
        removed = set(effect.removed)
        changed = set(effect.capacity_changed)
        new = set(effect.new_flows)
        out = []
        for f in self._flows.values():
            if f.flow_id in new:
                out.append(f)
            elif f.path is None:
                # Previously unroutable: retry only when its destination's
                # routing state may have changed.
                if f.dst in dirty:
                    out.append(f)
            elif removed and any(
                ((a, b) if a <= b else (b, a)) in removed
                for a, b in zip(f.path, f.path[1:])
            ):
                out.append(f)
            elif f.dst in dirty:
                out.append(f)
            elif changed and not changed.isdisjoint(f.link_ids):
                out.append(f)
        return out

    def _walker(self) -> Callable[[Flow], tuple[tuple[int, ...] | None, bool]]:
        """This epoch's routing decision: a flow's MIFO walk under the
        plane's current signals (a ``None`` path when it has no route)."""
        builder = MifoPathBuilder(
            self.graph, self.routing, self.capable, event_fields={"epoch": self._event_no}
        )
        signals = self.plane.is_congested, self.plane.spare

        def walk(f: Flow) -> tuple[tuple[int, ...] | None, bool]:
            try:
                outcome = builder.build_path(f.src, f.dst, *signals)
            except NoRouteError:
                return None, False
            return outcome.path, outcome.used_alternative

        return walk

    def _solve(self) -> None:
        plane = self.plane
        solver = plane.solver
        solver.set_capacity(plane.residual())
        if self.config.mode == "full":
            solver.invalidate()
        if solver.pending:
            tm.inc("flowsim.warm_solves")
            with tm.span("flowsim.solve"):
                solver.solve()
            if self.config.crosscheck:
                solver.crosscheck()
        else:
            solver.solve()  # memo hit: books the rounds not replayed
            tm.inc("flowsim.warm_hits")
        for f in self._flows.values():
            f.rate_bps = solver.rate_of(f.flow_id) if f.path is not None else 0.0
        plane.read_load()

    def _observe_rtt(self) -> set[int]:
        """Sample every routed flow's path RTT, push into the per-flow
        detectors, and emit ``rtt_sample`` / ``changepoint`` trace
        events.  Returns the flows with a confirmed *upward* shift —
        the deflection candidates of this epoch."""
        mon = self._rtt
        assert mon is not None
        util = self.plane.utilization()
        np.clip(util, 0.0, 1.0, out=util)
        flows = [
            (f.flow_id, f.link_ids)
            for f in self._flows.values()
            if f.path is not None
        ]
        samples, alarms = mon.observe_epoch(
            self._event_no, flows, list(self.plane.links), util
        )
        t = tm.active()
        if t is not None:
            detector = self.config.detector
            for s in samples:
                t.event(
                    "rtt_sample",
                    flow=s.flow_id,
                    rtt_ms=s.rtt_ms,
                    epoch=self._event_no,
                    detector=detector,
                )
            for a in alarms:
                t.event(
                    "changepoint",
                    flow=a.flow_id,
                    epoch=a.epoch,
                    cp_epoch=a.cp_epoch,
                    direction=a.direction,
                    rtt_ms=a.after_ms,
                    detector=detector,
                )
        tm.inc("measure.rtt_samples", len(samples))
        if alarms:
            tm.inc("measure.alarms", len(alarms))
        return {a.flow_id for a in alarms if a.direction == "up"}

    def _certify(
        self,
        dirty: tuple[int, ...],
        converged_before: frozenset[int],
        trace_mark: int,
    ) -> int:
        """Step 7: re-prove invariants over destinations this event could
        have perturbed, and cross-check the epoch's recorded deflections
        against the epoch's own FIB state."""
        scope = set(dirty)
        scope.update(
            d for d in self.routing.cached_destinations() if d not in converged_before
        )
        if scope:
            with tm.span("scenario.verify"):
                report = verify_routing(
                    self.graph,
                    self.routing,
                    sorted(scope),
                    capable=self.capable,
                )
            if not report.ok:
                raise VerificationError(report)
        t = tm.active()
        if t is not None:
            problems = crosscheck_trace(
                self.graph,
                self.routing,
                t.events_since(trace_mark),
                capable=self.capable,
                skip_epoch_tagged=False,
            )
            if problems:
                raise VerificationError(
                    "scenario epoch trace disagrees with FIB state:\n  "
                    + "\n  ".join(problems)
                )
        return len(scope)

    def step(
        self,
        when: float,
        event: EngineEvent | None = None,
        *,
        verify: bool | None = None,
    ) -> None:
        """Apply one timeline event (``None`` = the epoch-0 initial
        routing of the base population) and run the full per-event
        procedure.  :meth:`run` drives this; benchmarks call it directly
        to time event processing separately from the initial routing.
        ``verify`` overrides the config's re-certification knob for this
        one event (the service certifies on a sampling cadence)."""
        self._event_no += 1
        t = tm.active()
        trace_mark = t.events_total if t is not None else 0
        with tm.span("scenario.event"):
            if event is None:  # epoch 0: route the base population
                effect = EventEffect(
                    new_flows=tuple(self._flows), target="initial routing"
                )
                kind = "initial"
            else:
                effect = event.apply(self)
                kind = event.kind
            converged_before = frozenset(self.routing.cached_destinations())

            walk = self._walker()
            rerouted = sum(self.plane.place(f, *walk(f)) for f in self._affected_flows(effect))
            self._solve()
            trigger, any_cleared = self.plane.update_congestion()
            if self._rtt is not None:
                # Measurement-driven loop: the hysteresis bits above still
                # steer *where* alternatives go (the builder consults
                # them), but *when* to deflect is decided by the RTT
                # detector.  One sample per path per epoch — responses do
                # not re-sample, mirroring a real measurement cadence.
                trigger = self._observe_rtt()
            if self.plane.reroute(
                self._flows.values(),
                trigger,
                any_cleared,
                walk,
                by_flow=self._rtt is not None,
                epoch=self._event_no,
            ):
                self._solve()
                self.plane.update_congestion()

            verified = 0
            do_verify = self.config.verify if verify is None else verify
            if do_verify:
                verified = self._certify(effect.dirty, converged_before, trace_mark)
            if self.config.crosscheck:
                self.routing.crosscheck()

            self._record(when, kind, effect, rerouted, verified)

    def _record(
        self,
        when: float,
        kind: str,
        effect: EventEffect,
        rerouted: int,
        verified: int,
    ) -> None:
        routed = [f for f in self._flows.values() if f.path is not None]
        unroutable = len(self._flows) - len(routed)
        total_bps = float(sum(f.rate_bps for f in routed))
        record = EventRecord(
            index=self._event_no,
            time_s=when,
            kind=kind,
            target=effect.target,
            dirty_dests=len(effect.dirty),
            flows_rerouted=rerouted,
            flows_unroutable=unroutable,
            flows_total=len(self._flows),
            deflected_flows=sum(f.on_alt for f in routed),
            congested_links=int(self.plane.congested.sum()),
            verified_dests=verified,
            mean_rate_mbps=(total_bps / len(routed) / 1e6) if routed else 0.0,
            total_throughput_gbps=total_bps / 1e9,
        )
        self.records.append(record)
        tm.inc("scenario.events")
        tm.event(
            "scenario_event",
            time_s=when,
            event=kind,
            target=effect.target,
            epoch=self._event_no,
            dirty=len(effect.dirty),
            rerouted=rerouted,
            unroutable=unroutable,
        )

    # ------------------------------------------------------------------
    def run(self) -> ScenarioRun:
        """Route the base population, then play the whole timeline."""
        with tm.span("scenario.run"):
            self.step(0.0, None)
            for when, ev in self.spec.timeline:
                self.step(when, ev)
        return ScenarioRun(
            scenario=self.spec.name,
            mode=self.config.mode,
            backend=self.routing.backend,
            records=list(self.records),
            dests_recomputed=self.routing.dests_recomputed,
            dests_rebased=self.routing.dests_rebased,
            warm_solves=self.solver.solves,
            warm_hits=self.solver.hits,
        )
