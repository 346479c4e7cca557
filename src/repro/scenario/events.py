"""Scenario event vocabulary, timelines, and the built-in scenarios.

A scenario is a named, deterministic timeline of :class:`ScenarioEvent`
occurrences applied to a running simulation by
:class:`~repro.scenario.engine.ScenarioEngine`.  Events never touch
engine internals directly — each one calls a small set of engine
primitives (``fail_link``, ``recover_link``, ``scale_capacity``,
``set_exogenous_load``, ``add_flows``) so the engine remains the single
owner of simulation state.

Events may name their target link/AS **symbolically** (``pick="busiest"``)
instead of by concrete ASN, because the synthetic topologies differ per
scale and seed; symbolic targets are resolved deterministically against
the live simulation state at application time, so the built-in scenarios
are meaningful at every scale.  Flow-count events size themselves as a
``frac``-tion of the engine's base demand count for the same reason.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Protocol, Union

from ..errors import ConfigError
from ..flowsim.plane import check_capacity_factor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import EventEffect, ScenarioEngine

__all__ = [
    "EngineEvent",
    "LinkFail",
    "LinkRecover",
    "CapacityScale",
    "TrafficRamp",
    "FlashCrowd",
    "CongestionOnset",
    "MeasureTick",
    "ScenarioEvent",
    "ScenarioSpec",
    "SCENARIOS",
    "get_scenario",
]


class EngineEvent(Protocol):
    """Structural type of anything the scenario engine can apply.

    An event carries a ``kind`` label (for records and the telemetry
    trace) and an ``apply`` that mutates simulation state exclusively
    through engine primitives, returning the :class:`EventEffect` that
    drives affected-flow selection.  The built-in scenario vocabulary
    below satisfies it, as do the streaming events of
    :mod:`repro.service.stream`.
    """

    @property
    def kind(self) -> str:
        """Event-kind label recorded per event."""
        ...

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Apply the event through engine primitives."""
        ...


def _resolve_link(
    engine: "ScenarioEngine", u: int | None, v: int | None, pick: str | None
) -> tuple[int, int]:
    """Resolve an event's target link: explicit endpoints win over ``pick``."""
    if u is not None and v is not None:
        return u, v
    if pick is None:
        raise ConfigError("event needs either explicit (u, v) or a pick strategy")
    return engine.pick_link(pick)


@dataclasses.dataclass(frozen=True)
class LinkFail:
    """Remove one inter-AS link from the topology.

    Target by explicit ``(u, v)`` or symbolically via ``pick``
    (``"busiest"`` = the live link crossed by the most flows;
    ``"edge-peering"`` = the smallest-degree peering link).  The link's
    relationship is remembered so a later :class:`LinkRecover` can
    restore it exactly.
    """

    u: int | None = None
    v: int | None = None
    pick: str | None = "busiest"
    kind = "link_fail"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Resolve the target and fail it through the engine."""
        u, v = _resolve_link(engine, self.u, self.v, self.pick)
        return engine.fail_link(u, v)


@dataclasses.dataclass(frozen=True)
class LinkRecover:
    """Restore a previously failed link (default: the most recent one)."""

    u: int | None = None
    v: int | None = None
    kind = "link_recover"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Re-insert the link with its original business relationship."""
        return engine.recover_link(self.u, self.v)


@dataclasses.dataclass(frozen=True)
class CapacityScale:
    """Multiply the capacity of one link (both directions) by ``factor``.

    ``factor`` is absolute w.r.t. the base capacity, not cumulative:
    ``CapacityScale(factor=1.0)`` always restores the nominal capacity.
    """

    factor: float
    u: int | None = None
    v: int | None = None
    pick: str | None = "busiest"
    kind = "capacity_scale"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Resolve the target link and rescale its capacity."""
        check_capacity_factor(self.factor)  # before the engine is consulted
        u, v = _resolve_link(engine, self.u, self.v, self.pick)
        return engine.scale_capacity(u, v, self.factor)


@dataclasses.dataclass(frozen=True)
class TrafficRamp:
    """Add a batch of uniformly sampled persistent flows.

    ``frac`` sizes the batch relative to the engine's base demand count
    (``frac=0.5`` adds half as many flows again), so ramps scale with the
    experiment.  Sampling is seeded from the scenario seed and the event's
    position in the timeline — fully deterministic.
    """

    frac: float = 0.25
    kind = "traffic_ramp"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Sample and register the new flows."""
        if self.frac <= 0.0:
            raise ConfigError(f"traffic ramp frac {self.frac} must be > 0")
        return engine.add_uniform_flows(engine.frac_to_count(self.frac))


@dataclasses.dataclass(frozen=True)
class FlashCrowd:
    """Add many flows converging on one destination AS.

    ``dst=None`` targets the destination already attracting the most
    flows (ties broken toward the smallest ASN) — the "popular content
    suddenly hotter" case the paper motivates MIFO with.
    """

    frac: float = 0.5
    dst: int | None = None
    kind = "flash_crowd"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Sample sources and register the crowd's flows."""
        if self.frac <= 0.0:
            raise ConfigError(f"flash crowd frac {self.frac} must be > 0")
        dst = self.dst if self.dst is not None else engine.pick_popular_dst()
        return engine.add_crowd_flows(engine.frac_to_count(self.frac), dst)


@dataclasses.dataclass(frozen=True)
class CongestionOnset:
    """Scripted exogenous load on one link (both directions).

    ``utilization`` is the fraction of the link's *current* capacity
    consumed by traffic outside the simulated flow set (cross traffic);
    the max-min solver sees only the residual.  ``utilization=0`` clears
    the onset.  This reproduces "congestion appears on the default path"
    without having to engineer a workload that happens to cause it.
    """

    utilization: float
    u: int | None = None
    v: int | None = None
    pick: str | None = "busiest"
    kind = "congestion_onset"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Resolve the target link and set its exogenous load."""
        if not 0.0 <= self.utilization <= 1.0:
            raise ConfigError(
                f"utilization {self.utilization} outside [0, 1]"
            )
        u, v = _resolve_link(engine, self.u, self.v, self.pick)
        return engine.set_exogenous_load(u, v, self.utilization)


@dataclasses.dataclass(frozen=True)
class MeasureTick:
    """Advance one measurement epoch without perturbing the network.

    The engine takes exactly one RTT sample per active path per epoch
    (when a measurement-driven detector is enabled), so a run of ticks
    between perturbations is how a scenario scripts a measurement
    cadence — each tick grows every per-flow series by one sample.
    Under the oracle detector a tick is a pure no-op event.
    """

    kind = "measure_tick"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Advance the epoch through the engine's no-op primitive."""
        return engine.observe_only()


ScenarioEvent = Union[
    LinkFail,
    LinkRecover,
    CapacityScale,
    TrafficRamp,
    FlashCrowd,
    CongestionOnset,
    MeasureTick,
]


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A named timeline: ``(time_s, event)`` pairs, ascending in time."""

    name: str
    description: str
    timeline: tuple[tuple[float, ScenarioEvent], ...]

    def validate(self) -> None:
        """Reject unordered or negative-time timelines."""
        last = 0.0
        for t, _ in self.timeline:
            if t < last:
                raise ConfigError(
                    f"scenario {self.name!r}: timeline times must be "
                    f"non-decreasing and >= 0 (got {t} after {last})"
                )
            last = t


def _rtt_replay_timeline() -> tuple[tuple[float, ScenarioEvent], ...]:
    """Timeline of ``rtt_replay``: 8 measurement ticks either side of
    each planted shift, at one event per second."""
    events: list[ScenarioEvent] = []
    events.extend(MeasureTick() for _ in range(8))
    events.append(CongestionOnset(utilization=0.9, pick="mid-load"))
    events.extend(MeasureTick() for _ in range(8))
    events.append(CongestionOnset(utilization=0.0, pick="loaded"))
    events.extend(MeasureTick() for _ in range(8))
    events.append(CongestionOnset(utilization=0.85, pick="mid-load"))
    events.extend(MeasureTick() for _ in range(8))
    return tuple((float(i + 1), ev) for i, ev in enumerate(events))


SCENARIOS: dict[str, ScenarioSpec] = {
    "link_flap": ScenarioSpec(
        "link_flap",
        "The busiest link fails, recovers, and fails again — the classic "
        "interdomain churn case; exercises dirty-set re-propagation in "
        "both directions.",
        (
            (1.0, LinkFail()),
            (2.0, LinkRecover()),
            (3.0, LinkFail()),
            (4.0, LinkRecover()),
        ),
    ),
    "edge_flap": ScenarioSpec(
        "edge_flap",
        "A small peering link at the network edge flaps twice — where "
        "real interdomain churn concentrates; most destinations are "
        "provably unaffected, so the incremental engine rebases instead "
        "of recomputing (the micro-benchmark's speedup case).",
        (
            (1.0, LinkFail(pick="edge-peering")),
            (2.0, LinkRecover()),
            (3.0, LinkFail(pick="edge-peering")),
            (4.0, LinkRecover()),
        ),
    ),
    "flash_crowd": ScenarioSpec(
        "flash_crowd",
        "Traffic ramps 25%, then a flash crowd doubles the flow count "
        "toward the most popular destination — congestion emerges and "
        "MIFO deflects around it.",
        (
            (1.0, TrafficRamp(frac=0.25)),
            (2.0, FlashCrowd(frac=1.0)),
        ),
    ),
    "degrade": ScenarioSpec(
        "degrade",
        "The busiest link degrades to half, then a quarter, of its "
        "capacity before being restored — brownout rather than blackout.",
        (
            (1.0, CapacityScale(factor=0.5)),
            (2.0, CapacityScale(factor=0.25)),
            (3.0, CapacityScale(factor=1.0)),
        ),
    ),
    "congestion_onset": ScenarioSpec(
        "congestion_onset",
        "Exogenous cross traffic consumes 90% of the busiest link, then "
        "clears — the paper's 'congestion appears on the default path' "
        "trigger, scripted.",
        (
            (1.0, CongestionOnset(utilization=0.9)),
            (3.0, CongestionOnset(utilization=0.0)),
        ),
    ),
    "rtt_replay": ScenarioSpec(
        "rtt_replay",
        "Measurement-cadence replay with planted RTT regime shifts: "
        "quiet measurement ticks around three exogenous-load events on "
        "mid-utilisation links (onset, clear, second onset).  Ground "
        "truth for scoring changepoint detectors lives at the "
        "congestion_onset epochs (9, 18, 27).",
        _rtt_replay_timeline(),
    ),
}


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a built-in scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
