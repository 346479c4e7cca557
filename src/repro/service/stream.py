"""The unbounded, deterministic event stream and its event vocabulary.

Event ``i`` of the stream is a **pure function of ``(seed, i)``**: every
event draws from its own ``default_rng((seed, salt, i))``, so the stream
has no cursor state beyond the next index.  That is the property the
checkpoint format leans on — a restored session re-derives event ``i``
bit-for-bit instead of serializing RNG internals.

Events resolve *symbolic* choices (which link to flap, flap direction)
against live engine state, exactly like the scenario vocabulary's
``pick="busiest"`` targets: the drawn numbers are frozen in the event,
the resolution is a deterministic function of simulation state, so
replay after restore reproduces identical decisions.

:class:`ServiceTick` is the compound event the session hands to
:meth:`~repro.scenario.engine.ScenarioEngine.step` each iteration: due
flow retirements first, then the stream event — one engine epoch per
tick, so the whole eight-step per-event procedure (re-route, warm
re-solve, hysteresis, certification) runs on service traffic unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, ClassVar, Union

import numpy as np

from ..errors import ConfigError, SimulationError
from ..topology.asgraph import ASGraph
from ..traffic.matrix import content_provider_ranking, zipf_weights
from .config import ServiceConfig

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..scenario.engine import EventEffect, ScenarioEngine

__all__ = [
    "BatchTick",
    "CapacityJitter",
    "EventStream",
    "FlowArrival",
    "LinkFlap",
    "ServiceTick",
    "StreamEvent",
    "merge_effects",
]

#: salt separating the stream's RNG family from the scenario engine's.
_STREAM_SALT = 411_934_003


def _pick_link(engine: "ScenarioEngine", pick: float, verb: str) -> tuple[int, int]:
    """The live link at fraction ``pick`` of the sorted link list.

    ``pick`` must be a number in [0, 1]; anything else (NaN, inf, a
    negative that would index from the end) is a :class:`ConfigError`.
    """
    if not (isinstance(pick, (int, float)) and 0.0 <= pick <= 1.0):
        raise ConfigError(f"pick must be a number in [0, 1], got pick={pick!r}")
    links = engine.graph.links()
    if not links:
        raise SimulationError(f"graph has no links left to {verb}")
    u, v, _rel = links[min(int(pick * len(links)), len(links) - 1)]
    return u, v


@dataclasses.dataclass(frozen=True)
class FlowArrival:
    """One flow joins the population for ``lifetime`` stream events."""

    src: int
    dst: int
    #: retirement delay in stream events (>= 1), drawn at arrival.
    lifetime: int
    kind = "arrival"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Register the flow through the engine's explicit-flow primitive."""
        return engine.add_explicit_flows([(self.src, self.dst)])


@dataclasses.dataclass(frozen=True)
class LinkFlap:
    """Fail a live link, or recover the most recent failure.

    ``recover_draw < 0.5`` prefers recovery whenever something is down;
    recovery is *forced* once ``max_failed`` links are out (so an
    unbounded stream cannot shred the topology).  ``pick`` selects the
    victim from the live graph's sorted link list — resolution depends
    only on frozen draws and checkpointed state.
    """

    pick: float
    recover_draw: float
    max_failed: int
    kind = "link_flap"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Resolve flap direction and victim against live engine state."""
        failed = engine.failed_links
        if failed and (self.recover_draw < 0.5 or len(failed) >= self.max_failed):
            return engine.recover_link()
        return engine.fail_link(*_pick_link(engine, self.pick, "fail"))


@dataclasses.dataclass(frozen=True)
class CapacityJitter:
    """Set one live link (both directions) to ``factor`` × base capacity.

    ``factor`` is absolute, not cumulative, so jitters never compound
    into silence; a later jitter near 1.0 restores the link.
    """

    pick: float
    factor: float
    kind = "capacity_jitter"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Resolve the victim link and rescale its capacity."""
        return engine.scale_capacity(*_pick_link(engine, self.pick, "jitter"), self.factor)


StreamEvent = Union[FlowArrival, LinkFlap, CapacityJitter]

#: event-kind label -> class, for checkpoint round-tripping of fed events.
STREAM_EVENT_TYPES: dict[str, type] = {
    "arrival": FlowArrival,
    "link_flap": LinkFlap,
    "capacity_jitter": CapacityJitter,
}


def merge_effects(effects: "list[EventEffect]") -> "EventEffect":
    """Fold several :class:`EventEffect`\\ s into one.

    Removed links and new flows concatenate in application order; dirty
    and capacity-changed sets dedupe ascending; targets join with ``"; "``
    — the same algebra :class:`ServiceTick` has always used for its
    retire-then-event pair, shared here so :class:`BatchTick` merges
    identically.
    """
    from ..scenario.engine import EventEffect

    if len(effects) == 1:
        return effects[0]
    removed: list[tuple[int, int]] = []
    dirty: list[int] = []
    capacity: list[int] = []
    new: list[int] = []
    targets: list[str] = []
    for e in effects:
        removed.extend(e.removed)
        dirty.extend(e.dirty)
        capacity.extend(e.capacity_changed)
        new.extend(e.new_flows)
        if e.target:
            targets.append(e.target)
    return EventEffect(
        removed=tuple(removed),
        dirty=tuple(sorted(dict.fromkeys(dirty))),
        capacity_changed=tuple(sorted(dict.fromkeys(capacity))),
        new_flows=tuple(new),
        target="; ".join(targets),
    )


@dataclasses.dataclass(frozen=True)
class ServiceTick:
    """One session iteration: due retirements, then the stream event."""

    retire: tuple[int, ...] = ()
    event: StreamEvent | None = None

    @property
    def kind(self) -> str:
        """The stream event's kind (``"retire"`` for a pure-retirement tick)."""
        return self.event.kind if self.event is not None else "retire"

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Apply retirements then the stream event; merge their effects."""
        effects: list[EventEffect] = []
        if self.retire:
            effects.append(engine.retire_flows(self.retire))
        if self.event is not None:
            effects.append(self.event.apply(engine))
        return merge_effects(effects)


@dataclasses.dataclass(frozen=True)
class BatchTick:
    """A coalesced run of consecutive arrival/retirement ticks.

    The session buffers non-barrier ticks up to
    ``ServiceConfig.batch_max`` and hands the whole run to the engine as
    *one* event: each constituent tick applies to the flow table in
    arrival order (so a flow that arrives and retires within the batch
    resolves correctly), then the engine routes the merged affected set
    and issues a single delta-solve instead of one per tick.  Barrier
    events (flap, jitter, fed, verify-cadence) never enter a batch.
    """

    ticks: tuple[ServiceTick, ...]
    kind = "batch"

    @property
    def events(self) -> int:
        """Service ticks coalesced into this engine epoch."""
        return len(self.ticks)

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Apply every buffered tick in order; merge all their effects."""
        return merge_effects([t.apply(engine) for t in self.ticks])


class EventStream:
    """Pure-function view of the unbounded event sequence.

    Sampling tables (Zipf source ranking, stub consumers) derive from
    the *base* topology, never the live failed graph, so they are
    reconstructible from the checkpointed :class:`~repro.topology
    .generator.TopologyConfig` alone.
    """

    #: the sampling tables: never captured, rebuilt with the session.
    DERIVABLE: ClassVar[dict[str, str]] = {
        "_nodes": "pure function of the base graph",
        "_sources": "pure function of (graph, config)",
        "_src_cum": "pure function of (graph, config)",
        "_dsts": "pure function of (graph, config)",
    }

    def __init__(self, graph: ASGraph, config: ServiceConfig) -> None:
        config.validate()
        self.config = config
        self._nodes = np.fromiter(graph.nodes(), dtype=np.int64)
        if self._nodes.shape[0] < 2:
            raise ConfigError("service stream needs at least two ASes")
        if config.traffic == "zipf":
            ranked = content_provider_ranking(graph)
            self._sources = np.asarray(ranked, dtype=np.int64)
            self._src_cum = np.cumsum(
                zipf_weights(len(ranked), config.zipf_alpha)
            )
            stubs = np.asarray(graph.stub_ases(), dtype=np.int64)
            if stubs.size == 0:
                raise ConfigError("graph has no stub ASes to consume traffic")
            self._dsts = stubs
        else:
            self._sources = self._nodes
            self._src_cum = None
            self._dsts = self._nodes

    def event_at(self, index: int) -> tuple[float, StreamEvent]:
        """``(dt, event)`` for stream position ``index``.

        ``dt`` is the exponential inter-arrival gap preceding the event
        (the Poisson clock); the event mix follows the configured
        probabilities, everything drawn from the per-index generator.
        """
        if index < 0:
            raise ConfigError("stream index must be >= 0")
        cfg = self.config
        rng = np.random.default_rng((cfg.seed, _STREAM_SALT, index))
        dt = float(rng.exponential(1.0 / cfg.arrival_rate))
        mix = float(rng.random())
        if mix < cfg.p_link_event:
            return dt, LinkFlap(
                pick=float(rng.random()),
                recover_draw=float(rng.random()),
                max_failed=cfg.max_failed_links,
            )
        if mix < cfg.p_link_event + cfg.p_capacity_event:
            return dt, CapacityJitter(
                pick=float(rng.random()),
                factor=float(0.25 + 0.75 * rng.random()),
            )
        src = self._sample_src(rng)
        dst = self._sample_dst(src, rng)
        lifetime = max(
            1, int(np.ceil(rng.exponential(cfg.mean_lifetime_events)))
        )
        return dt, FlowArrival(src=src, dst=dst, lifetime=lifetime)

    def _sample_src(self, rng: np.random.Generator) -> int:
        if self._src_cum is None:
            return int(self._sources[int(rng.integers(self._sources.shape[0]))])
        idx = int(np.searchsorted(self._src_cum, rng.random(), side="right"))
        return int(self._sources[min(idx, self._sources.shape[0] - 1)])

    def _sample_dst(self, src: int, rng: np.random.Generator) -> int:
        pool = self._dsts
        for _attempt in range(64):
            dst = int(pool[int(rng.integers(pool.shape[0]))])
            if dst != src:
                return dst
        # Degenerate pool (e.g. a single stub that happens to be the
        # source): fall back to the smallest other AS, deterministically.
        for cand in self._nodes.tolist():
            if int(cand) != src:
                return int(cand)
        raise ConfigError("no destination AS distinct from source")
