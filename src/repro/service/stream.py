"""The unbounded, deterministic event stream and its event vocabulary.

Event ``i`` of the stream is a **pure function of ``(seed, i)``**: every
event draws from its own ``default_rng((seed, salt, i))``, so the stream
has no cursor state beyond the next index.  That is the property the
checkpoint format leans on — a restored session re-derives event ``i``
bit-for-bit instead of serializing RNG internals.

:meth:`EventStream.event_at` builds that generator per index and is the
oracle.  :meth:`EventStream.events` derives a whole block: one pass of
NumPy's ``SeedSequence`` hash over uint32 arrays gives every index the
PCG64 state ``default_rng`` would start from, and one generator is
re-stated per index — the same draws at a fraction of the seeding cost.

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
import math
from bisect import bisect_right
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any, ClassVar, Union

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
    "check_fed",
    "merge_effects",
]

#: salt separating the stream's RNG family from the scenario engine's.
_STREAM_SALT = 411_934_003

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), restated so
# one pass over uint32 arrays seeds a whole block of stream indices.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
#: PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """``n`` as ``SeedSequence`` reads an int: its little-endian 32-bit
    words, ``[0]`` for zero.  ``n`` must be >= 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _index_words(start: int, stop: int, width: int) -> list[np.ndarray]:
    """The ``width`` entropy words of every index in ``[start, stop)``,
    one uint32 array per word position."""
    if stop <= 1 << 64:
        index = np.arange(stop - start, dtype=np.uint64) + np.uint64(start)
        return [(index >> (32 * k) & _MASK32).astype(np.uint32) for k in range(width)]
    rows = np.array([_uint32_words(i) for i in range(start, stop)], dtype=np.uint32)
    return list(rows.T)


def _pcg64_seeds(prefix: list[int], start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64's ``(state, inc)`` as ``default_rng((*prefix, i))`` leaves it,
    for every ``i`` in ``[start, stop)``; ``prefix`` holds the leading
    entropy words, and every index must have as many words as ``start``."""
    n = stop - start
    entropy = [np.full(n, word, dtype=np.uint32) for word in prefix]
    entropy += _index_words(start, stop, len(_uint32_words(start)))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> _XSHIFT

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> _XSHIFT

    # SeedSequence.mix_entropy: fill the pool, cross-mix it, fold in the rest.
    zero = np.zeros(n, dtype=np.uint32)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    # SeedSequence.generate_state(4, np.uint64): eight words, paired low-high.
    hash_const = _INIT_B
    out = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append((value ^ value >> _XSHIFT).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (
        (out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4)
    )
    # pcg64_set_seed: inc = seq << 1 | 1; state = (inc + seed) * MULT + inc.
    seeds = []
    for sh, sl, ih, il in zip(s_hi, s_lo, i_hi, i_lo):
        inc = (ih << 65 | il << 1 | 1) & _MASK128
        seeds.append(((((sh << 64 | sl) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


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


def _fold(effects: "Iterable[EventEffect]") -> "EventEffect":
    """The merge algebra, in one pass over ``effects`` (applied in order)."""
    from ..scenario.engine import EventEffect

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


def merge_effects(effects: "list[EventEffect]") -> "EventEffect":
    """Fold several :class:`EventEffect`\\ s into one.

    Removed links and new flows concatenate in application order; dirty
    and capacity-changed sets dedupe ascending; targets join with ``"; "``
    — the same algebra :class:`ServiceTick` has always used for its
    retire-then-event pair, and :class:`BatchTick` folds with.
    """
    if len(effects) == 1:
        return effects[0]
    return _fold(effects)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_non_negative(value: object) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and value >= 0
    except OverflowError:  # an int past the float range
        return False


def check_fed(dt: object, event: object, graph: ASGraph) -> None:
    """Refuse a malformed fed event before it reaches the session.

    ``dt`` must be a finite number >= 0 (a NaN gap would stop the clock
    for good).  A :class:`FlowArrival`'s ``src`` and ``dst`` must be two
    distinct ASes of ``graph``, the session's base topology, and its
    ``lifetime`` an int >= 1: a NaN lifetime would sit at the top of the
    expiry heap and block every retirement behind it, and an arrival the
    engine refuses would leave its retirement queued for a flow that never
    registered.  Each failure is a :class:`ConfigError` naming the field.
    A flap's or a jitter's ``pick`` and ``factor`` are checked where they
    resolve, against the live graph.
    """
    if not _finite_non_negative(dt):
        raise ConfigError(f"fed event dt must be a finite number >= 0, got dt={dt!r}")
    if not isinstance(event, (FlowArrival, LinkFlap, CapacityJitter)):
        raise ConfigError(f"fed event must be a stream event, got {event!r}")
    if isinstance(event, FlowArrival):
        for name in ("src", "dst"):
            value = getattr(event, name)
            if not _is_int(value):
                raise ConfigError(f"fed arrival {name} must be an int, got {name}={value!r}")
            if value not in graph:
                raise ConfigError(f"fed arrival {name}={value} is not an AS of the topology")
        if event.src == event.dst:
            raise ConfigError(f"fed arrival src and dst coincide (AS {event.src})")
        if not (_is_int(event.lifetime) and event.lifetime >= 1):
            raise ConfigError(
                f"fed arrival lifetime must be an int >= 1, got lifetime={event.lifetime!r}"
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

    def effects(self, engine: "ScenarioEngine") -> "list[EventEffect]":
        """Apply retirements then the stream event; their effects in order."""
        effects: list[EventEffect] = []
        if self.retire:
            effects.append(engine.retire_flows(self.retire))
        if self.event is not None:
            effects.append(self.event.apply(engine))
        return effects

    def apply(self, engine: "ScenarioEngine") -> "EventEffect":
        """Apply retirements then the stream event; merge their effects."""
        return merge_effects(self.effects(engine))


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
        """Apply every buffered tick in order; fold all their effects in
        one pass (equal to merging each tick's merge)."""
        return _fold(e for t in self.ticks for e in t.effects(engine))


class EventStream:
    """Pure-function view of the unbounded event sequence.

    Sampling tables (Zipf source ranking, stub consumers) derive from
    the *base* topology, never the live failed graph, so they are
    reconstructible from the checkpointed :class:`~repro.topology
    .generator.TopologyConfig` alone.  They are plain lists: the draws
    index them one scalar at a time.
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
        self._nodes: list[int] = [int(n) for n in graph.nodes()]
        if len(self._nodes) < 2:
            raise ConfigError("service stream needs at least two ASes")
        self._src_cum: list[float] | None
        if config.traffic == "zipf":
            ranked = content_provider_ranking(graph)
            self._sources: list[int] = [int(n) for n in ranked]
            self._src_cum = np.cumsum(
                zipf_weights(len(ranked), config.zipf_alpha)
            ).tolist()
            self._dsts: list[int] = [int(n) for n in graph.stub_ases()]
            if not self._dsts:
                raise ConfigError("graph has no stub ASes to consume traffic")
        else:
            self._sources = self._nodes
            self._src_cum = None
            self._dsts = self._nodes

    def event_at(self, index: int) -> tuple[float, StreamEvent]:
        """``(dt, event)`` for stream position ``index``.

        ``dt`` is the exponential inter-arrival gap preceding the event
        (the Poisson clock); the event mix follows the configured
        probabilities, everything drawn from the per-index generator.
        This is the oracle :meth:`events` is held to.
        """
        if index < 0:
            raise ConfigError("stream index must be >= 0")
        return self._draw(
            np.random.default_rng((self.config.seed, _STREAM_SALT, index))
        )

    def events(self, start: int, count: int) -> list[tuple[float, StreamEvent]]:
        """``[event_at(i) for i in range(start, start + count)]``, derived
        a block at a time.

        The block's PCG64 states come from one vectorized pass of the
        ``SeedSequence`` hash; one generator local to the call is
        re-stated to each in turn, so the draws are :meth:`event_at`'s
        bit for bit and the stream keeps no state between calls.
        """
        if start < 0:
            raise ConfigError("stream index must be >= 0")
        if count < 0:
            raise ConfigError("event count must be >= 0")
        bit_gen = np.random.PCG64(0)  # re-stated for every index below
        rng = np.random.Generator(bit_gen)
        seed_state = {"state": 0, "inc": 0}
        state: dict[str, Any] = {
            "bit_generator": "PCG64",
            "state": seed_state,
            "has_uint32": 0,
            "uinteger": 0,
        }
        prefix = _uint32_words(self.config.seed) + _uint32_words(_STREAM_SALT)
        out: list[tuple[float, StreamEvent]] = []
        stop = start + count
        while start < stop:
            # An index gains an entropy word at each power of 2**32.
            end = min(stop, 1 << 32 * len(_uint32_words(start)))
            for pcg_state, pcg_inc in _pcg64_seeds(prefix, start, end):
                seed_state["state"], seed_state["inc"] = pcg_state, pcg_inc
                bit_gen.state = state
                out.append(self._draw(rng))
            start = end
        return out

    def _draw(self, rng: np.random.Generator) -> tuple[float, StreamEvent]:
        """One ``(dt, event)`` from a freshly seeded per-index generator."""
        cfg = self.config
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
        lifetime = max(1, math.ceil(rng.exponential(cfg.mean_lifetime_events)))
        return dt, FlowArrival(src=src, dst=dst, lifetime=lifetime)

    def _sample_src(self, rng: np.random.Generator) -> int:
        if self._src_cum is None:
            return self._sources[int(rng.integers(len(self._sources)))]
        idx = bisect_right(self._src_cum, rng.random())
        return self._sources[min(idx, len(self._sources) - 1)]

    def _sample_dst(self, src: int, rng: np.random.Generator) -> int:
        pool = self._dsts
        for _attempt in range(64):
            dst = pool[int(rng.integers(len(pool)))]
            if dst != src:
                return dst
        # Degenerate pool (e.g. a single stub that happens to be the
        # source): fall back to the smallest other AS, deterministically.
        for cand in self._nodes:
            if cand != src:
                return cand
        raise ConfigError("no destination AS distinct from source")
