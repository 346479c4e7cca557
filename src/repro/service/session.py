"""The unified session API fronting the streaming service.

:class:`ServiceSession` owns one long-lived
:class:`~repro.scenario.engine.ScenarioEngine` and advances it through
the unbounded event stream one :class:`~repro.service.stream.ServiceTick`
at a time:

* :meth:`step` — pull the next event (fed events first, then the
  generated stream), retire flows whose lifetime expired, and run the
  engine's full eight-step per-event procedure;
* :meth:`feed` — enqueue an externally supplied event ahead of the
  generated stream (operator interventions, replayed traces);
* :meth:`drain` — step ``n`` times and summarize;
* :meth:`checkpoint` / :meth:`restore` — serialize / reconstruct the
  complete service state (see :mod:`repro.service.checkpoint`); a
  restored session replays **byte-identically** to one that never
  stopped;
* :meth:`snapshot` — live telemetry/gauge export for monitoring;
* :meth:`result` — package the retained window as the standard
  :class:`~repro.experiments.result.ExperimentResult` envelope.

**Batching** (``ServiceConfig.batch_max > 1``): consecutive
arrival/retirement ticks buffer instead of stepping the engine, and the
whole run applies as one :class:`~repro.service.stream.BatchTick` —
one route pass, one delta-solve, one congestion response per flush
instead of one per event.  The flush schedule is a pure function of the
event sequence (buffer full, or a barrier: flap, jitter, fed event,
verify-cadence tick) — never of observation points — so checkpoints
taken mid-batch serialize the pending ticks verbatim and restore
replays byte-identically.  See ``docs/scaling.md`` for the semantics.

Memory stays bounded no matter how long the stream runs: retired flows
leave the population and the solver, per-event records live in a ring
(``ServiceConfig.record_capacity``), and the telemetry trace ring is
bounded by construction.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, ClassVar

from .. import telemetry as tm
from ..bgp.propagation import DEFAULT_BACKEND, check_backend
from ..errors import ConfigError
from ..scenario.engine import EventRecord, ScenarioEngine
from ..scenario.events import ScenarioSpec
from ..telemetry import Stopwatch, Telemetry
from ..topology.generator import TopologyConfig, generate_topology
from .config import ServiceConfig
from .stream import (
    BatchTick,
    EventStream,
    FlowArrival,
    ServiceTick,
    StreamEvent,
    check_fed,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..experiments.result import ExperimentResult

__all__ = ["DrainReport", "ServiceSession"]

#: the empty timeline the service engine is constructed around — events
#: come from the stream, not a spec.
_SERVICE_SPEC = ScenarioSpec(
    "service", "unbounded event stream (repro.service)", ()
)

#: generated events read per :meth:`~repro.service.stream.EventStream.events`
#: call: one block amortizes the call's set-up to well under a microsecond
#: an event.
_LOOKAHEAD = 256


@dataclasses.dataclass(frozen=True)
class DrainReport:
    """Summary of one :meth:`ServiceSession.drain` batch."""

    events: int
    arrivals: int
    retired: int
    flows_live: int
    clock_s: float
    last_record: EventRecord | None


class ServiceSession:
    """A long-lived streaming MIFO routing service.

    ``telemetry`` accepts a :class:`~repro.telemetry.Telemetry` instance,
    ``True`` (construct a fresh one), or ``None`` (don't measure).  The
    session activates its registry only for the duration of each step,
    so concurrent sessions never cross-count.
    """

    #: Attributes a checkpoint need not carry verbatim, each with why;
    #: ``tests/service/test_checkpoint_completeness.py`` compares every
    #: other attribute of a restored session against the live one.
    DERIVABLE: ClassVar[dict[str, str]] = {
        "_base_graph": "regenerated from the captured topology config",
        "_stream": "pure function of (base graph, config)",
        "_ahead": (
            "events _stream_index onward, a pure function of the index; "
            "a restored session starts empty and refills on its next step"
        ),
        "_expiry": (
            "captured sorted and re-heapified, so the heap layout may differ; "
            "entries are unique (due tick, flow id) pairs, so heappop yields "
            "them in sorted order from any valid layout"
        ),
    }

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        topology: TopologyConfig | None = None,
        backend: str = DEFAULT_BACKEND,
        telemetry: Telemetry | bool | None = None,
        bootstrap: bool = True,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.config.validate()
        self.topology = topology if topology is not None else TopologyConfig()
        self.backend = check_backend(backend)
        if telemetry is True:
            self.telemetry: Telemetry | None = Telemetry()
        elif telemetry is False or telemetry is None:
            self.telemetry = None
        else:
            self.telemetry = telemetry
        self._base_graph = generate_topology(self.topology)
        self._stream = EventStream(self._base_graph, self.config)
        self.engine = ScenarioEngine(
            self._base_graph,
            [],
            _SERVICE_SPEC,
            backend=backend,
            seed=self.config.seed,
            config=self.config.scenario_config(),
        )
        #: externally fed events, consumed before the generated stream.
        self._fed: deque[tuple[float, StreamEvent]] = deque()
        #: min-heap of (due_tick, flow_id) retirements.
        self._expiry: list[tuple[int, int]] = []
        #: buffered non-barrier ticks awaiting the next flush (batching);
        #: each is an arrival, since every other event is a barrier.
        self._pending: list[ServiceTick] = []
        #: index of the next generated event ...
        self._stream_index = 0
        #: ... and the generated events from it on, read a block at a time.
        self._ahead: deque[tuple[float, StreamEvent]] = deque()
        self._clock = 0.0
        self._tick = 0
        self.arrivals_total = 0
        self.retired_total = 0
        if bootstrap:
            # Epoch 0: the engine's initial-routing pass over the (empty)
            # base population.  A restored session skips this — its epoch
            # counter and records come from the checkpoint.
            self.engine.step(0.0, None)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def step(self) -> EventRecord:
        """Process one service tick and return the newest metrics record.

        With ``batch_max > 1`` a non-barrier tick may only be *buffered*;
        the returned record is then the one from the last flush.  The
        flush schedule depends only on the event sequence (never on when
        the caller observes the session), which is what keeps
        checkpoint/restore and drain-chunking byte-identical.
        """
        fed = bool(self._fed)
        if fed:
            dt, event = self._fed.popleft()
        else:
            if not self._ahead:
                self._ahead.extend(
                    self._stream.events(self._stream_index, _LOOKAHEAD)
                )
            dt, event = self._ahead.popleft()
            self._stream_index += 1
        self._clock += dt
        t = self._tick
        due: list[int] = []
        while self._expiry and self._expiry[0][0] <= t:
            due.append(heapq.heappop(self._expiry)[1])
        if isinstance(event, FlowArrival):
            # Buffered arrivals haven't registered yet, so the id this
            # event will receive is offset by the ticks buffered ahead of
            # it (each one an arrival).
            arrival_id = self.engine.next_flow_id + len(self._pending)
            heapq.heappush(self._expiry, (t + event.lifetime, arrival_id))
            self.arrivals_total += 1
        tick = ServiceTick(retire=tuple(due), event=event)
        verify = (
            self.config.verify_every > 0
            and (t + 1) % self.config.verify_every == 0
        )
        # Barrier events must see (and produce) exact per-event state:
        # topology/capacity changes resolve symbolically against the live
        # engine, fed events are operator interventions, and a verify
        # tick certifies a single-event epoch.
        barrier = fed or verify or not isinstance(event, FlowArrival)
        self._tick = t + 1
        self.retired_total += len(due)
        if self.config.batch_max <= 1 or barrier:
            if self._pending:
                self._flush()
            self._apply((tick,), verify=verify, batched=False)
        else:
            self._pending.append(tick)
            if len(self._pending) >= self.config.batch_max:
                self._flush()
        return self.engine.records[-1]

    def _flush(self) -> None:
        """Apply the buffered batch as one engine epoch."""
        pending, self._pending = self._pending, []
        self._apply(tuple(pending), verify=False, batched=True)

    def _apply(
        self,
        ticks: tuple[ServiceTick, ...],
        *,
        verify: bool,
        batched: bool,
    ) -> None:
        """One engine epoch over ``ticks`` (one tick, or a whole batch)."""
        event = ticks[0] if len(ticks) == 1 else BatchTick(ticks=ticks)
        prev = tm.active()
        if self.telemetry is not None:
            tm.activate(self.telemetry)
        try:
            self.engine.step(self._clock, event, verify=verify)
            if batched:
                tm.inc("service.batched_events", len(ticks))
                tm.inc("service.batch_solves")
                tm.event(
                    "batch_flush",
                    epoch=self.engine.epoch,
                    batched=len(ticks),
                    time_s=self._clock,
                )
        finally:
            if self.telemetry is not None:
                tm.activate(prev)

    def feed(self, event: StreamEvent, *, dt: float = 0.0) -> None:
        """Enqueue an external event ahead of the generated stream.

        ``dt`` is the virtual-clock gap the event carries (default: it
        happens "immediately", advancing the clock by nothing).  Fed
        events are part of the checkpointed state, so kill-and-restore
        around them stays exact.  A malformed event or gap is refused
        here (:func:`~repro.service.stream.check_fed`), before it can
        reach the clock or the expiry heap.
        """
        check_fed(dt, event, self._base_graph)
        self._fed.append((float(dt), event))

    def drain(self, n: int) -> DrainReport:
        """Step ``n`` times; return a summary of the batch.

        Draining never flushes a pending batch by itself — the flush
        schedule belongs to the event sequence, so two sessions draining
        the same stream in different chunk sizes stay byte-identical.
        As a side effect the ``service.events_per_sec`` gauge is updated
        (wall-clock throughput; gauges are monitoring-only and never
        checkpointed, so determinism is untouched).
        """
        if n < 0:
            raise ConfigError("drain count must be >= 0")
        arrivals0, retired0 = self.arrivals_total, self.retired_total
        last: EventRecord | None = None
        watch = Stopwatch()
        for _ in range(n):
            last = self.step()
        if self.telemetry is not None and n > 0 and watch.elapsed > 0:
            self.telemetry.set_gauge(
                "service.events_per_sec", n / watch.elapsed
            )
        return DrainReport(
            events=n,
            arrivals=self.arrivals_total - arrivals0,
            retired=self.retired_total - retired0,
            flows_live=self.engine.n_flows,
            clock_s=self._clock,
            last_record=last,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Service ticks completed (the epoch-0 bootstrap excluded)."""
        return self._tick

    @property
    def clock_s(self) -> float:
        """The virtual Poisson clock (seconds of simulated stream time)."""
        return self._clock

    def snapshot(self) -> dict[str, Any]:
        """Live state export for monitoring: gauges + telemetry counters."""
        records = self.engine.records
        last = records[-1] if records else None
        return {
            "events": self._tick,
            "clock_s": self._clock,
            "pending_batch": len(self._pending),
            "flows_live": self.engine.n_flows,
            "arrivals_total": self.arrivals_total,
            "retired_total": self.retired_total,
            "failed_links": len(self.engine.failed_links),
            "congested_links": last.congested_links if last else 0,
            "flows_unroutable": last.flows_unroutable if last else 0,
            "total_throughput_gbps": (
                last.total_throughput_gbps if last else 0.0
            ),
            "telemetry": (
                self.telemetry.snapshot().to_dict()
                if self.telemetry is not None
                else None
            ),
        }

    def result(self, *, scale: str = "stream") -> "ExperimentResult":
        """The retained record window as the unified result envelope.

        The payload (series + non-provenance meta) is a pure function of
        simulation state, so a restored session's ``result()`` is
        byte-identical to an uninterrupted one's — the checkpoint test's
        oracle.
        """
        from ..experiments.result import ExperimentResult, freeze_series

        records = list(self.engine.records)
        series = {
            "dirty destinations": [
                (r.time_s, float(r.dirty_dests)) for r in records
            ],
            "flows rerouted": [
                (r.time_s, float(r.flows_rerouted)) for r in records
            ],
            "live flows": [(r.time_s, float(r.flows_total)) for r in records],
            "congested links": [
                (r.time_s, float(r.congested_links)) for r in records
            ],
            "deflected flows": [
                (r.time_s, float(r.deflected_flows)) for r in records
            ],
            "mean rate (Mbps)": [(r.time_s, r.mean_rate_mbps) for r in records],
            "total throughput (Gbps)": [
                (r.time_s, r.total_throughput_gbps) for r in records
            ],
        }
        last = records[-1] if records else None
        meta: dict[str, Any] = {
            "backend": self.engine.routing.backend,
            "routing_cache": {
                "cached_destinations": len(
                    self.engine.routing.cached_destinations()
                )
            },
            "scenario_engine": {
                "mode": self.config.mode,
                "dests_recomputed": self.engine.routing.dests_recomputed,
                "dests_rebased": self.engine.routing.dests_rebased,
                "warm_solves": self.engine.solver.solves,
                "warm_hits": self.engine.solver.hits,
            },
            "events": self._tick,
            "arrivals": self.arrivals_total,
            "retired": self.retired_total,
            "flows_live": self.engine.n_flows,
            "final_unroutable": last.flows_unroutable if last else 0,
            "clock_s": self._clock,
            "stream_index": self._stream_index,
        }
        return ExperimentResult(
            name="service",
            scale=scale,
            series=freeze_series(series),
            meta=meta,
            raw=self,
        )

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        """The complete service state as a JSON-safe dict."""
        from .checkpoint import capture

        return capture(self)

    def checkpoint_json(self) -> str:
        """Deterministic JSON bytes of :meth:`checkpoint`."""
        from .checkpoint import to_json

        return to_json(self.checkpoint())

    def save_checkpoint(self, path: str) -> None:
        """Write :meth:`checkpoint_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.checkpoint_json())

    @classmethod
    def restore(
        cls,
        source: "dict[str, Any] | str",
        *,
        backend: str | None = None,
        telemetry: Telemetry | bool | None = None,
    ) -> "ServiceSession":
        """Reconstruct a session from a checkpoint dict or file path.

        ``backend`` overrides the checkpointed routing backend (replay is
        byte-identical either way — the cross-backend contract).  When
        ``telemetry`` is unspecified and the checkpoint carries counters,
        a fresh registry is created and the counters re-applied.
        """
        from .checkpoint import restore

        return restore(source, backend=backend, telemetry=telemetry)
