"""Streaming-service experiment — the long-lived session as an artifact.

Drives one :class:`~repro.service.session.ServiceSession` through a
scale-sized slice of the unbounded event stream (Poisson flow arrivals
with Zipf-ranked sources, lifetime-driven departures, link flaps,
capacity jitter) and packages the retained record window as the unified
:class:`~repro.experiments.result.ExperimentResult` envelope.

Unless disabled, the run also *proves* the service's headline guarantee
in-line: it checkpoints at the halfway tick, replays the second half on
a restored session, and asserts the two payloads are byte-identical —
``meta["restore_verified"]`` records that the kill-and-restore oracle
held for this very run.
"""

from __future__ import annotations

import dataclasses

from .. import telemetry as tm
from ..errors import VerificationError
from ..service.config import ServiceConfig
from ..service.session import ServiceSession
from ..topology.generator import TopologyConfig
from .common import DEFAULT_BACKEND, get_scale, instrumented_run
from .report import text_table
from .result import ExperimentResult

__all__ = ["ServiceExperimentResult", "run"]

#: rows shown in the rendered record-window table (the ring may hold more).
_RENDER_TAIL = 12


@dataclasses.dataclass
class ServiceExperimentResult:
    """Rich result: the live session plus rendering."""

    scale_name: str
    session: ServiceSession
    restore_verified: bool

    def rows(self) -> list[list[object]]:
        """Table rows: the tail of the retained record window."""
        records = list(self.session.engine.records)[-_RENDER_TAIL:]
        return [
            [
                r.index,
                f"{r.time_s:.3f}",
                r.kind,
                r.flows_total,
                r.flows_rerouted,
                r.congested_links,
                r.deflected_flows,
                f"{r.mean_rate_mbps:.1f}",
            ]
            for r in records
        ]

    def render(self) -> str:
        """Record-window tail plus stream/session summary."""
        s = self.session
        table = text_table(
            [
                "#",
                "t(s)",
                "event",
                "flows",
                "rerouted",
                "congested",
                "deflected",
                "mean Mbps",
            ],
            self.rows(),
            title=(
                f"Service stream (scale={self.scale_name}, last "
                f"{_RENDER_TAIL} of {s.events_processed} events)"
            ),
        )
        summary = (
            f"\nstream:     {s.events_processed} events over "
            f"{s.clock_s:.2f}s simulated ({s.arrivals_total} arrivals, "
            f"{s.retired_total} retirements, {s.engine.n_flows} live)"
            f"\ncontrol:    {s.engine.routing.dests_recomputed} dest(s) "
            f"re-converged, {s.engine.routing.dests_rebased} rebased"
            f"\nmax-min:    {s.engine.solver.solves} solve(s), "
            f"{s.engine.solver.hits} memoized"
            f"\nrestore:    checkpoint/replay byte-identity "
            f"{'verified in-run' if self.restore_verified else 'not checked'}"
        )
        return table + summary


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    events: int | None = None,
    restore_check: bool = True,
    service_config: ServiceConfig | None = None,
) -> ExperimentResult:
    """Stream a scale-sized event batch through a service session.

    ``events`` overrides the batch size (default: the scale's flow
    count — each stream event is one engine epoch, so this matches the
    scenario experiments' per-event workload).  ``restore_check``
    checkpoints at the halfway tick and replays the rest on a restored
    session, asserting payload byte-identity.
    """
    sc = get_scale(scale)
    n_events = events if events is not None else sc.n_flows
    cfg = (
        service_config
        if service_config is not None
        else ServiceConfig(seed=sc.seed, arrival_rate=sc.arrival_rate)
    )
    topo = TopologyConfig(n_ases=sc.n_ases, seed=sc.seed)
    session = ServiceSession(cfg, topology=topo, backend=backend)

    restore_verified = False
    if restore_check and n_events >= 2:
        half = n_events // 2
        with tm.span("service.stream"):
            session.drain(half)
        with tm.span("service.checkpoint"):
            blob = session.checkpoint()
        with tm.span("service.stream"):
            session.drain(n_events - half)
        # Replay the second half on a restored session, outside the
        # experiment's telemetry session (replay work is not part of this
        # run's cost profile), and require byte-identity.
        prev = tm.active()
        tm.activate(None)
        try:
            restored = ServiceSession.restore(blob, backend=backend)
            restored.drain(n_events - half)
        finally:
            tm.activate(prev)
        live = session.result(scale=sc.name).to_json(include_provenance=False)
        replay = restored.result(scale=sc.name).to_json(
            include_provenance=False
        )
        if live != replay:
            raise VerificationError(
                "restored service session diverged from the uninterrupted "
                "run (checkpoint/replay byte-identity violated)"
            )
        restore_verified = True
    else:
        with tm.span("service.stream"):
            session.drain(n_events)

    base = session.result(scale=sc.name)
    meta = dict(base.meta)
    meta["restore_verified"] = restore_verified
    return dataclasses.replace(
        base,
        meta=meta,
        raw=ServiceExperimentResult(
            scale_name=sc.name,
            session=session,
            restore_verified=restore_verified,
        ),
    )
