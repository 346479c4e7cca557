"""Deterministic checkpoint / restore of a running service session.

Design rule: **serialize only what cannot be re-derived, re-derive the
rest.**  The checkpoint stores configs, the failed-link stack, the flow
table, the dense data-plane arrays, the record ring, counters, the
stream cursor, and any batch ticks still buffered between flushes — all
JSON scalars (Python floats round-trip exactly through ``repr``, so
JSON is lossless here).  It does *not* store routing views, solver
slabs, or RNG internals:

* the topology regenerates from its config and the failed stack replays
  over it (same frozen-graph derivative chain as live operation);
* routing views recompute per cached destination — sound because
  ``IncrementalRouting.crosscheck`` proves live views always equal a
  fresh recompute;
* the pooled max-min solver rebuilds by re-adding the flow table and
  running one priming fill — bitwise-safe because fill results are
  independent of column numbering (``IncrementalMaxMin.crosscheck``
  asserts exactly this against a fresh cold build); the only pool state
  that is *not* derivable from the live flows is the free-list occupancy (dead
  columns waiting to be recycled), so that small map is checkpointed and
  re-seeded to keep ``flowsim.cols_reused`` identical under replay;
* stream event ``i`` is a pure function of ``(seed, i)``, so the cursor
  *is* the generator state.

Rebuild work runs with telemetry deactivated, then the checkpointed
counter values are re-applied — so restored telemetry counters match an
uninterrupted run's exactly.  ``to_json`` emits sorted-key JSON: one
state, one byte sequence.

Restore reads untrusted JSON, so a malformed document — not JSON, a
missing field, a wrong type, a column whose length disagrees with the
link list, a flow path that is not a path of the replayed topology, a
flow id listed twice — is refused with a
:class:`~repro.errors.ConfigError` naming the field or the flow.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import json
from collections import deque
from collections.abc import Iterator
from typing import Any

import numpy as np

from .. import telemetry as tm
from ..errors import ConfigError, ReproError
from ..flowsim.flow import Flow
from ..flowsim.plane import check_capacity_factor
from ..scenario.engine import EventRecord
from ..scenario.incremental import IncrementalRouting
from ..telemetry import Telemetry
from ..topology.dynamics import without_link
from ..topology.relationships import Relationship
from .stream import STREAM_EVENT_TYPES, FlowArrival, ServiceTick, StreamEvent, check_fed

__all__ = ["CHECKPOINT_FORMAT", "CHECKPOINT_VERSION", "capture", "restore", "to_json"]

CHECKPOINT_FORMAT = "mifo-service-checkpoint"
#: version 2 added the engine's ``rtt`` section (per-flow RTT detector
#: windows + monitor counters); version 3 added the session's
#: ``pending`` section (buffered batch ticks, so a kill landing
#: mid-batch restores and replays byte-identically).  Only the current
#: version restores: no external producer of older documents exists, so
#: there is one reader, not one per version.
CHECKPOINT_VERSION = 3
_READABLE_VERSIONS = (CHECKPOINT_VERSION,)


def capture(session: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.service.session.ServiceSession`.

    Must be called between steps (the session API cannot observe a
    mid-step state, so this holds by construction for API users).
    """
    eng = session.engine
    plane = eng.plane
    n = len(plane.links)
    flows = [
        [
            f.flow_id,
            f.src,
            f.dst,
            list(f.path) if f.path is not None else None,
            bool(f.on_alt),
            f.switches,
            float(f.rate_bps),
        ]
        for f in eng._flows.values()
    ]
    telemetry_state: dict[str, Any] | None = None
    if session.telemetry is not None:
        telemetry_state = {
            "counters": dict(sorted(session.telemetry.counters.items()))
        }
    # Measurement state: per-flow detector windows are genuine state (a
    # detector is a pure function of its pushed series, but the series
    # itself cannot be re-derived), so they serialize in full.
    rtt_state: dict[str, Any] | None = None
    mon = eng._rtt
    if mon is not None:
        rtt_state = {
            "samples_total": mon._rtt_samples_total,
            "alarms_total": mon._rtt_alarms_total,
            "series": [
                [
                    fid,
                    det._cp_base,
                    det._cp_count,
                    det._cp_last,
                    det._cp_streak,
                    det._cp_baseline,
                    [float(x) for x in det._cp_values],
                    [int(x) for x in det._cp_epochs],
                ]
                for fid, det in mon._rtt_series.items()
            ],
        }
    from ..config import config_to_dict

    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config_to_dict(session.config),
        "topology": config_to_dict(session.topology),
        "backend": eng.routing.backend,
        "session": {
            "tick": session._tick,
            "clock_s": float(session._clock),
            "stream_index": session._stream_index,
            "arrivals_total": session.arrivals_total,
            "retired_total": session.retired_total,
            "expiry": [list(entry) for entry in sorted(session._expiry)],
            "fed": [
                [float(dt), ev.kind, dataclasses.asdict(ev)]
                for dt, ev in session._fed
            ],
            # Buffered batch ticks (in arrival order): genuine state — the
            # events were consumed from the stream but not yet applied, so
            # a mid-batch kill must carry them verbatim.
            "pending": [
                [
                    list(tk.retire),
                    tk.event.kind if tk.event is not None else None,
                    dataclasses.asdict(tk.event) if tk.event is not None else None,
                ]
                for tk in session._pending
            ],
        },
        "engine": {
            "event_no": eng.epoch,
            "next_flow_id": eng.next_flow_id,
            "failed": [[u, v, rel.name] for u, v, rel in eng.failed_links],
            "links": [[int(u), int(v)] for u, v in plane.links],
            "cap_factor": [float(x) for x in plane.cap_factor[:n]],
            "exo_frac": [float(x) for x in plane.exo_frac[:n]],
            "congested": [int(x) for x in plane.congested[:n]],
            "alloc": [float(x) for x in plane.alloc[:n]],
            "flows": flows,
            "records": [dataclasses.asdict(r) for r in eng.records],
            "routing_dests": sorted(eng.routing.cached_destinations()),
            "free_segments": {
                str(n): count
                for n, count in eng.solver.free_segments().items()
            },
            "counters": {
                "dests_recomputed": eng.routing.dests_recomputed,
                "dests_rebased": eng.routing.dests_rebased,
                # The v3 document names the solve/hit pair twice; both
                # are the one solver's counters and restore reads ``pool``.
                "solver_solves": eng.solver.solves,
                "solver_hits": eng.solver.hits,
                "pool": {
                    "pool_hits": eng.solver.pool_hits,
                    "cols_reused": eng.solver.cols_reused,
                    "warm_rounds_saved": eng.solver.warm_rounds_saved,
                    "rounds_total": eng.solver.rounds_total,
                    "solves": eng.solver.solves,
                    "hits": eng.solver.hits,
                },
            },
            "rtt": rtt_state,
        },
        "telemetry": telemetry_state,
    }


def to_json(state: dict[str, Any]) -> str:
    """Canonical checkpoint bytes: sorted keys, no whitespace games."""
    return json.dumps(state, sort_keys=True)


@contextlib.contextmanager
def _field(name: str) -> Iterator[None]:
    """Refuse whatever reading checkpoint field ``name`` raises — a
    missing key, a wrong type, a value the rebuild rejects — as one
    :class:`ConfigError` naming the field."""
    try:
        yield
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, ReproError) as exc:
        raise ConfigError(f"checkpoint field {name} is malformed: {exc!r}") from exc


def _column(es: dict[str, Any], name: str, n: int, dtype: type) -> np.ndarray:
    """A per-link engine column: exactly one entry per interned link."""
    with _field(f"engine.{name}"):
        values = np.asarray(es[name], dtype=dtype)
    if values.shape != (n,):
        raise ConfigError(
            f"checkpoint field engine.{name} has shape {values.shape}; "
            f"engine.links holds {n} links"
        )
    return values


def _load(source: dict[str, Any] | str) -> dict[str, Any]:
    if isinstance(source, dict):
        state = source
    else:
        with open(source, encoding="utf-8") as fh:
            try:
                state = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"checkpoint {source!r} is not JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise ConfigError(
            f"not a {CHECKPOINT_FORMAT} document: the top level is a "
            f"{type(state).__name__}"
        )
    if state.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(
            f"not a {CHECKPOINT_FORMAT} document: format="
            f"{state.get('format')!r}"
        )
    if state.get("version") not in _READABLE_VERSIONS:
        raise ConfigError(
            f"unsupported checkpoint version {state.get('version')!r} "
            f"(this build reads versions {_READABLE_VERSIONS})"
        )
    return state


def restore(
    source: dict[str, Any] | str,
    *,
    backend: str | None = None,
    telemetry: Telemetry | bool | None = None,
) -> Any:
    """Reconstruct a live session from a checkpoint dict or file path."""
    from ..config import config_from_dict
    from .config import ServiceConfig
    from .session import ServiceSession
    from ..topology.generator import TopologyConfig

    state = _load(source)
    with _field("config"):
        cfg = config_from_dict(ServiceConfig, state["config"])
    with _field("topology"):
        topo = config_from_dict(TopologyConfig, state["topology"])
    with _field("backend"):
        use_backend = backend if backend is not None else str(state["backend"])
    if telemetry is None and state.get("telemetry") is not None:
        telemetry = True
    # All rebuild work happens under a deactivated telemetry sink, so the
    # restored counters come exclusively from the checkpoint.
    prev = tm.active()
    tm.activate(None)
    try:
        with _field("config"):
            session = ServiceSession(
                cfg,
                topology=topo,
                backend=use_backend,
                telemetry=telemetry,
                bootstrap=False,
            )
        with _field("engine"):
            es = state["engine"]
        _restore_engine(session, es, cfg, use_backend)
        with _field("session"):
            _restore_session_state(session, state["session"])
    finally:
        tm.activate(prev)
    if session.telemetry is not None and state.get("telemetry") is not None:
        with _field("telemetry.counters"):
            for name, value in state["telemetry"]["counters"].items():
                session.telemetry.inc(name, int(value))
    return session


def _restore_engine(
    session: Any, es: dict[str, Any], cfg: Any, backend: str
) -> None:
    eng = session.engine
    # 1. Topology: replay the failed-link stack over the base graph.
    graph = session._base_graph
    failed: list[tuple[int, int, Relationship]] = []
    with _field("engine.failed"):
        for u, v, rel_name in es["failed"]:
            u, v = int(u), int(v)
            # The stack must name links of the replayed graph with the
            # relationship they carry there, or a later recover_link would
            # re-add a different link than the one that failed.
            where = f"checkpoint failed-link stack: link {u}-{v}"
            rel = Relationship.__members__.get(rel_name) if isinstance(rel_name, str) else None
            if rel is None:
                raise ConfigError(f"{where} has unknown relationship {rel_name!r}")
            if not graph.are_adjacent(u, v):
                raise ConfigError(f"{where} is not a link of the topology")
            actual = graph.relationship(u, v)
            if actual is not rel:
                raise ConfigError(
                    f"{where} is recorded as {rel.name} but the topology has {actual.name}"
                )
            graph = without_link(graph, u, v)
            failed.append((u, v, rel))
    eng.graph = graph
    eng._failed = failed
    # 2. Routing: a fresh cache over the live graph, views recomputed for
    # every checkpointed destination (live views provably equal a fresh
    # recompute — the crosscheck contract), counters restored verbatim.
    eng.routing = IncrementalRouting(
        graph,
        backend=backend,
        recompute="dirty" if cfg.mode == "incremental" else "all",
    )
    with _field("engine.routing_dests"):
        for dest in es["routing_dests"]:
            eng.routing(int(dest))
    with _field("engine.counters"):
        counters = es["counters"]
        eng.routing.dests_recomputed = int(counters["dests_recomputed"])
        eng.routing.dests_rebased = int(counters["dests_rebased"])
    # 3. The plane's link table, in checkpointed order, then its dense
    # per-link arrays verbatim (hysteresis bits must NOT be recomputed
    # — they are state, not a function of current load).
    plane = eng.plane
    with _field("engine.links"):
        for u, v in es["links"]:
            plane.intern_link(int(u), int(v))
        n = len(es["links"])
    if len(plane.links) != n:
        raise ConfigError("checkpoint field engine.links lists a link twice")
    cap_factor = _column(es, "cap_factor", n, np.float64)
    check_capacity_factor(cap_factor)
    plane.cap_factor[:n] = cap_factor
    plane.exo_frac[:n] = _column(es, "exo_frac", n, np.float64)
    plane.congested[:n] = _column(es, "congested", n, bool)
    plane.alloc[:n] = _column(es, "alloc", n, np.float64)
    # 4. The flow population (insertion order == checkpoint order ==
    # ascending registration order), each routed flow re-added to the
    # solver as it is placed.  A path must be one the live engine could
    # have routed: from src to dst over links of the replayed graph.
    eng._flows = {}
    with _field("engine.flows"):
        for fid, src, dst, path, on_alt, switches, rate in es["flows"]:
            f = Flow(int(fid), int(src), int(dst))
            if f.flow_id in eng._flows:
                raise ConfigError(f"checkpoint flow {f.flow_id} is listed twice")
            if path is not None:
                path = tuple(int(x) for x in path)
                hops = zip(path, path[1:])
                if (
                    not path
                    or (path[0], path[-1]) != (f.src, f.dst)
                    or not all(graph.are_adjacent(a, b) for a, b in hops)
                ):
                    raise ConfigError(
                        f"checkpoint flow {f.flow_id}: path {list(path)} does not "
                        f"run from {f.src} to {f.dst} over links of the topology"
                    )
                plane.place(f, path, bool(on_alt))
            f.switches = int(switches)
            f.rate_bps = float(rate)
            eng._flows[f.flow_id] = f
    with _field("engine.next_flow_id"):
        eng._next_flow_id = int(es["next_flow_id"])
    with _field("engine.event_no"):
        eng._event_no = int(es["event_no"])
    # 5. Solver: one priming fill over the re-added flows.  Fill
    # results are independent of column numbering, so the rebuilt pool's
    # rates, memo tick and last-round count land exactly where the
    # uninterrupted solver's were; lifetime counters then restore on top.
    pool = eng.solver
    pool.set_capacity(plane.residual())
    pool.solve()
    # Seed the free-list *after* the live flows (so they don't consume
    # the recycled segments) — replay then recycles columns exactly as
    # the uninterrupted pool would, keeping ``flowsim.cols_reused`` in
    # lockstep.
    with _field("engine.free_segments"):
        pool.seed_free_segments(
            {int(n): int(c) for n, c in es["free_segments"].items()}
        )
    with _field("engine.counters.pool"):
        pc = counters["pool"]
        pool.pool_hits = int(pc["pool_hits"])
        pool.cols_reused = int(pc["cols_reused"])
        pool.warm_rounds_saved = int(pc["warm_rounds_saved"])
        pool.rounds_total = int(pc["rounds_total"])
        pool.solves = int(pc["solves"])
        pool.hits = int(pc["hits"])
    # 6. The record ring.
    eng.records.clear()
    with _field("engine.records"):
        for row in es["records"]:
            eng.records.append(EventRecord(**row))
    # 7. Measurement state: detector windows verbatim (null when the
    # config has detector="oracle", which has no monitor — both sides
    # must agree via the round-tripped config).
    mon = eng._rtt
    with _field("engine.rtt"):
        rtt = es["rtt"]
        if (rtt is None) != (mon is None):
            raise ConfigError(
                f"checkpoint field engine.rtt disagrees with detector={cfg.detector!r}"
            )
        if mon is not None:
            mon._rtt_samples_total = int(rtt["samples_total"])
            mon._rtt_alarms_total = int(rtt["alarms_total"])
            series = {}
            for fid, base, count, last, streak, baseline, values, epochs in rtt[
                "series"
            ]:
                det = mon.new_detector()
                det._cp_base = int(base)
                det._cp_count = int(count)
                det._cp_last = int(last)
                det._cp_streak = int(streak)
                det._cp_baseline = None if baseline is None else float(baseline)
                det._cp_values = [float(x) for x in values]
                det._cp_epochs = [int(x) for x in epochs]
                series[int(fid)] = det
            mon._rtt_series = series


def _restore_session_state(session: Any, ss: dict[str, Any]) -> None:
    session._tick = int(ss["tick"])
    session._clock = float(ss["clock_s"])
    session._stream_index = int(ss["stream_index"])
    session.arrivals_total = int(ss["arrivals_total"])
    session.retired_total = int(ss["retired_total"])
    expiry = [(int(t), int(fid)) for t, fid in ss["expiry"]]
    heapq.heapify(expiry)
    session._expiry = expiry
    fed: deque[tuple[float, StreamEvent]] = deque()
    for dt, kind, fields in ss["fed"]:
        event_cls = STREAM_EVENT_TYPES.get(kind)
        if event_cls is None:
            raise ConfigError(f"unknown fed event kind {kind!r} in checkpoint")
        fed_event = event_cls(**fields)
        check_fed(dt, fed_event, session._base_graph)
        fed.append((float(dt), fed_event))
    session._fed = fed
    pending: list[ServiceTick] = []
    for retire, kind, fields in ss["pending"]:
        # Only arrivals buffer (every other event is a barrier), and the
        # session numbers the next arrival by counting the buffered ticks.
        if kind != "arrival":
            raise ConfigError(
                f"pending event kind {kind!r} in checkpoint: only arrivals buffer"
            )
        pending.append(
            ServiceTick(retire=tuple(int(x) for x in retire), event=FlowArrival(**fields))
        )
    session._pending = pending
