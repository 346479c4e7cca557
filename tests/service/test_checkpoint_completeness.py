"""Checkpoint completeness, checked against the live program.

A session runs, checkpoints and restores; then every instance attribute
(``__slots__`` included) of the nine checkpoint-target classes is
compared, live against restored: numpy arrays by dtype, shape and bytes,
containers element by element (dicts in insertion order), routing views
by their converged tables.  The only names skipped are those in a
class's ``DERIVABLE`` dict, each of which states why the value need not
round-trip.  So an attribute that ``capture`` forgets, or that restore
rebuilds differently, shows up here as a named diff instead of surfacing
later as a replay that drifts.
"""

import dataclasses
import enum
from collections import deque

import numpy as np
import pytest

from repro.bgp.array_routing import ArrayDestinationRouting
from repro.bgp.propagation import DestinationRouting
from repro.flowsim.flow import Flow
from repro.flowsim.incremental import IncrementalMaxMin
from repro.flowsim.plane import FlowPlane
from repro.measure.changepoint import OnlineDetector
from repro.measure.rtt import PathRttMonitor
from repro.scenario.engine import ScenarioEngine
from repro.scenario.incremental import IncrementalRouting
from repro.service import ServiceConfig, ServiceSession
from repro.service.stream import EventStream
from repro.telemetry import Telemetry
from repro.topology.generator import TopologyConfig

#: every class whose state a checkpoint must carry or re-derive
TARGETS = (
    ServiceSession,
    EventStream,
    ScenarioEngine,
    Flow,
    FlowPlane,
    IncrementalRouting,
    IncrementalMaxMin,
    PathRttMonitor,
    OnlineDetector,
)

TOPO = TopologyConfig(n_ases=70, seed=6)
N_STEPS = 60
#: walk after these many steps (the last one lands mid-batch)
CHECKPOINTS = (15, 30, 45, N_STEPS)

_UNSET = object()


def instance_attrs(obj):
    """Every instance attribute of ``obj``, unset slots as ``_UNSET``."""
    attrs = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            attrs[name] = getattr(obj, name, _UNSET)
    return attrs


def _view_tables(view):
    """A routing view's converged state, without its graph and caches."""
    if isinstance(view, ArrayDestinationRouting):
        return view.dest, view.state()
    # Dict tables fill in traversal order, which a rebased view inherits
    # from an older graph; lookups are by AS, so compare them sorted.
    tables = (
        view._cust_dist,
        view._peer_dist,
        view._export_len,
        view._best_class,
        view._next_hop,
    )
    return view.dest, tuple(dict(sorted(t.items())) for t in tables)


class Walk:
    """Collects every live/restored difference as ``path: message``."""

    def __init__(self):
        self.diffs = []
        self.visited = set()

    def target(self, live, restored, where):
        cls = type(live)
        self.visited.add(cls)
        skip = getattr(cls, "DERIVABLE", {})
        a, b = instance_attrs(live), instance_attrs(restored)
        for name in sorted(a.keys() | b.keys()):
            if name not in skip:
                self.value(
                    a.get(name, _UNSET),
                    b.get(name, _UNSET),
                    f"{where}<{cls.__name__}>.{name}",
                )

    def value(self, x, y, where):
        if type(x) is not type(y):
            self.diffs.append(f"{where}: {type(x).__name__} != {type(y).__name__}")
        elif isinstance(x, TARGETS):
            self.target(x, y, where)
        elif isinstance(x, np.ndarray):
            if (x.dtype, x.shape, x.tobytes()) != (y.dtype, y.shape, y.tobytes()):
                self.diffs.append(f"{where}: array {x!r} != {y!r}")
        elif isinstance(x, dict):
            if list(x) != list(y):
                self.diffs.append(f"{where}: keys {list(x)} != {list(y)}")
                return
            for k in x:
                self.value(x[k], y[k], f"{where}[{k!r}]")
        elif isinstance(x, (list, tuple, deque)):
            shape = [(len(c), getattr(c, "maxlen", None)) for c in (x, y)]
            if shape[0] != shape[1]:
                self.diffs.append(f"{where}: (length, maxlen) {shape[0]} != {shape[1]}")
                return
            for i, (u, v) in enumerate(zip(x, y)):
                self.value(u, v, f"{where}[{i}]")
        elif isinstance(x, (DestinationRouting, ArrayDestinationRouting)):
            self.value(_view_tables(x), _view_tables(y), f"{where}.tables")
        elif isinstance(x, Telemetry):
            # Counters are the session's telemetry state (spans, gauges and
            # the trace ring time this process's wall clock).  The checkpoint
            # stores them sorted and every export sorts them, so their
            # insertion order is not state.
            self.value(
                dict(sorted(x.counters.items())),
                dict(sorted(y.counters.items())),
                f"{where}.counters",
            )
        elif dataclasses.is_dataclass(x):
            for field in dataclasses.fields(x):
                name = field.name
                self.value(getattr(x, name), getattr(y, name), f"{where}.{name}")
        elif isinstance(x, float):
            if x.hex() != y.hex():
                self.diffs.append(f"{where}: {x!r} != {y!r}")
        elif isinstance(x, (int, str, enum.Enum, frozenset, type(None))) or x is _UNSET:
            if x != y:
                self.diffs.append(f"{where}: {x!r} != {y!r}")
        else:
            self.diffs.append(f"{where}: no comparison rule for {type(x).__name__}")


def observables(session):
    """The observable part of four DERIVABLE attributes, as their reasons
    state it (the walk skips the attributes themselves):

    * ``ServiceSession._expiry``: the heap's entries, not its layout;
    * ``IncrementalRouting._views``: the cached set and each view's
      tables, not the insertion order;
    * ``IncrementalMaxMin._free``: the per-length occupancy;
    * ``IncrementalMaxMin._tick``: whether a solve is pending.
    """
    routing = session.engine.routing
    solver = session.engine.solver
    return {
        "expiry": sorted(session._expiry),
        "views": {d: _view_tables(routing(d)) for d in routing.cached_destinations()},
        "free_segments": solver.free_segments(),
        "pending": solver.pending,
    }


def walk(live, restored):
    """Diff two sessions over the checkpoint targets; returns the walk."""
    w = Walk()
    w.value(live, restored, "session")
    # The stream hangs off a DERIVABLE attribute, so it is its own root.
    w.value(live._stream, restored._stream, "session._stream")
    w.value(observables(live), observables(restored), "observable")
    return w


@pytest.mark.parametrize("backend", ["dict", "array"])
@pytest.mark.parametrize("detector", ["oracle", "threshold", "changepoint"])
def test_restore_reproduces_every_attribute(detector, backend):
    cfg = ServiceConfig(
        seed=29,
        arrival_rate=60.0,
        mean_lifetime_events=8.0,
        p_link_event=0.1,
        p_capacity_event=0.1,
        record_capacity=24,
        detector=detector,
        batch_max=4,
    )
    live = ServiceSession(cfg, topology=TOPO, backend=backend, telemetry=True)
    visited = set()
    for step in range(1, N_STEPS + 1):
        live.step()
        if step not in CHECKPOINTS:
            continue
        restored = ServiceSession.restore(live.checkpoint())
        w = walk(live, restored)
        assert w.diffs == [], f"after {step} steps:\n" + "\n".join(w.diffs)
        visited |= w.visited
    assert live._pending, "no checkpoint landed mid-batch"
    monitored = {PathRttMonitor, OnlineDetector}
    expected = set(TARGETS) - (monitored if detector == "oracle" else set())
    assert visited == expected


def test_walk_names_a_planted_difference():
    """The walk reports an attribute restore did not reproduce by name."""
    live = ServiceSession(ServiceConfig(seed=3, arrival_rate=60.0), topology=TOPO)
    live.drain(10)
    restored = ServiceSession.restore(live.checkpoint())
    restored.engine.solver.cols_reused += 1
    restored.unsaved = 1
    diffs = walk(live, restored).diffs
    assert any("solver<IncrementalMaxMin>.cols_reused" in d for d in diffs), diffs
    assert any("session<ServiceSession>.unsaved" in d for d in diffs), diffs
