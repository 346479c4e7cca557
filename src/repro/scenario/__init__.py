"""``repro.scenario`` — event-driven dynamic scenarios with incremental
recomputation.

Every other experiment in this repository evaluates MIFO on a *static*
snapshot: one topology, one converged control plane, one workload.  The
paper's motivation, though, is dynamics — congestion appears, links fail
and recover, traffic ramps — and re-running the whole pipeline per data
point caps the timelines that are affordable.  This package makes the
dynamic case first-class:

* :mod:`repro.scenario.events` — the event vocabulary (link failure and
  recovery, capacity degradation, traffic ramps, flash crowds, scripted
  congestion onset), timelines, and the built-in named scenarios;
* :mod:`repro.scenario.incremental` — dirty-set BGP re-propagation: after
  a link event only the destinations whose converged state can actually
  change are re-run; every other cached destination is *rebased* onto the
  new graph unchanged (cross-validated byte-identical against full
  re-propagation);
* :mod:`repro.scenario.engine` — the driver that advances a simulation
  through a timeline, incrementally re-selects MIFO deflections for the
  affected flows only, re-solves max-min rates on the pooled, memoized
  solver (:mod:`repro.flowsim.incremental`), re-certifies the forwarding
  invariants over the dirty destinations after every event, and emits
  per-event telemetry.

Entry points: ``python -m repro scenario run <name>`` on the CLI, or
``repro.experiments.scenario.run(scale, scenario=<name>)`` through the
unified experiment API.
"""

from .engine import ScenarioConfig, ScenarioEngine, ScenarioRun
from .events import (
    SCENARIOS,
    CapacityScale,
    CongestionOnset,
    FlashCrowd,
    LinkFail,
    LinkRecover,
    ScenarioEvent,
    ScenarioSpec,
    TrafficRamp,
    get_scenario,
)
from .incremental import IncrementalRouting

__all__ = [
    "SCENARIOS",
    "CapacityScale",
    "CongestionOnset",
    "FlashCrowd",
    "IncrementalRouting",
    "LinkFail",
    "LinkRecover",
    "ScenarioConfig",
    "ScenarioEngine",
    "ScenarioEvent",
    "ScenarioRun",
    "ScenarioSpec",
    "TrafficRamp",
    "get_scenario",
]
