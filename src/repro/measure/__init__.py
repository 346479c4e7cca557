"""Measurement-driven observability: RTT series, changepoints, pathwatch.

The ``repro.measure`` package closes the observe->detect->deflect loop
over the telemetry layer:

* :mod:`repro.measure.rtt` — a deterministic per-path RTT observable
  derived from link propagation delay plus queueing occupancy, with a
  seeded noise model (pure function of ``(seed, flow, epoch)``).
* :mod:`repro.measure.changepoint` — a pure-python online PELT-style
  changepoint detector over scalar series (no RNG anywhere).
* :mod:`repro.measure.eval` — windowed precision/recall/delay scoring
  of detected changepoints against planted ground truth.
* :mod:`repro.measure.pathwatch` — forwarding-pattern analysis over a
  JSONL trace log, reporting observed per-flow path churn against the
  ground-truth scenario events.

The scenario engine samples RTT per active path each epoch when its
``detector`` config selects ``"threshold"`` or ``"changepoint"``, and
deflects flows on detected upward regime shifts instead of the oracle
congestion bits.  That pass is the only producer of ``rtt_sample``
trace events; the fluid simulator takes no samples.
"""

from __future__ import annotations

from .changepoint import CpAlarm, DetectorConfig, OnlineDetector, pelt
from .eval import ChangepointScore, detections_from_trace, planted_changepoints, score_changepoints
from .pathwatch import PathWatchReport, watch_paths
from .rtt import PathRttMonitor, RttAlarm, RttModel, RttModelConfig, RttSample

__all__ = [
    "ChangepointScore",
    "CpAlarm",
    "DetectorConfig",
    "OnlineDetector",
    "PathRttMonitor",
    "PathWatchReport",
    "RttAlarm",
    "RttModel",
    "RttModelConfig",
    "RttSample",
    "detections_from_trace",
    "pelt",
    "planted_changepoints",
    "score_changepoints",
    "watch_paths",
]
