"""Fluid AS-level flow simulator (system S5 in DESIGN.md) — the NS-3
substitute behind Figures 5, 6, 8 and 9."""

from .flow import Flow, FlowRecord, FlowSpec
from .incremental import IncrementalMaxMin
from .maxmin import build_incidence, maxmin_rates
from .plane import FlowPlane
from .providers import (
    BgpProvider,
    LinkView,
    MifoProvider,
    MiroProvider,
    PathProvider,
)
from .simulator import FluidSimConfig, FluidSimResult, FluidSimulator

__all__ = [
    "FlowSpec",
    "FlowRecord",
    "Flow",
    "build_incidence",
    "maxmin_rates",
    "IncrementalMaxMin",
    "FlowPlane",
    "PathProvider",
    "LinkView",
    "BgpProvider",
    "MiroProvider",
    "MifoProvider",
    "FluidSimConfig",
    "FluidSimResult",
    "FluidSimulator",
]
