"""Flow objects: the workload, the live flow and the finished record."""

from __future__ import annotations

import dataclasses
from typing import ClassVar

__all__ = ["Flow", "FlowSpec", "FlowRecord"]


@dataclasses.dataclass(frozen=True, slots=True)
class FlowSpec:
    """A flow to be simulated: who, where, how much, when.

    The paper's Section IV workload: 10 MB flows, Poisson starts at 100
    flows/s, endpoints drawn from the traffic matrix.
    """

    flow_id: int
    src: int
    dst: int
    size_bytes: float
    start_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class FlowRecord:
    """Everything the experiments need about one finished flow."""

    flow_id: int
    src: int
    dst: int
    size_bytes: float
    start_time: float
    finish_time: float
    path_switches: int  #: Fig-9 metric: deflections + resumes
    used_alternative: bool  #: Fig-8 metric: ever carried on a non-default path
    initial_path_len: int
    final_path_len: int = 0  #: AS hops of the path the flow ended on

    @property
    def duration(self) -> float:
        """Finish time minus start time."""
        return self.finish_time - self.start_time

    @property
    def throughput_bps(self) -> float:
        """End-to-end goodput — the Fig-5/6 CDF variable."""
        if self.duration <= 0.0:
            return float("inf")
        return self.size_bytes * 8.0 / self.duration


class Flow:
    """One flow on the plane: its endpoints, its path and its rate.

    The one mutable flow both simulators keep.  ``path`` is ``None`` while
    the flow has no route; ``link_ids`` are the plane's indices of its
    hops; ``on_alt`` is whether the path took a MIFO alternative;
    ``switches`` counts path changes after the first placement (the
    Fig. 9 metric).  A simulator's own per-flow state (the fluid
    simulator's bits left, for one) stays in that simulator.
    """

    __slots__ = ("flow_id", "src", "dst", "path", "link_ids", "on_alt", "switches", "rate_bps")

    DERIVABLE: ClassVar[dict[str, str]] = {
        "link_ids": "re-interned from the captured path by restore",
    }

    def __init__(self, flow_id: int, src: int, dst: int) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.path: tuple[int, ...] | None = None
        self.link_ids: list[int] = []
        self.on_alt = False
        self.switches = 0
        self.rate_bps = 0.0  #: assigned by the max-min fill
