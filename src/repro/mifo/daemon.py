"""The MIFO Daemon — control-plane companion of the forwarding engine.

In the prototype (paper Section V-A) this is a XORP module that (a) mines
the BGP RIB for alternative paths, (b) collects available link capacity
from the data plane, and (c) keeps the FIB's ``alt`` port pointed at the
best alternative.  Here it is a periodic task on the DES clock doing the
same three jobs against :class:`repro.dataplane.router.Router`.

Greedy selection (Section III-C): instead of probing end-to-end path
bandwidth — too slow and unscalable for 50k ASes — each border router
monitors the *spare capacity of its directly connected inter-AS links*, and
iBGP peers exchange these measurements over their existing TCP session.
The alternative with maximum spare direct-link capacity wins.
"""

from __future__ import annotations

import dataclasses
import typing

from .. import telemetry as tm
from ..dataplane.port import Port
from ..dataplane.router import Router

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..dataplane.events import Simulator

__all__ = ["AltCandidate", "MifoDaemon"]


@dataclasses.dataclass(frozen=True)
class AltCandidate:
    """One alternative path candidate for a destination.

    ``port`` is the local port packets are pushed to (an eBGP port, or an
    iBGP port toward the border router owning the alternative).
    ``measured_port`` is the port whose inter-AS link capacity gauges the
    candidate — the local eBGP port itself, or the *remote* border router's
    eBGP egress as learned through the iBGP measurement exchange.
    """

    port: Port
    measured_port: Port


class MifoDaemon:
    """Periodically refreshes link measurements and FIB ``alt`` ports."""

    def __init__(
        self, sim: "Simulator", router: Router, *, interval: float = 0.05
    ) -> None:
        self.sim = sim
        self.router = router
        self.interval = interval
        self._candidates: dict[str, list[AltCandidate]] = {}
        self._started = False
        self.updates = 0  #: number of alt-port repoints performed

    def register_alternatives(self, dst: str, candidates: list[AltCandidate]) -> None:
        """Declare the RIB-derived alternatives for a destination.

        In the prototype the daemon reads these from the XORP BGP module's
        RIB; experiments here compute them from
        :class:`~repro.bgp.speaker.BgpNetwork` /
        :class:`~repro.bgp.propagation.RoutingView` and hand them
        over — same information, same zero protocol overhead.
        """
        self._candidates[dst] = list(candidates)

    def start(self) -> None:
        """Start the periodic probe tick (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        # (b) collect link capacity measurements from the data plane.
        for port in self.router.ports:
            port.sample_utilization(now)
        # (c) repoint alt ports at the best-measured alternative.
        for dst, candidates in self._candidates.items():
            if not candidates:
                continue
            best = max(candidates, key=lambda c: c.measured_port.spare_capacity(now))
            entry = self.router.fib.lookup(dst)
            if entry.alt_port is not best.port:
                entry.alt_port = best.port
                self.updates += 1
                tm.inc("mifo.daemon_updates")
        self.sim.schedule(self.interval, self._tick)
