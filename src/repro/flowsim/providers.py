"""Path providers: how each routing scheme answers "which path now?".

The fluid simulator is scheme-agnostic; it asks a provider for a flow's
initial path and (after congestion-state changes) for reroute decisions.
Three providers reproduce the paper's three compared systems:

* :class:`BgpProvider` — single default path, never changes (the paper's
  "traffic agnostic ... single, best forwarding path");
* :class:`MiroProvider` — choose once at flow start among the negotiated
  strict-policy alternatives; control-plane only, so no mid-flow reaction;
* :class:`MifoProvider` — hop-by-hop data-plane deflection at flow start
  *and* sticky mid-flow rerouting with resume-on-recovery, matching the
  packet engine's flow-pinning semantics.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from ..bgp.propagation import RoutingCache
from ..mifo.deflection import MifoPathBuilder
from ..miro.negotiation import MiroRouting
from ..topology.asgraph import ASGraph
from .flow import Flow, FlowSpec

__all__ = ["LinkView", "PathProvider", "BgpProvider", "MiroProvider", "MifoProvider"]

CongestedFn = Callable[[int, int], bool]
SpareFn = Callable[[int, int], float]


@dataclasses.dataclass(frozen=True)
class LinkView:
    """What a routing scheme may observe about link state.

    ``congested``/``spare`` are the *live* data-plane truth — but note any
    scheme only ever queries them for links local to the deciding AS (the
    first argument of the callable is the link's owner).  The ``stale_*``
    pair reads the control-plane snapshot
    (:meth:`~repro.flowsim.plane.FlowPlane.snapshot`), re-taken every
    ``FluidSimConfig.control_plane_interval`` virtual seconds: the only
    remote knowledge a control-plane scheme like MIRO can have.  The
    live/stale split *is* the paper's control/data-plane decoupling
    argument rendered executable.
    """

    congested: CongestedFn
    spare: SpareFn
    stale_congested: CongestedFn
    stale_spare: SpareFn


class PathProvider:
    """Interface the fluid simulator drives."""

    #: human-readable scheme name used in reports ("BGP", "MIRO", "MIFO").
    name: str = "?"
    #: whether the simulator should offer mid-flow reroutes at all.
    supports_reroute: bool = False

    def initial_path(
        self, spec: FlowSpec, view: LinkView
    ) -> tuple[tuple[int, ...], bool]:
        """Path for a new flow; returns ``(path, on_alternative)``."""
        raise NotImplementedError

    def reroute(
        self, flow: Flow, view: LinkView
    ) -> tuple[tuple[int, ...], bool] | None:
        """Called after congestion transitions; None keeps the current path."""
        return None


class BgpProvider(PathProvider):
    """Conventional BGP: the converged default path, always."""

    name = "BGP"
    supports_reroute = False

    def __init__(self, graph: ASGraph, routing: RoutingCache) -> None:
        self.routing = routing

    def initial_path(
        self, spec: FlowSpec, view: LinkView
    ) -> tuple[tuple[int, ...], bool]:
        """The converged BGP best path; never an alternative."""
        return self.routing(spec.dst).best_path(spec.src), False


class MiroProvider(PathProvider):
    """MIRO strict policy: one control-plane choice at flow start.

    Observability: the negotiating (source) AS sees its own links live but
    every remote link only through the stale control-plane snapshot —
    alternate routes are negotiated and scored on control-plane
    timescales, which is exactly the limitation the paper contrasts MIFO
    against.
    """

    name = "MIRO"
    supports_reroute = False

    def __init__(self, miro: MiroRouting) -> None:
        self.miro = miro

    def initial_path(
        self, spec: FlowSpec, view: LinkView
    ) -> tuple[tuple[int, ...], bool]:
        """One control-plane path choice under MIRO observability."""
        src = spec.src

        def congested(u: int, v: int) -> bool:
            if u == src:
                return view.congested(u, v)
            return view.stale_congested(u, v)

        def spare(u: int, v: int) -> float:
            if u == src:
                return view.spare(u, v)
            return view.stale_spare(u, v)

        return self.miro.choose_path(src, spec.dst, congested, spare)


class MifoProvider(PathProvider):
    """MIFO: data-plane deflection with sticky flows and hysteresis.

    Reroute policy mirrors :class:`repro.mifo.engine.MifoEngine`'s
    flow-pinning: a flow on its default path deflects when a capable AS on
    the path sees its egress congested; a deflected flow resumes the
    default only once the *entire* default path is congestion-free (the
    hysteresis in the simulator's congestion state provides the damping).
    """

    name = "MIFO"
    supports_reroute = True

    def __init__(self, builder: MifoPathBuilder) -> None:
        self.builder = builder
        self.capable = builder.capable
        self.routing = builder.routing

    def initial_path(
        self, spec: FlowSpec, view: LinkView
    ) -> tuple[tuple[int, ...], bool]:
        # MIFO consults only live *local* state: congested(u, v) is always
        # u's own directly connected egress link.
        """A MIFO walk under live local congestion state."""
        outcome = self.builder.build_path(spec.src, spec.dst, view.congested, view.spare)
        return outcome.path, outcome.used_alternative

    def reroute(
        self, flow: Flow, view: LinkView
    ) -> tuple[tuple[int, ...], bool] | None:
        """Deflect or resume after a congestion transition."""
        congested, spare = view.congested, view.spare
        if flow.on_alt:
            default = self.routing(flow.dst).best_path(flow.src)
            if any(
                congested(default[i], default[i + 1])
                for i in range(len(default) - 1)
            ):
                return None  # default still hot: stay deflected
            return default, False  # resume (a switch back)
        # On the default path: deflect only if some capable AS on the path
        # currently faces a congested egress (the packet-level trigger).
        path = flow.path or ()
        trigger = any(
            path[i] in self.capable and congested(path[i], path[i + 1])
            for i in range(len(path) - 1)
        )
        if not trigger:
            return None
        outcome = self.builder.build_path(flow.src, flow.dst, congested, spare)
        if outcome.path == path:
            return None  # no valid alternative was available
        return outcome.path, outcome.used_alternative
