"""Shared scaffolding for the per-figure experiment modules.

Every experiment accepts an :class:`ExperimentScale` controlling topology
size and workload volume.  Three presets:

* ``test``  — seconds; used by the integration test suite;
* ``default`` — a laptop-scale run whose *shapes* reproduce the paper
  (minutes; what the benches run);
* ``paper`` — the paper's full magnitudes (44,340 ASes, 10^6 flows);
  provided for completeness, expect hours.

All experiments share one topology and one routing cache per scale+seed so
a bench that regenerates several figures pays for BGP convergence once.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import telemetry as tm
from ..bgp.propagation import RoutingCache
from ..errors import ConfigError
from ..mifo.deflection import MifoPathBuilder
from ..miro.negotiation import MiroConfig, MiroRouting
from ..flowsim.providers import BgpProvider, MifoProvider, MiroProvider, PathProvider
from ..flowsim.simulator import FluidSimConfig, FluidSimulator
from ..topology.asgraph import ASGraph
from ..topology.generator import TopologyConfig, generate_topology

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..flowsim.flow import FlowSpec
    from ..flowsim.simulator import FluidSimResult
    from ..telemetry.core import EventValue
    from ..verify.report import VerificationReport

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "SharedContext",
    "deployment_sample",
    "instrumented_run",
    "make_provider",
    "provenance_meta",
]


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """Size knobs for a whole experiment family."""

    name: str
    n_ases: int
    n_flows: int
    arrival_rate: float  #: flow starts per second (Poisson)
    n_pairs: int  #: sampled AS pairs for the diversity figure
    seed: int = 2014

    def topology_config(self) -> TopologyConfig:
        """The TopologyConfig this scale generates."""
        return TopologyConfig(n_ases=self.n_ases, seed=self.seed)


SCALES: dict[str, ExperimentScale] = {
    "test": ExperimentScale("test", n_ases=300, n_flows=400, arrival_rate=400.0, n_pairs=60),
    # "bench" trades a little statistical smoothness for wall-clock so the
    # full per-figure bench suite finishes in minutes.
    "bench": ExperimentScale(
        "bench", n_ases=1200, n_flows=1200, arrival_rate=1200.0, n_pairs=250
    ),
    "default": ExperimentScale(
        "default", n_ases=2000, n_flows=2500, arrival_rate=1500.0, n_pairs=400
    ),
    # The paper's Section IV magnitudes.  The arrival rate is the paper's
    # 100 flows/s; at 44k ASes that yields the paper's load level.
    "paper": ExperimentScale(
        "paper", n_ases=44_340, n_flows=1_000_000, arrival_rate=100.0, n_pairs=2000
    ),
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Resolve a scale name (or pass an ExperimentScale through)."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ConfigError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


class SharedContext:
    """Topology + routing cache shared across figures at one scale.

    Contexts are memoized on the **full** frozen :class:`ExperimentScale`
    plus the routing backend — not just ``(name, seed)``, which silently
    aliased two scales sharing a name but differing in ``n_ases``.
    Experiments bulk-fill :attr:`routing` with
    :meth:`~repro.bgp.propagation.RoutingCache.precompute`.
    """

    _cache: dict[tuple[ExperimentScale, str], "SharedContext"] = {}

    def __init__(self, scale: ExperimentScale, *, backend: str = "dict") -> None:
        self.scale = scale
        self.backend = backend
        with tm.span("topology.build"):
            self.graph: ASGraph = generate_topology(scale.topology_config())
        self.routing = RoutingCache(self.graph, backend=backend)

    @classmethod
    def get(
        cls, scale: str | ExperimentScale, *, backend: str = "dict"
    ) -> "SharedContext":
        """The memoized context for ``scale`` (built on first use)."""
        sc = get_scale(scale)
        key = (sc, backend)
        ctx = cls._cache.get(key)
        if ctx is None:
            ctx = cls(sc, backend=backend)
            cls._cache[key] = ctx
        return ctx

    def verify(
        self,
        *,
        capable: frozenset[int] | None = None,
        events: "Sequence[dict[str, EventValue]] | None" = None,
    ) -> "VerificationReport":
        """Post-run invariant gate: statically re-prove loop-freedom,
        valley-freedom and FIB/RIB consistency over every destination this
        context's cache has converged.  Raises
        :class:`~repro.errors.VerificationError` on refutation.

        ``events`` — a recorded telemetry trace (sequence of event dicts);
        when given, the gate also cross-checks every recorded deflection
        decision against FIB state (``verify.gate.crosscheck_trace``)."""
        from ..verify.gate import post_run_gate

        return post_run_gate(
            self.graph, self.routing, capable=capable, events=events
        )


def provenance_meta(ctx: SharedContext) -> dict[str, Any]:
    """Standard provenance entries for an experiment's ``meta``.

    All keys live in :data:`~repro.experiments.result.PROVENANCE_KEYS`
    and therefore stay outside the determinism-checked payload.
    """
    return {
        "backend": ctx.backend,
        "routing_cache": dataclasses.asdict(ctx.routing.stats),
    }


def instrumented_run(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Give an experiment's ``run()`` the unified telemetry keyword.

    The wrapped function accepts ``telemetry=`` (a
    :class:`~repro.telemetry.Telemetry`, ``True`` for a fresh throwaway
    registry, or ``None``/``False`` for off — see
    :func:`repro.telemetry.telemetry_session`), times the whole call under
    an ``experiment.run`` span, and attaches the session's delta to
    ``result.meta["telemetry"]``.  The key lives in
    :data:`~repro.experiments.result.PROVENANCE_KEYS`, so enabling
    telemetry never perturbs the determinism-checked payload.
    """

    @functools.wraps(fn)
    def wrapper(
        *args: Any,
        telemetry: "tm.Telemetry | bool | None" = None,
        **kwargs: Any,
    ) -> Any:
        with tm.telemetry_session(telemetry) as session:
            with tm.span("experiment.run"):
                result = fn(*args, **kwargs)
            if session is not None:
                result.meta["telemetry"] = session.meta()
        return result

    return wrapper


def deployment_sample(
    graph: ASGraph, ratio: float, *, seed: int = 77
) -> frozenset[int]:
    """A deterministic random sample of ASes deploying MIFO/MIRO.

    ``ratio`` in (0, 1]; 1.0 returns every AS.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"deployment ratio {ratio} outside (0, 1]")
    nodes = sorted(graph.nodes())
    if ratio >= 1.0:
        return frozenset(nodes)
    rng = np.random.default_rng(seed)
    k = max(1, int(round(len(nodes) * ratio)))
    return frozenset(int(x) for x in rng.choice(nodes, size=k, replace=False))


def make_provider(
    scheme: str,
    graph: ASGraph,
    routing: RoutingCache,
    capable: frozenset[int],
    *,
    miro_config: MiroConfig | None = None,
) -> PathProvider:
    """Instantiate the path provider for one of the three schemes."""
    scheme = scheme.upper()
    if scheme == "BGP":
        return BgpProvider(graph, routing)
    if scheme == "MIRO":
        return MiroProvider(MiroRouting(graph, routing, capable, miro_config))
    if scheme == "MIFO":
        return MifoProvider(MifoPathBuilder(graph, routing, capable))
    raise ConfigError(f"unknown scheme {scheme!r}")


def run_scheme(
    ctx: SharedContext,
    scheme: str,
    capable: frozenset[int],
    specs: "list[FlowSpec]",
    *,
    sim_config: FluidSimConfig | None = None,
    solver: str | None = None,
) -> "FluidSimResult":
    """Run one (scheme, deployment) fluid simulation over ``specs``.

    ``solver`` overrides :attr:`FluidSimConfig.solver` (``"incremental"``
    or ``"full"``) without the caller building a whole config; results are
    byte-identical either way.
    """
    # Converge every destination the workload will touch up front — in
    # kernel blocks instead of one at a time at first use inside the
    # simulator loop.
    ctx.routing.precompute({spec.dst for spec in specs})
    provider = make_provider(scheme, ctx.graph, ctx.routing, capable)
    config = sim_config or FluidSimConfig()
    if solver is not None:
        config = dataclasses.replace(config, solver=solver)
    sim = FluidSimulator(ctx.graph, provider, config)
    return sim.run(specs)
