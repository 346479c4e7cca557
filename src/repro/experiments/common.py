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

Figs. 5, 6, 8 and 9 are one experiment along different axes: each is a
:class:`Grid` of ``Cell(scheme, value)`` simulations over one traffic
spec, computed by :func:`run_grid` into a :class:`Cells` container.  A
figure module keeps only its grid, its metric and its render.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any, Literal, NamedTuple

import numpy as np

from .. import telemetry as tm
from ..bgp.propagation import DEFAULT_BACKEND, RoutingCache, check_backend
from ..errors import ConfigError
from ..mifo.deflection import MifoPathBuilder
from ..miro.negotiation import MiroRouting
from ..flowsim.providers import BgpProvider, MifoProvider, MiroProvider, PathProvider
from ..flowsim.simulator import FluidSimConfig, FluidSimResult, FluidSimulator
from ..topology.asgraph import ASGraph
from ..topology.generator import TopologyConfig, generate_topology
from ..traffic.matrix import TrafficConfig, powerlaw_matrix, uniform_matrix
from .result import ExperimentResult, freeze_series

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..flowsim.flow import FlowSpec
    from ..telemetry.core import EventValue
    from ..verify.report import VerificationReport

__all__ = [
    "Cell",
    "Cells",
    "ExperimentScale",
    "Grid",
    "SCALES",
    "get_scale",
    "SharedContext",
    "deployment_sample",
    "instrumented_run",
    "make_provider",
    "provenance_meta",
    "run_grid",
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

    def __init__(self, scale: ExperimentScale, *, backend: str = DEFAULT_BACKEND) -> None:
        self.scale = scale
        self.backend = check_backend(backend)
        with tm.span("topology.build"):
            self.graph: ASGraph = generate_topology(scale.topology_config())
        self.routing = RoutingCache(self.graph, backend=backend)

    @classmethod
    def get(
        cls, scale: str | ExperimentScale, *, backend: str = DEFAULT_BACKEND
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
) -> PathProvider:
    """Instantiate the path provider for one of the three schemes."""
    scheme = scheme.upper()
    if scheme == "BGP":
        return BgpProvider(graph, routing)
    if scheme == "MIRO":
        return MiroProvider(MiroRouting(graph, routing, capable))
    if scheme == "MIFO":
        return MifoProvider(MifoPathBuilder(graph, routing, capable))
    raise ConfigError(f"unknown scheme {scheme!r}")


#: label -> the (x, y) points of one plotted curve
Series = dict[str, list[tuple[float, float]]]
#: what a figure's metric returns: its ``series`` and its ``meta`` headlines
Measured = tuple[Series, Mapping[str, object]]


class Cell(NamedTuple):
    """One simulation of a figure: a scheme at one axis value."""

    scheme: str
    value: float


@dataclasses.dataclass(frozen=True)
class Grid:
    """A figure as data: every scheme at every axis value, and how to
    measure and render the simulations.

    On the ``"deployment"`` axis a value is the deployment ratio and all
    cells share one uniform matrix.  On the ``"alpha"`` axis a value is
    the Zipf skew of a power-law matrix and every cell deploys
    ``deployment``.  The matrix seed is the scale's seed + ``seed_offset``.
    """

    schemes: tuple[str, ...]
    axis: Literal["deployment", "alpha"]
    values: tuple[float, ...]
    seed_offset: int
    metric: Callable[[Cells], Measured]
    render: Callable[[Cells], str]
    deployment: float = 1.0

    def __post_init__(self) -> None:
        seen: dict[str, float] = {}
        for value in self.values:
            label = self.label(value)
            if label in seen:
                raise ConfigError(
                    f"{self.axis} values {seen[label]!r} and {value!r} both label as {label!r}"
                )
            seen[label] = value

    def label(self, value: float) -> str:
        """How ``value`` prints in series and meta labels."""
        return f"{value:.0%}" if self.axis == "deployment" else f"alpha={value:.1f}"


@dataclasses.dataclass(frozen=True)
class Cells:
    """A figure's simulations by grid cell, in grid order:
    ``cells["MIFO", 0.5]``.  Cells that share a run (BGP across a
    deployment axis) hold the same result object."""

    scale_name: str
    grid: Grid
    results: dict[Cell, FluidSimResult]

    def __getitem__(self, cell: tuple[str, float]) -> FluidSimResult:
        return self.results[Cell(*cell)]

    def render(self) -> str:
        """The figure's human-readable report."""
        return self.grid.render(self)


def run_grid(
    name: str, scale: str | ExperimentScale, grid: Grid, *, backend: str, solver: str
) -> ExperimentResult:
    """Simulate every cell of ``grid``, value-major, and measure them.

    Each simulation runs under an ``experiments.cell`` span.  BGP ignores
    deployment, so it runs once per traffic matrix and its cells share
    that run.  ``solver`` picks :attr:`FluidSimConfig.solver`.  An
    ``"alpha"`` grid reports its fixed ``deployment`` in ``meta``.
    """
    sc = get_scale(scale)
    ctx = SharedContext.get(sc, backend=backend)
    config = FluidSimConfig(solver=solver)
    matrices: dict[float | None, list[FlowSpec]] = {}
    sims: dict[tuple[str, float | None, float | None], FluidSimResult] = {}
    results: dict[Cell, FluidSimResult] = {}
    for cell in (Cell(s, v) for v in grid.values for s in grid.schemes):
        alpha, ratio = (cell.value, grid.deployment) if grid.axis == "alpha" else (None, cell.value)
        bgp = cell.scheme == "BGP"
        key = (cell.scheme, alpha, None if bgp else ratio)
        if key not in sims:
            with tm.span("experiments.cell"):
                if alpha not in matrices:
                    matrices[alpha] = _matrix(ctx.graph, sc, grid.seed_offset, alpha)
                    # Converge every destination the workload will touch
                    # up front, in kernel blocks.
                    ctx.routing.precompute({spec.dst for spec in matrices[alpha]})
                capable = frozenset() if bgp else deployment_sample(ctx.graph, ratio)
                provider = make_provider(cell.scheme, ctx.graph, ctx.routing, capable)
                sims[key] = FluidSimulator(ctx.graph, provider, config).run(matrices[alpha])
        results[cell] = sims[key]
    cells = Cells(sc.name, grid, results)
    meta: dict[str, object] = dict(provenance_meta(ctx))
    if grid.axis == "alpha":
        meta["deployment"] = grid.deployment
    with tm.span("metrics.compute"):
        series, measured = grid.metric(cells)
    return ExperimentResult(
        name=name,
        scale=sc.name,
        series=freeze_series(series),
        meta={**meta, **measured},
        raw=cells,
    )


def _matrix(
    graph: ASGraph, sc: ExperimentScale, seed_offset: int, alpha: float | None
) -> list[FlowSpec]:
    """The scale's uniform matrix, or its power-law matrix at skew ``alpha``."""
    seed = sc.seed + seed_offset
    cfg = TrafficConfig(n_flows=sc.n_flows, arrival_rate=sc.arrival_rate, seed=seed)
    if alpha is None:
        return uniform_matrix(graph, cfg)
    # The paper uses one million content providers; we use every AS ranked
    # by connectivity, capped to keep the Zipf tail meaningful at scale.
    cfg = dataclasses.replace(cfg, alpha=alpha)
    return powerlaw_matrix(graph, cfg, n_providers=max(50, sc.n_ases // 20))
