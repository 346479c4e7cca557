"""``scenario_flap`` — what ``python -m repro scenario run`` actually costs.

One round plays one timeline through a fresh ``ScenarioEngine`` with
verification **on**, as the CLI does: epoch 0, six fail/recover pairs of
the busiest link, an edge-peering fail/recover, ``CapacityScale`` 0.5 -> 1.0,
``TrafficRamp`` 0.25, ``FlashCrowd`` 1.0 and ``CongestionOnset`` 0.9 -> 0.0.
One operation is one ``engine.step``.  Thirteen of the 21 epochs dirty every
destination, so the median epoch sits well inside the full re-certifications
(with fewer flaps it sat on the edge between them and the millisecond epochs)
and the static verifier does most of the work; the dirty-set size decides how
much.

The 45 demands are one fixed draw, so every round replays the same timeline;
``--seed`` is the engine's seed, which draws the flows ``TrafficRamp`` and
``FlashCrowd`` add (with a fresh demand matrix per seed the median epoch
moved by 10 % between seeds).
"""

from __future__ import annotations

import dataclasses
from time import perf_counter, perf_counter_ns

from bench.harness import Check, digest
from bench.workloads import SpanTable, build_graph, prog_metrics, ratio, setup_layers
from repro import telemetry as tm
from repro.scenario.engine import ScenarioConfig, ScenarioEngine
from repro.scenario.events import (
    CapacityScale,
    CongestionOnset,
    FlashCrowd,
    LinkFail,
    LinkRecover,
    ScenarioSpec,
    TrafficRamp,
)
from repro.traffic.matrix import TrafficConfig, uniform_matrix
from repro.verify.checker import verify_routing

_EVENTS = (
    *(LinkFail(), LinkRecover()) * 6,
    LinkFail(pick="edge-peering"),
    LinkRecover(),
    CapacityScale(factor=0.5),
    CapacityScale(factor=1.0),
    TrafficRamp(frac=0.25),
    FlashCrowd(frac=1.0),
    CongestionOnset(utilization=0.9),
    CongestionOnset(utilization=0.0),
)
SPEC = ScenarioSpec(
    "bench_flap",
    "busiest-link flaps, an edge flap, a brownout, a ramp, a flash crowd, cross traffic",
    tuple((float(i + 1), ev) for i, ev in enumerate(_EVENTS)),
)
#: the demand matrix is one fixed draw (the seed fig5 uses at the default scale).
TRAFFIC_SEED = 2015
#: events (after epoch 0) the check replays in ``mode="full"``.
N_REPLAY = 4
#: destinations of the direct ``verify_routing`` probe.
N_VERIFY_PROBE = 32


class ScenarioFlap:
    name = "scenario_flap"
    unit = "epochs/s"
    why = (
        "a 20-event timeline with verification on, as the CLI runs it: the only workload "
        "where the static verifier does the work and the dirty-set size decides how much"
    )
    setup_reps = 5
    sizes = {
        "full": {"n_ases": 400, "n_flows": 45, "rounds": 2},
        "smoke": {"n_ases": 120, "n_flows": 12, "rounds": 2},
    }

    def __init__(self, seed: int, size: dict, tr) -> None:
        self.seed = seed
        self.graph = build_graph(size["n_ases"], tr)
        with tr.span("traffic.matrix", "traffic"):
            self.demands = uniform_matrix(
                self.graph, TrafficConfig(n_flows=size["n_flows"], seed=TRAFFIC_SEED)
            )
        self.telemetry = tm.Telemetry() if tr.enabled else None
        self.first_records: list = []
        self.step_ns_first = 0
        self.totals = {"recomputed": 0, "rebased": 0, "rerouted": 0, "verified": 0, "epochs": 0}
        self.warm = {"solves": 0, "hits": 0}
        self.last_engine: ScenarioEngine | None = None

    def _engine(self, config: ScenarioConfig) -> ScenarioEngine:
        return ScenarioEngine(
            self.graph, self.demands, SPEC, backend="array", seed=self.seed, config=config
        )

    def round(self, r: int, rec, tr) -> None:
        engine = self._engine(ScenarioConfig())
        round_ns = 0
        with tm.telemetry_session(self.telemetry):
            for when, event in ((0.0, None), *SPEC.timeline):
                t0 = perf_counter_ns()
                with tr.span("scenario.step", "scenario"):
                    engine.step(when, event)
                dt = perf_counter_ns() - t0
                rec.lat_ns.append(dt)
                round_ns += dt
        records = list(engine.records)
        rec.units += len(records)
        self.totals["recomputed"] += engine.routing.dests_recomputed
        self.totals["rebased"] += engine.routing.dests_rebased
        self.totals["rerouted"] += sum(row.flows_rerouted for row in records)
        self.totals["verified"] += sum(row.verified_dests for row in records)
        self.totals["epochs"] += len(records)
        self.warm["solves"] += engine.solver.solves
        self.warm["hits"] += engine.solver.hits
        self.last_engine = engine
        if r == 0:
            self.first_records = records
            self.step_ns_first = round_ns

    def check(self) -> Check:
        """No ``VerificationError`` was raised (it would have ended the loop);
        round 0's records equal a ``mode="full"`` replay of its first events."""
        oracle = self._engine(ScenarioConfig(mode="full"))
        for when, event in ((0.0, None), *SPEC.timeline[:N_REPLAY]):
            oracle.step(when, event)
        failures = diff_records(self.first_records[: N_REPLAY + 1], list(oracle.records))
        rows = [dataclasses.astuple(row) for row in self.first_records]
        return Check(N_REPLAY + 1, failures, digest(rows))

    def layers(self, tr, rec) -> dict[str, float]:
        run = SpanTable(tr, "bench.run")
        # second pass over round 0's inputs with certification off (and the
        # program's telemetry on, as in the traced round it is subtracted from)
        engine = self._engine(ScenarioConfig())
        t0 = perf_counter()
        with tr.span("bench.probe", "bench"), tm.telemetry_session(True):
            for when, event in ((0.0, None), *SPEC.timeline):
                with tr.span("scenario.step_novfy", "scenario"):
                    engine.step(when, event, verify=False)
        novfy_s = perf_counter() - t0
        step_first_s = self.step_ns_first / 1e9
        certify_s = max(0.0, step_first_s - novfy_s)
        verified_first = sum(row.verified_dests for row in self.first_records)
        totals = self.totals
        out = setup_layers(tr, self.graph)
        out.update(prog_metrics(self.telemetry))
        counters = self.telemetry.counters
        out.update(
            {
                "flowsim.maxmin_iterations": counters.get("flowsim.maxmin_iterations", 0),
                "flowsim.pool_hits": counters.get("flowsim.pool_hits", 0),
                "flowsim.cols_reused": counters.get("flowsim.cols_reused", 0),
                "flowsim.warm_solves": self.warm["solves"],
                "flowsim.warm_hits": self.warm["hits"],
                "bgp.dests_converged": counters.get("bgp.destinations_converged", 0),
                "mifo.deflections": counters.get("mifo.deflections", 0),
                "scenario.step_s": run.total("scenario.step"),
                "scenario.epochs": totals["epochs"],
                "scenario.dests_recomputed": totals["recomputed"],
                "scenario.dests_rebased": totals["rebased"],
                "scenario.rebase_ratio": ratio(
                    totals["rebased"], totals["rebased"] + totals["recomputed"]
                ),
                "scenario.flows_rerouted": totals["rerouted"],
                "scenario.novfy_step_s": novfy_s,
                "verify.certify_s": certify_s,
                "verify.dests_verified": totals["verified"],
                "verify.ms_per_dest": ratio(certify_s * 1e3, verified_first),
                "verify.share": ratio(certify_s, step_first_s),
                "verify.probe_ms_per_dest": self._verify_probe(),
            }
        )
        return out

    def _verify_probe(self) -> float:
        """The verifier alone, from outside the scenario engine."""
        engine = self.last_engine
        dests = engine.routing.cached_destinations()[:N_VERIFY_PROBE]
        t0 = perf_counter()
        verify_routing(engine.graph, engine.routing, dests, capable=engine.capable)
        return ratio((perf_counter() - t0) * 1e3, len(dests))


def diff_records(got: list, want: list) -> list[str]:
    """Rows of ``got`` that differ from the oracle's."""
    failures = [f"{len(got)} records, oracle has {len(want)}"] if len(got) != len(want) else []
    failures.extend(
        f"epoch {a.index}: {a} != {b}" for a, b in zip(got, want) if a != b
    )
    return failures
