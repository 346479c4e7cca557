"""The six named workloads and the metric tables ``BENCHMARK.json`` mirrors.

A workload is a class: constructing it is the set-up (``cls(seed, size, tr)``),
``round(r, rec, tr)`` performs round ``r``'s operations and times each one,
``check()`` verifies the outputs outside the timed region, and
``layers(tr, rec)`` turns the spans and the program's public counters into
per-layer metrics (traced runs only; may run extra probes).

The topology seed stays :data:`TOPOLOGY_SEED` so every graph is the
Table-I-matched one; what ``--seed`` drives is stated in each workload's
module docstring, with the reason wherever an input is kept out of its reach.
"""

from __future__ import annotations

from bench.trace import name_totals

#: seed of every generated topology (the repo-wide default).
TOPOLOGY_SEED = 2014

#: name -> (unit, better); every workload reports every one of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "units_per_s": ("1/s", "higher"),
    "lat_p50_ms": ("ms", "lower"),
    "lat_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better).  A workload that never enters a layer reports 0.
PER_LAYER = {
    "bench.wall_s": ("s", "lower"),
    "bench.units": ("count", "higher"),
    "bench.self_s": ("s", "lower"),
    "topology.build_s": ("s", "lower"),
    "topology.csr_s": ("s", "lower"),
    "topology.n_links": ("count", "lower"),
    "traffic.matrix_s": ("s", "lower"),
    "bgp.propagate_s": ("s", "lower"),
    "bgp.dests_converged": ("count", "lower"),
    "bgp.us_per_dest": ("us", "lower"),
    "bgp.query_s": ("s", "lower"),
    "bgp.queries": ("count", "higher"),
    "bgp.ns_per_query": ("ns", "lower"),
    "bgp.cache_hits": ("count", "higher"),
    "bgp.cache_misses": ("count", "lower"),
    "bgp.hit_ratio": ("ratio", "higher"),
    "bgp.view_bytes": ("bytes/dest", "lower"),
    "bgp.pool_dests_per_s": ("1/s", "higher"),
    "bgp.pool_speedup": ("ratio", "higher"),
    "mifo.deflect_s": ("s", "lower"),
    "mifo.paths_built": ("count", "higher"),
    "mifo.deflections": ("count", "higher"),
    "mifo.deflect_ratio": ("ratio", "higher"),
    "mifo.us_per_path": ("us", "lower"),
    "miro.provider_s": ("s", "lower"),
    "miro.paths": ("count", "higher"),
    "flowsim.run_s": ("s", "lower"),
    "flowsim.self_s": ("s", "lower"),
    "flowsim.sims": ("count", "higher"),
    "flowsim.flows_completed": ("count", "higher"),
    "flowsim.us_per_flow": ("us", "lower"),
    "flowsim.maxmin_iterations": ("count", "lower"),
    "flowsim.pool_hits": ("count", "higher"),
    "flowsim.cols_reused": ("count", "higher"),
    "flowsim.warm_solves": ("count", "lower"),
    "flowsim.warm_hits": ("count", "higher"),
    "scenario.step_s": ("s", "lower"),
    "scenario.epochs": ("count", "higher"),
    "scenario.dests_recomputed": ("count", "lower"),
    "scenario.dests_rebased": ("count", "higher"),
    "scenario.rebase_ratio": ("ratio", "higher"),
    "scenario.flows_rerouted": ("count", "lower"),
    "scenario.novfy_step_s": ("s", "lower"),
    "verify.certify_s": ("s", "lower"),
    "verify.dests_verified": ("count", "lower"),
    "verify.ms_per_dest": ("ms", "lower"),
    "verify.share": ("ratio", "lower"),
    "verify.probe_ms_per_dest": ("ms", "lower"),
    "service.step_s": ("s", "lower"),
    "service.events": ("count", "higher"),
    "service.flaps": ("count", "lower"),
    "service.flap_p50_ms": ("ms", "lower"),
    "service.arrival_p50_ms": ("ms", "lower"),
    "service.live_flows": ("count", "higher"),
    "service.flushes": ("count", "lower"),
    "service.events_per_flush": ("ratio", "higher"),
    "service.us_per_event": ("us", "lower"),
    "service.checkpoint_save_ms": ("ms", "lower"),
    "service.checkpoint_bytes": ("bytes", "lower"),
    "service.restore_ms": ("ms", "lower"),
    "metrics.compute_s": ("s", "lower"),
    "metrics.diversity_pairs": ("count", "higher"),
    "prog.bgp.propagate_s": ("s", "lower"),
    "prog.mifo.deflect_s": ("s", "lower"),
    "prog.flowsim.solve_s": ("s", "lower"),
    "prog.scenario.repropagate_s": ("s", "lower"),
    "prog.scenario.verify_s": ("s", "lower"),
    "prog.scenario.event_s": ("s", "lower"),
    "telemetry.trace_overhead_pct": ("%", "lower"),
}

#: the program's own span names copied into ``prog.<span>_s``.
PROG_SPANS = (
    "bgp.propagate",
    "mifo.deflect",
    "flowsim.solve",
    "scenario.repropagate",
    "scenario.verify",
    "scenario.event",
)


def prog_metrics(telemetry) -> dict[str, float]:
    """``prog.<span>_s`` from a :class:`repro.telemetry.Telemetry` registry —
    read through the program's existing public ``telemetry=`` switch."""
    spans = telemetry.snapshot().spans
    return {f"prog.{name}_s": spans.get(name, (0.0, 0))[0] for name in PROG_SPANS}


class SpanTable:
    """Totals of the bench's own spans under one root (``bench.setup`` /
    ``bench.run`` / ``bench.probe``), with zero for names never opened."""

    def __init__(self, tr, under: str) -> None:
        self._totals = name_totals(tr.spans, under)

    def total(self, name: str) -> float:
        return self._totals.get(name, (0.0, 0.0, 0))[0]

    def self_s(self, name: str) -> float:
        return self._totals.get(name, (0.0, 0.0, 0))[1]

    def count(self, name: str) -> int:
        return self._totals.get(name, (0.0, 0.0, 0))[2]


def ratio(num: float, den: float) -> float:
    """``num / den`` with 0 for an empty denominator."""
    return num / den if den else 0.0


def setup_layers(tr, graph) -> dict[str, float]:
    """The set-up spans every workload opens."""
    spans = SpanTable(tr, "bench.setup")
    return {
        "topology.build_s": spans.total("topology.build"),
        "topology.csr_s": spans.total("topology.csr"),
        "topology.n_links": graph.num_links(),
        "traffic.matrix_s": spans.total("traffic.matrix"),
    }


def build_graph(n_ases: int, tr):
    """Generate the seeded topology and its CSR export under spans."""
    from repro.topology.generator import TopologyConfig, generate_topology

    with tr.span("topology.build", "topology"):
        graph = generate_topology(TopologyConfig(n_ases=n_ases, seed=TOPOLOGY_SEED))
    with tr.span("topology.csr", "topology"):
        graph.csr()
    return graph


def registry() -> dict[str, type]:
    """Workload name -> class, in the order ``BENCHMARK.json`` lists them."""
    from bench.workloads.fig5_bench import Fig5Bench
    from bench.workloads.path_query_10k import PathQuery10k
    from bench.workloads.scenario_flap import ScenarioFlap
    from bench.workloads.serve import ServeDefault, ServeSmallBatched
    from bench.workloads.table_44k import Table44k

    classes = (Fig5Bench, Table44k, PathQuery10k, ScenarioFlap, ServeDefault, ServeSmallBatched)
    return {cls.name: cls for cls in classes}
