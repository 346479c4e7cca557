"""Figures 11 & 12 — the prototype testbed experiment, in simulation.

The paper's testbed (Fig. 11): 15 machines — 4 end hosts (S1, S2, D1, D2)
and 11 MIFO-capable routers forming 6 ASes, all Gigabit links.  30 TCP
flows of 100 MB run S1→D1 back-to-back, concurrently with 30 flows S2→D2.
Default BGP paths are 1→3→4→5 and 2→3→4→5, colliding on the 3→4 link;
MIFO's border router Rd (AS 3) deflects via iBGP peer Ra onto the
alternative path 3→6→5.  Results: aggregate goodput ≈0.94 Gb/s under BGP
vs ≈1.7 Gb/s under MIFO (+81%); all MIFO flows finish within ~1.1 s while
80% of BGP flows need >1.6 s (Fig. 12).

Router-level reconstruction (11 routers)::

    S1 - R1(AS1) \\                      / R4a=R4b(AS4) - R5a \\
                   Rd(AS3) == Ra(AS3)                          R5c - D1,D2
    S2 - R2(AS2) /     \\         \\      \\ R6a=R6b(AS6) - R5b /
                        \\_ eBGP to R4a   \\_ eBGP to R6a

AS relationships: AS1, AS2 are customers of AS3; AS3 and AS5 are customers
of both AS4 and AS6.  The control plane is *computed*, not hard-coded: a
message-level :class:`~repro.bgp.speaker.BgpNetwork` converges on the six-AS
graph and the router FIBs are derived from it (asserting the paper's
default/alternative paths fall out), so this experiment exercises the BGP
substrate end to end.

Scaling: with 1 KB packets the full 2×30×100 MB run is ~6M data packets —
hours in pure Python.  The default config keeps all rates at 1 Gb/s but
uses 9 KB jumbo segments and 10 MB flows; goodput *ratios* (the +81%
headline) are preserved.  ``TestbedConfig(paper_scale=True)`` restores the
paper's exact parameters.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..bgp.speaker import BgpNetwork
from ..dataplane.host import Host
from ..dataplane.network import Network, ThroughputSampler
from ..dataplane.router import Engine
from ..dataplane.tcp import TcpConfig, TcpSender
from ..errors import SimulationError
from ..metrics.cdf import Cdf
from ..mifo.engine import MifoEngine, MifoEngineConfig, bgp_engine
from ..topology.asgraph import ASGraph
from ..topology.relationships import Relationship
from .report import ascii_series, text_table
from .. import telemetry as tm
from .common import DEFAULT_BACKEND, instrumented_run
from .result import ExperimentResult, freeze_series

__all__ = ["TestbedConfig", "TestbedRun", "Fig12Result", "build_as_graph", "build_testbed", "run"]


@dataclasses.dataclass(frozen=True)
class TestbedConfig:
    """Parameters of the Fig-11 testbed experiment."""

    flows_per_source: int = 30
    flow_size_bytes: float = 10e6
    mss: int = 9000
    link_rate_bps: float = 1e9
    link_delay_s: float = 50e-6
    queue_capacity: int = 64
    sample_interval_s: float = 0.25
    congestion_threshold: float = 0.8
    max_events: int = 80_000_000

    @classmethod
    def paper_scale(cls) -> "TestbedConfig":
        """The paper's exact testbed parameters (slow: ~6M data packets)."""
        return cls(flow_size_bytes=100e6, mss=1000, sample_interval_s=1.0)

    @classmethod
    def test_scale(cls) -> "TestbedConfig":
        """Seconds-fast configuration for the test suite.

        Flows must be long enough for queues (the congestion signal) to
        build past slow start, or the MIFO/BGP contrast washes out.
        """
        return cls(flows_per_source=6, flow_size_bytes=5e6, sample_interval_s=0.1)


def build_as_graph() -> ASGraph:
    """The six-AS business-relationship graph of Fig. 11."""
    return ASGraph.from_links(
        p2c=[(3, 1), (3, 2), (4, 3), (6, 3), (4, 5), (6, 5)],
    )


def _derive_control_plane() -> None:
    """Assert the paper's routing falls out of our BGP implementation."""
    g = build_as_graph()
    net = BgpNetwork(g)
    net.announce(5)  # destination AS (D1/D2 live in AS 5)
    assert net.best_path(1, 5) == (1, 3, 4, 5), net.best_path(1, 5)
    assert net.best_path(2, 5) == (2, 3, 4, 5), net.best_path(2, 5)
    assert net.best_path(3, 5) == (3, 4, 5), net.best_path(3, 5)
    alts = net.rib_neighbors(3, 5)
    assert 6 in alts, f"AS3 should learn the alternative via AS6, rib={alts}"
    net.announce(1)
    net.announce(2)


@dataclasses.dataclass
class TestbedRun:
    """One scheme's testbed run outcome."""

    scheme: str
    completion_times: list[float]  #: per-flow durations (s)
    finish_time: float  #: when the last flow completed
    throughput_series: list[tuple[float, float]]  #: Fig 12(a) series
    mean_aggregate_bps: float
    deflected_packets: int
    encapsulated_packets: int
    valley_drops: int

    def fct_cdf(self) -> Cdf:
        """CDF of flow completion times."""
        return Cdf.from_samples(self.completion_times)


def build_testbed(
    cfg: TestbedConfig, *, mifo: bool, tag_check: bool = True, encap: bool = True
) -> tuple[Network, dict[str, Any]]:
    """Wire the Fig-11 network; returns (network, handles).

    ``mifo=False`` runs every router with plain BGP forwarding (no alt
    ports); ``tag_check``/``encap`` expose the ablation switches.
    """
    _derive_control_plane()
    net = Network()
    qc = cfg.queue_capacity

    def engine() -> Engine:
        if not mifo:
            return bgp_engine
        return MifoEngine(
            MifoEngineConfig(
                congestion_threshold=cfg.congestion_threshold,
                tag_check_enabled=tag_check,
                encap_enabled=encap,
            )
        )

    r1 = net.add_router("R1", 1, engine())
    r2 = net.add_router("R2", 2, engine())
    rd = net.add_router("Rd", 3, engine())
    ra = net.add_router("Ra", 3, engine())
    r4a = net.add_router("R4a", 4, engine())
    r4b = net.add_router("R4b", 4, engine())
    r6a = net.add_router("R6a", 6, engine())
    r6b = net.add_router("R6b", 6, engine())
    r5a = net.add_router("R5a", 5, engine())
    r5b = net.add_router("R5b", 5, engine())
    r5c = net.add_router("R5c", 5, engine())

    s1 = net.add_host("S1")
    s2 = net.add_host("S2")
    d1 = net.add_host("D1")
    d2 = net.add_host("D2")

    rate, delay = cfg.link_rate_bps, cfg.link_delay_s
    kw = dict(rate_bps=rate, delay_s=delay, queue_capacity=qc)

    _, r1_s1 = net.attach_host(s1, r1, rate_bps=rate)
    _, r2_s2 = net.attach_host(s2, r2, rate_bps=rate)
    _, r5c_d1 = net.attach_host(d1, r5c, rate_bps=rate)
    _, r5c_d2 = net.attach_host(d2, r5c, rate_bps=rate)

    # eBGP links (relationship_of_b = b's AS as seen from a's AS).
    r1_rd, rd_r1 = net.connect_routers(r1, rd, relationship_of_b=Relationship.PROVIDER, **kw)
    r2_rd, rd_r2 = net.connect_routers(r2, rd, relationship_of_b=Relationship.PROVIDER, **kw)
    rd_r4a, r4a_rd = net.connect_routers(rd, r4a, relationship_of_b=Relationship.PROVIDER, **kw)
    ra_r6a, r6a_ra = net.connect_routers(ra, r6a, relationship_of_b=Relationship.PROVIDER, **kw)
    r4b_r5a, r5a_r4b = net.connect_routers(r4b, r5a, relationship_of_b=Relationship.CUSTOMER, **kw)
    r6b_r5b, r5b_r6b = net.connect_routers(r6b, r5b, relationship_of_b=Relationship.CUSTOMER, **kw)
    # iBGP full meshes within multi-router ASes.
    rd_ra, ra_rd = net.connect_routers(rd, ra, **kw)
    r4a_r4b, r4b_r4a = net.connect_routers(r4a, r4b, **kw)
    r6a_r6b, r6b_r6a = net.connect_routers(r6a, r6b, **kw)
    r5a_r5c, r5c_r5a = net.connect_routers(r5a, r5c, **kw)
    r5b_r5c, r5c_r5b = net.connect_routers(r5b, r5c, **kw)

    # --- FIBs: forward direction (toward D1/D2 in AS 5) ----------------
    for dst in ("D1", "D2"):
        r1.fib.install(dst, r1_rd)
        r2.fib.install(dst, r2_rd)
        rd.fib.install(dst, rd_r4a, rd_ra if mifo else None)
        # Ra's default next hop toward AS5 is the iBGP path through Rd —
        # the exact Fig-2(b) situation; its alternative is its own eBGP
        # egress to AS6.
        ra.fib.install(dst, ra_rd, ra_r6a if mifo else None)
        r4a.fib.install(dst, r4a_r4b)
        r4b.fib.install(dst, r4b_r5a)
        r5a.fib.install(dst, r5a_r5c)
        r6a.fib.install(dst, r6a_r6b)
        r6b.fib.install(dst, r6b_r5b)
        r5b.fib.install(dst, r5b_r5c)
    r5c.fib.install("D1", r5c_d1)
    r5c.fib.install("D2", r5c_d2)

    # --- FIBs: reverse direction (ACKs toward S1/S2) --------------------
    for dst, r_edge, edge_port in (("S1", r1, r1_s1), ("S2", r2, r2_s2)):
        r5c.fib.install(dst, r5c_r5a)
        r5a.fib.install(dst, r5a_r4b)
        r4b.fib.install(dst, r4b_r4a)
        r4a.fib.install(dst, r4a_rd)
        r5b.fib.install(dst, r5b_r6b)
        r6b.fib.install(dst, r6b_r6a)
        r6a.fib.install(dst, r6a_ra)
        ra.fib.install(dst, ra_rd)
        rd.fib.install(dst, rd_r1 if dst == "S1" else rd_r2)
        r_edge.fib.install(dst, edge_port)

    handles = {
        "sources": (s1, s2),
        "sinks": (d1, d2),
        "routers": {r.name: r for r in (r1, r2, rd, ra, r4a, r4b, r6a, r6b, r5a, r5b, r5c)},
    }
    return net, handles


def _run_one(cfg: TestbedConfig, *, mifo: bool) -> TestbedRun:
    net, handles = build_testbed(cfg, mifo=mifo)
    s1, s2 = handles["sources"]
    sinks = list(handles["sinks"])
    sampler = ThroughputSampler(net, sinks, interval=cfg.sample_interval_s)
    sampler.start()

    tcp_cfg = TcpConfig(mss=cfg.mss)
    completions: list[float] = []
    expected = 2 * cfg.flows_per_source

    def chain(host: Host, dst: str, base_flow_id: int, remaining: int) -> None:
        def on_complete(sender: TcpSender) -> None:
            completions.append(sender.duration)
            if remaining > 1:
                chain(host, dst, base_flow_id + 1, remaining - 1)
            elif len(completions) == expected:
                sampler.stop()  # all flows done: let the queue drain

        host.start_flow(
            base_flow_id, dst, cfg.flow_size_bytes, config=tcp_cfg, on_complete=on_complete
        )

    chain(s1, "D1", 1000, cfg.flows_per_source)
    chain(s2, "D2", 2000, cfg.flows_per_source)

    net.run(max_events=cfg.max_events)
    if len(completions) != expected:
        raise SimulationError(
            f"only {len(completions)}/{expected} flows completed"
        )
    routers = handles["routers"]
    return TestbedRun(
        scheme="MIFO" if mifo else "BGP",
        completion_times=completions,
        finish_time=net.sim.now,
        throughput_series=sampler.series_bps(),
        mean_aggregate_bps=sampler.mean_bps(),
        deflected_packets=sum(r.counters.deflected for r in routers.values()),
        encapsulated_packets=sum(r.counters.encapsulated for r in routers.values()),
        valley_drops=sum(r.counters.dropped_valley for r in routers.values()),
    )


@dataclasses.dataclass
class Fig12Result:
    """Paper Fig. 12: BGP vs MIFO on the six-AS testbed."""
    bgp: TestbedRun
    mifo: TestbedRun
    config: TestbedConfig

    @property
    def improvement(self) -> float:
        """Aggregate-goodput improvement of MIFO over BGP (paper: 0.81)."""
        if self.bgp.mean_aggregate_bps <= 0:
            return 0.0
        return self.mifo.mean_aggregate_bps / self.bgp.mean_aggregate_bps - 1.0

    def rows(self) -> list[list[object]]:
        """Table rows: one per scheme."""
        rows = []
        for run_ in (self.bgp, self.mifo):
            fct = np.asarray(run_.completion_times)
            rows.append(
                [
                    run_.scheme,
                    f"{run_.mean_aggregate_bps / 1e9:.2f}",
                    f"{run_.finish_time:.2f}",
                    f"{np.median(fct):.3f}",
                    f"{fct.max():.3f}",
                    run_.deflected_packets,
                ]
            )
        return rows

    def render(self) -> str:
        """Human-readable report table."""
        table = text_table(
            ["Scheme", "Aggregate Gb/s", "Makespan s", "Median FCT s", "Max FCT s", "Deflected pkts"],
            self.rows(),
            title="Figure 12: Testbed experiment (paper: BGP 0.94 Gb/s, MIFO ~1.7 Gb/s, +81%)",
        )
        summary = f"\nMIFO aggregate-throughput improvement over BGP: {self.improvement:+.0%} (paper +81%)"
        plot_a = ascii_series(
            {
                "BGP": [(t, v / 1e9) for t, v in self.bgp.throughput_series],
                "MIFO": [(t, v / 1e9) for t, v in self.mifo.throughput_series],
            },
            title="Fig 12(a): aggregate goodput (Gb/s) vs time (s)",
            xlabel="time s",
            ylabel="Gb/s",
        )
        bx, by = self.bgp.fct_cdf().series(points=30)
        mx, my = self.mifo.fct_cdf().series(points=30)
        plot_b = ascii_series(
            {"BGP": list(zip(bx, by)), "MIFO": list(zip(mx, my))},
            title="Fig 12(b): CDF(%) of flow completion time (s)",
            xlabel="FCT s",
            ylabel="CDF %",
        )
        return table + summary + "\n\n" + plot_a + "\n\n" + plot_b


@instrumented_run
def run(
    scale: str = "default",
    *,
    backend: str = DEFAULT_BACKEND,
    config: TestbedConfig | None = None,
) -> ExperimentResult:
    """Reproduce paper Fig. 12 (testbed FCT comparison)."""
    del backend  # the testbed's control plane is the message-level BgpNetwork
    if config is None:
        config = TestbedConfig.test_scale() if scale == "test" else TestbedConfig()
    bgp = _run_one(config, mifo=False)
    mifo = _run_one(config, mifo=True)
    raw = Fig12Result(bgp=bgp, mifo=mifo, config=config)

    with tm.span("metrics.compute"):
        series = {
            "BGP Gb/s": [(t, v / 1e9) for t, v in raw.bgp.throughput_series],
            "MIFO Gb/s": [(t, v / 1e9) for t, v in raw.mifo.throughput_series],
        }
        meta: dict[str, object] = {
            "improvement": raw.improvement,
            "bgp_mean_aggregate_bps": raw.bgp.mean_aggregate_bps,
            "mifo_mean_aggregate_bps": raw.mifo.mean_aggregate_bps,
            "mifo_deflected_packets": raw.mifo.deflected_packets,
        }
    return ExperimentResult(
        name="fig12", scale=scale, series=freeze_series(series), meta=meta, raw=raw
    )
