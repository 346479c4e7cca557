"""Materialize an AS graph as a packet-level router network.

The paper's simulation "expand[s] several tier-1 ASes to capture all of
their internal topologies at the router level; in doing so, we assume all
the border routers (iBGP peers) within a tier-1 AS are connected in a full
mesh topology" (Section IV).  This module implements exactly that bridge
between the AS-level control plane and the packet-level data plane:

* every AS in ``expand`` gets **one border router per inter-AS neighbor**,
  iBGP full-meshed internally; every other AS is a single router;
* inter-AS links connect the facing border routers, annotated with the
  business relationship (feeding the engine's Tag-Check);
* hosts attach to an edge router of their AS;
* FIBs are **derived from the BGP substrate** (per-destination
  :class:`~repro.bgp.propagation.RoutingCache` views): default ports follow the
  converged next hop, ``alt`` ports follow the best RIB alternative, and a
  :class:`~repro.mifo.daemon.MifoDaemon` per MIFO router keeps the alt
  port on the alternative with maximal measured spare capacity —
  the full prototype stack (Fig. 10) in simulation.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Iterable

from ..bgp.propagation import RoutingCache, RoutingView
from ..dataplane.network import Network
from ..dataplane.port import Port
from ..dataplane.router import Engine, Router
from ..errors import ConfigError
from ..mifo.daemon import AltCandidate, MifoDaemon
from ..mifo.engine import MifoEngine, MifoEngineConfig, bgp_engine
from ..topology.asgraph import ASGraph

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..dataplane.host import Host

__all__ = ["BuildConfig", "RouterLevelNetwork", "build_network"]


@dataclasses.dataclass(frozen=True)
class BuildConfig:
    """Parameters of the router-level materialization."""

    link_rate_bps: float = 1e9
    link_delay_s: float = 50e-6
    intra_as_rate_bps: float = 10e9  #: iBGP mesh links (beefy backplane)
    queue_capacity: int = 64
    host_rate_bps: float = 1e9
    #: engine config used for MIFO-capable routers.
    mifo_config: MifoEngineConfig = dataclasses.field(default_factory=MifoEngineConfig)
    #: daemon measurement/update interval (0 disables daemons; the alt
    #: ports then stay on the RIB-preference-best alternative).
    daemon_interval_s: float = 0.05


class RouterLevelNetwork:
    """A built network plus the handles experiments need."""

    def __init__(self, graph: ASGraph, net: Network, config: BuildConfig) -> None:
        self.graph = graph
        self.net = net
        self.config = config
        #: asn -> neighbor asn -> border Router facing that neighbor.
        self.border: dict[int, dict[int, Router]] = {}
        #: asn -> all Routers of that AS (1 for unexpanded ASes).
        self.routers: dict[int, list[Router]] = {}
        #: asn -> eBGP ports keyed (local router name, neighbor asn).
        self.ebgp_ports: dict[tuple[str, int], Port] = {}
        #: host name -> (asn, Host).
        self.hosts: dict[str, tuple[int, "Host"]] = {}
        #: host name -> the edge router port it hangs off.
        self.host_ports: dict[str, Port] = {}
        #: host edge router per AS that has hosts.
        self.edge_router: dict[int, Router] = {}
        self.daemons: list[MifoDaemon] = []

    # -- lookup helpers -------------------------------------------------
    def router_facing(self, asn: int, neighbor: int) -> Router:
        """The border router of ``asn`` that owns the link to ``neighbor``."""
        return self.border[asn][neighbor]

    def ebgp_port(self, router: Router, neighbor: int) -> Port:
        """The port of ``router`` facing eBGP ``neighbor``."""
        return self.ebgp_ports[(router.name, neighbor)]

    def all_routers(self) -> list[Router]:
        """Every router across all ASes."""
        return [r for rs in self.routers.values() for r in rs]

    def counters_total(self, field: str) -> int:
        """Sum of one counter field over all routers."""
        return sum(getattr(r.counters, field) for r in self.all_routers())

    def run(self, **kw: typing.Any) -> float:
        """Run the underlying network simulation."""
        return self.net.run(**kw)


def build_network(
    graph: ASGraph,
    *,
    expand: Iterable[int] = (),
    mifo_capable: Iterable[int] = (),
    hosts_at: Iterable[int] = (),
    routing: RoutingCache | None = None,
    config: BuildConfig | None = None,
) -> RouterLevelNetwork:
    """Build the packet network for ``graph``.

    ``expand``       — ASes materialized as one border router per neighbor
                       with an iBGP full mesh (the paper's tier-1 treatment);
    ``mifo_capable`` — ASes whose routers run the MIFO engine (+ daemon);
                       everyone else forwards plain BGP;
    ``hosts_at``     — ASes to attach end hosts to; repeat an AS for
                       multiple hosts (the testbed has D1 *and* D2 in
                       AS 5).  A single host is named ``H<asn>``; multiple
                       hosts ``H<asn>.1``, ``H<asn>.2``, ...  FIB entries
                       are installed for every host prefix on every
                       router, derived from the BGP control plane.
    """
    if not graph.frozen:
        raise ConfigError("freeze() the graph before building")
    cfg = config or BuildConfig()
    expand = set(expand)
    mifo_capable = set(mifo_capable)
    hosts_list = list(hosts_at)
    routing = routing or RoutingCache(graph)

    built = RouterLevelNetwork(graph, Network(), cfg)
    net = built.net

    def make_engine(asn: int) -> Engine:
        if asn in mifo_capable:
            return MifoEngine(cfg.mifo_config)
        return bgp_engine

    # --- instantiate routers -----------------------------------------
    for asn in graph.nodes():
        nbrs = sorted(graph.neighbors(asn))
        if asn in expand and len(nbrs) > 1:
            routers = {}
            for nb in nbrs:
                r = net.add_router(f"R{asn}.{nb}", asn, make_engine(asn))
                routers[nb] = r
            built.border[asn] = routers
            built.routers[asn] = list(routers.values())
            # iBGP full mesh.
            rs = built.routers[asn]
            for i in range(len(rs)):
                for j in range(i + 1, len(rs)):
                    net.connect_routers(
                        rs[i],
                        rs[j],
                        rate_bps=cfg.intra_as_rate_bps,
                        delay_s=cfg.link_delay_s / 5,
                        queue_capacity=cfg.queue_capacity,
                    )
        else:
            r = net.add_router(f"R{asn}", asn, make_engine(asn))
            built.border[asn] = {nb: r for nb in nbrs}
            built.routers[asn] = [r]

    # --- inter-AS links ------------------------------------------------
    for u, v, rel in graph.links():
        ru = built.border[u][v]
        rv = built.border[v][u]
        pu, pv = net.connect_routers(
            ru,
            rv,
            rate_bps=cfg.link_rate_bps,
            delay_s=cfg.link_delay_s,
            relationship_of_b=rel,
            queue_capacity=cfg.queue_capacity,
        )
        built.ebgp_ports[(ru.name, v)] = pu
        built.ebgp_ports[(rv.name, u)] = pv

    # --- hosts -----------------------------------------------------------
    counts: dict[int, int] = {}
    for asn in hosts_list:
        counts[asn] = counts.get(asn, 0) + 1
    seen: dict[int, int] = {}
    host_names: list[tuple[str, int]] = []
    for asn in hosts_list:
        seen[asn] = seen.get(asn, 0) + 1
        name = f"H{asn}" if counts[asn] == 1 else f"H{asn}.{seen[asn]}"
        edge = built.routers[asn][0]
        built.edge_router[asn] = edge
        host = net.add_host(name)
        _, edge_port = net.attach_host(host, edge, rate_bps=cfg.host_rate_bps)
        built.hosts[name] = (asn, host)
        built.host_ports[name] = edge_port
        host_names.append((name, asn))

    # --- FIBs, derived from BGP ------------------------------------------
    for name, dest_asn in host_names:
        _install_fibs_for(built, routing(dest_asn), name, dest_asn)

    # --- MIFO daemons ------------------------------------------------------
    if cfg.daemon_interval_s > 0:
        for asn in mifo_capable:
            if asn not in built.routers:
                continue
            for r in built.routers[asn]:
                daemon = _make_daemon(built, routing, r, host_names, cfg)
                if daemon is not None:
                    built.daemons.append(daemon)
                    daemon.start()

    return built


# ---------------------------------------------------------------------------
def _port_toward(built: RouterLevelNetwork, router: Router, asn: int, via: int) -> Port:
    """The port ``router`` (in AS ``asn``) uses to reach neighbor AS
    ``via``: its own eBGP port if it faces ``via``, else the iBGP port to
    the border router that does."""
    key = (router.name, via)
    port = built.ebgp_ports.get(key)
    if port is not None:
        return port
    facing = built.border[asn][via]
    return router.ibgp_ports[facing.name]


def _install_fibs_for(
    built: RouterLevelNetwork,
    routing: RoutingView,
    prefix: str,
    dest_asn: int,
) -> None:
    graph = built.graph
    for asn in graph.nodes():
        if asn == dest_asn:
            # Inside the destination AS: forward toward the host edge
            # router, then this host's own access port.
            edge = built.edge_router[dest_asn]
            host_port = built.host_ports[prefix]
            for r in built.routers[asn]:
                if r is edge:
                    r.fib.install(prefix, host_port)
                else:
                    r.fib.install(prefix, r.ibgp_ports[edge.name])
            continue
        if not routing.has_route(asn):
            continue
        nh = routing.next_hop(asn)
        alts = routing.alternatives(asn)
        best_alt = alts[0].neighbor if alts else None
        for r in built.routers[asn]:
            out = _port_toward(built, r, asn, nh)
            alt_port = (
                _port_toward(built, r, asn, best_alt)
                if best_alt is not None
                else None
            )
            if alt_port is out:
                alt_port = None
            r.fib.install(prefix, out, alt_port)


def _make_daemon(
    built: RouterLevelNetwork,
    routing_cache: RoutingCache,
    router: Router,
    host_names: list[tuple[str, int]],
    cfg: BuildConfig,
) -> MifoDaemon | None:
    """Wire a MifoDaemon with RIB-derived alternatives per destination.

    For an alternative via neighbor AS v, the *measured* port is the eBGP
    port on the border router facing v (reachable measurements via the
    iBGP exchange, paper Section III-C), while the *forwarding* port is
    this router's local port toward v.
    """
    asn = router.asn
    daemon = MifoDaemon(built.net.sim, router, interval=cfg.daemon_interval_s)
    registered = False
    for prefix, dest_asn in host_names:
        if dest_asn == asn:
            continue
        routing = routing_cache(dest_asn)
        if not routing.has_route(asn):
            continue
        candidates = []
        for entry in routing.alternatives(asn):
            v = entry.neighbor
            local_port = _port_toward(built, router, asn, v)
            facing = built.border[asn][v]
            measured = built.ebgp_ports[(facing.name, v)]
            candidates.append(AltCandidate(local_port, measured))
        if candidates:
            daemon.register_alternatives(prefix, candidates)
            registered = True
    return daemon if registered else None
