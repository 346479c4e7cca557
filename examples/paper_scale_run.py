#!/usr/bin/env python3
"""Paper-scale propagation: a full routing table, one block at a time.

Builds a topology tier of the paper's 44,340-AS measured Internet
(default 5,000 ASes so the demo finishes in seconds — pass ``--ases
44340`` for the real thing) and converges every AS as a destination on
the array backend, ``block_dests(n)`` destinations per
``compute_routings`` call.  Each block's views are dropped before the
next (the whole table at 44,340 ASes would be 33 GB of views), so memory
stays flat at the graph plus one block.

Printed at the end: destinations/second, the wall-clock of the sweep,
and the process's peak RSS.  docs/scaling.md records the 44,340-AS run.

Run:  python examples/paper_scale_run.py [--ases N]
"""

import argparse
import resource
import time

from repro.bgp.array_routing import block_dests
from repro.bgp.propagation import compute_routings
from repro.topology.generator import TopologyConfig, generate_topology


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ases", type=int, default=5_000)
    args = parser.parse_args()

    print(f"building a {args.ases:,}-AS topology ...")
    t0 = time.perf_counter()
    graph = generate_topology(TopologyConfig(n_ases=args.ases, seed=2014))
    graph.csr()
    print(f"  built + CSR-frozen in {time.perf_counter() - t0:.1f}s")

    dests = sorted(graph.nodes())
    width = block_dests(len(dests))
    reachable = 0
    t0 = time.perf_counter()
    for lo in range(0, len(dests), width):
        views = compute_routings(graph, dests[lo : lo + width], "array")
        reachable += sum(view.reachable_count() for view in views.values())
        del views
    sweep_s = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    print(f"\nfull table: {len(dests):,} destinations in blocks of {width}")
    print(f"  wall      : {sweep_s:7.2f}s ({len(dests) / sweep_s:,.0f} dests/s)")
    print(f"  peak RSS  : {peak_mb:7.0f} MB")
    print(f"  routes    : {reachable:,} (AS, destination) pairs reachable")


if __name__ == "__main__":
    main()
