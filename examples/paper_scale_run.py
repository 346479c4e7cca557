#!/usr/bin/env python3
"""Paper-scale propagation over the shared-memory worker pool.

Builds a topology tier of the paper's 44,340-AS measured Internet
(default 5,000 ASes so the demo finishes in seconds — pass ``--ases
44340`` for the real thing), exports the frozen CSR arrays into named
shared memory once, and streams destination shards through one standing
worker pool — bulk cache fills arriving as many batches, with pool
spin-up paid once.

Printed at the end: dests/sec for (a) serial in-process convergence and
(b) the pool, plus proof that both produced identical routes and that
the shared-memory segment is gone afterwards.  On a 1–2 CPU host expect
serial to win; see docs/scaling.md for the full guide.

Run:  python examples/paper_scale_run.py [--ases N] [--workers N]
"""

import argparse
import os
import time

from repro.bgp.parallel import ParallelRoutingEngine
from repro.topology.generator import TopologyConfig, generate_topology

N_SHARDS = 8
SHARD_SIZE = 3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ases", type=int, default=5_000)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    print(f"building a {args.ases:,}-AS topology ...")
    t0 = time.perf_counter()
    graph = generate_topology(TopologyConfig(n_ases=args.ases, seed=2014))
    graph.csr()
    print(f"  built + CSR-frozen in {time.perf_counter() - t0:.1f}s")

    shards = [
        list(range(i * SHARD_SIZE, (i + 1) * SHARD_SIZE)) for i in range(N_SHARDS)
    ]
    n_dests = N_SHARDS * SHARD_SIZE

    # (a) serial baseline — also the correctness reference.
    serial_engine = ParallelRoutingEngine(graph, n_workers=1)
    t0 = time.perf_counter()
    reference = {}
    for shard in shards:
        reference.update(serial_engine.compute_many(shard))
    serial_s = time.perf_counter() - t0

    # (b) pooled: CSR exported to shared memory once, one standing pool.
    with ParallelRoutingEngine(graph, n_workers=args.workers) as engine:
        engine.compute_many(shards[0])  # spin-up paid here, once
        segment = engine.segment_name
        t0 = time.perf_counter()
        pool_routes = {}
        for shard in shards:
            pool_routes.update(engine.compute_many(shard))
        pooled_s = time.perf_counter() - t0
        print(f"shared CSR segment: /dev/shm/{segment}")

    identical = all(
        pool_routes[d].best_path(0) == reference[d].best_path(0)
        and pool_routes[d].reachable_count() == reference[d].reachable_count()
        for d in reference
    )
    segment_gone = segment is not None and not os.path.exists(f"/dev/shm/{segment}")

    print(f"\n{n_dests} destinations in {N_SHARDS} shards of {SHARD_SIZE}:")
    print(f"  serial         : {serial_s:7.2f}s ({n_dests / serial_s:7.1f} dests/s)")
    print(
        f"  pool           : {pooled_s:7.2f}s ({n_dests / pooled_s:7.1f} dests/s)"
        f"  [{args.workers} workers]  {serial_s / pooled_s:.2f}x vs serial"
    )
    print(f"  routes identical across both: {identical}")
    print(f"  segment unlinked after close: {segment_gone}")


if __name__ == "__main__":
    main()
