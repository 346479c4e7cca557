"""Telemetry under the parallel routing engine.

Two guarantees: pool workers' counters land in the parent registry, and
the degraded paths (serial, pool-creation failure) report what actually
happened — one worker, a fallback on the record — not what was asked.
"""

import pytest

from repro import telemetry as tm
from repro.bgp import parallel
from repro.bgp.array_routing import block_dests
from repro.bgp.parallel import ParallelRoutingEngine
from repro.bgp.shm import CsrSegment, attach_csr
from repro.telemetry import Telemetry
from repro.topology.generator import TopologyConfig, generate_topology

N_ASES = 150
#: two full kernel blocks and a tail, so the pool really has chunks to split
DESTS = list(range(2 * block_dests(N_ASES) + 6))


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=N_ASES, seed=9))


@pytest.fixture
def worker_csr(graph, monkeypatch):
    """Play the pool initializer in-process: the shared CSR attached and
    installed in the worker slot ``_compute_shard`` reads."""
    with CsrSegment.create(graph.csr()) as segment:
        with attach_csr(segment.manifest) as attached:
            monkeypatch.setattr(parallel, "_WORKER_CSR", attached)
            yield attached.csr


def test_serial_path_reports_one_worker(graph):
    t = Telemetry()
    tm.activate(t)
    ParallelRoutingEngine(graph, n_workers=1).compute_many(DESTS)
    assert t.gauges["parallel.workers_used"] == 1.0
    assert t.counters["bgp.destinations_converged"] == len(DESTS)


def test_worker_counters_merge_into_parent(graph):
    t = Telemetry()
    tm.activate(t)
    with ParallelRoutingEngine(graph, n_workers=2) as engine:
        result = engine.compute_many(DESTS)
    assert sorted(result) == DESTS
    # Each destination converged exactly once, in some worker; the
    # merged total must equal the serial total regardless of scheduling.
    assert t.counters["bgp.destinations_converged"] == len(DESTS)
    assert t.counters["bgp.routes_propagated"] == sum(
        r.reachable_count() for r in result.values()
    )
    assert t.gauges["parallel.workers_used"] == 2.0
    assert t.counters["parallel.chunks"] >= 2


def test_parallel_counters_equal_serial_counters(graph):
    t1 = Telemetry()
    tm.activate(t1)
    ParallelRoutingEngine(graph, n_workers=1).compute_many(DESTS)
    serial = t1.snapshot()

    t2 = Telemetry()
    tm.activate(t2)
    with ParallelRoutingEngine(graph, n_workers=2) as engine:
        engine.compute_many(DESTS)
    par = t2.snapshot()

    for key in ("bgp.destinations_converged", "bgp.routes_propagated"):
        assert par.counters[key] == serial.counters[key]
    # Pool chunks are whole kernel blocks, so the blocks themselves — one
    # span and one width sample each — are the serial path's too.
    assert par.spans["bgp.propagate"][1] == serial.spans["bgp.propagate"][1] == 3
    assert par.histograms["bgp.block_dests"] == serial.histograms["bgp.block_dests"]


def test_pool_failure_reports_fallback(graph, monkeypatch):
    def boom(self):
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(ParallelRoutingEngine, "_ensure_pool", boom)
    t = Telemetry()
    tm.activate(t)
    engine = ParallelRoutingEngine(graph, n_workers=4)
    result = engine.compute_many(DESTS)
    assert sorted(result) == DESTS
    assert t.counters["parallel.pool_fallbacks"] == 1
    assert t.gauges["parallel.workers_used"] == 1.0
    assert t.counters["bgp.destinations_converged"] == len(DESTS)


def test_disabled_telemetry_ships_no_snapshots(worker_csr):
    assert tm.active() is None
    shard = tuple(worker_csr.index[d] for d in DESTS[:2])
    state, snap = parallel._compute_shard((shard, None))
    assert snap is None
    assert [a.shape for a in state] == [(len(shard), worker_csr.n_nodes)] * 5


def test_enabled_telemetry_ships_chunk_snapshot(worker_csr):
    t = Telemetry()
    tm.activate(t)
    shard = tuple(worker_csr.index[d] for d in DESTS[:3])
    _, snap = parallel._compute_shard((shard, t.trace_capacity))
    # The chunk recorded into its own registry, not the inherited one...
    assert tm.active() is t
    assert t.counters == {}
    # ...and shipped the work as a snapshot.
    assert snap is not None
    assert snap.counters["bgp.destinations_converged"] == 3
