"""Lifecycle of the shared-memory CSR export and the standing worker pool.

Four fronts, matching the guarantees :mod:`repro.bgp.shm` and a
multi-worker ``ParallelRoutingEngine`` document:

* **segment lifecycle** — create → attach (same process and in a child)
  → close unlinks exactly once, on explicit close *and* on garbage
  collection, with ``/dev/shm`` provably clean afterwards;
* **reuse determinism** — two consecutive propagations over one standing
  pool are byte-identical to two fresh engines and to the serial path;
* **crash resilience** — a SIGKILLed worker degrades the call to serial
  (correct results, fallback on the telemetry record), the broken pool is
  discarded, the next call rebuilds it, and close still leaves no
  segment behind;
* **spawn** — on a platform without ``fork`` the same pool runs over
  spawned workers, with the same bytes and the same merged counters.
"""

import gc
import os
import signal
import time

import numpy as np
import pytest

from repro import telemetry as tm
from repro.bgp import parallel
from repro.bgp.parallel import ParallelRoutingEngine
from repro.bgp.shm import CsrSegment, attach_csr
from repro.errors import TopologyError
from repro.topology.generator import TopologyConfig, generate_topology

DESTS = list(range(0, 24))


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=150, seed=9))


@pytest.fixture(autouse=True)
def no_shm_leak():
    """Every test must leave /dev/shm exactly as it found it."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        yield
        return
    before = set(os.listdir("/dev/shm"))
    yield
    gc.collect()
    leaked = set(os.listdir("/dev/shm")) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


def _digest(routing_map):
    """A byte-comparable digest of every destination's result arrays."""
    return {
        dest: tuple(arr.tobytes() for arr in r.state())
        for dest, r in sorted(routing_map.items())
    }


class TestSegmentLifecycle:
    def test_roundtrip_same_process(self, graph):
        csr = graph.csr()
        with CsrSegment.create(csr) as segment:
            assert _segment_exists(segment.manifest.segment)
            with attach_csr(segment.manifest) as attached:
                shared = attached.csr
                assert shared.n_nodes == csr.n_nodes
                assert shared.index == csr.index
                np.testing.assert_array_equal(shared.asns, csr.asns)
                np.testing.assert_array_equal(shared.cust_indptr, csr.cust_indptr)
                np.testing.assert_array_equal(shared.nbr_indices, csr.nbr_indices)
                np.testing.assert_array_equal(shared.nbr_rel, csr.nbr_rel)
                # attached arrays are views, not copies, and read-only
                assert not shared.asns.flags.owndata
                assert not shared.asns.flags.writeable
                with pytest.raises(ValueError):
                    # the runtime twin of the static rule: attached arrays
                    # refuse in-place stores
                    shared.asns[0] = 1  # mifolint: disable=MF003 (deliberate)
        assert segment.closed

    def test_attach_in_forked_child(self, graph):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("needs the fork start method")
        import multiprocessing

        csr = graph.csr()
        with CsrSegment.create(csr) as segment:
            ctx = multiprocessing.get_context("fork")
            ok = ctx.Value("i", 0)

            def child(manifest, flag):
                with attach_csr(manifest) as attached:
                    same = attached.csr.index == csr.index and bool(
                        (attached.csr.asns == csr.asns).all()
                    )
                flag.value = 1 if same else -1

            p = ctx.Process(target=child, args=(segment.manifest, ok))
            p.start()
            p.join(timeout=30)
            assert ok.value == 1

    def test_close_unlinks_and_blocks_attach(self, graph):
        segment = CsrSegment.create(graph.csr())
        name = segment.manifest.segment
        assert _segment_exists(name)
        segment.close()
        assert segment.closed
        assert not _segment_exists(name)
        segment.close()  # idempotent
        with pytest.raises(TopologyError, match="does not exist"):
            attach_csr(segment.manifest)

    def test_gc_unlinks(self, graph):
        segment = CsrSegment.create(graph.csr())
        name = segment.manifest.segment
        del segment
        gc.collect()
        assert not _segment_exists(name)

    def test_pinned_name(self, graph):
        with CsrSegment.create(graph.csr(), name="mifo_test_pin") as segment:
            assert segment.manifest.segment == "mifo_test_pin"
            assert _segment_exists("mifo_test_pin")
        assert not _segment_exists("mifo_test_pin")


class TestPersistentDeterminism:
    def test_reuse_matches_fresh_engines_and_serial(self, graph):
        serial = _digest(
            ParallelRoutingEngine(graph, n_workers=1).compute_many(DESTS)
        )
        with ParallelRoutingEngine(graph, n_workers=2) as engine:
            first = _digest(engine.compute_many(DESTS))
            assert engine.pool_live
            second = _digest(engine.compute_many(DESTS))
        with ParallelRoutingEngine(graph, n_workers=2) as fresh:
            third = _digest(fresh.compute_many(DESTS))
        assert first == second == third == serial

    def test_pool_and_segment_reused_across_calls(self, graph):
        with ParallelRoutingEngine(graph, n_workers=2) as engine:
            assert not engine.pool_live and engine.segment_name is None
            with tm.telemetry_session(True) as session:
                engine.compute_many(DESTS[:8])
                name = engine.segment_name
                engine.compute_many(DESTS[8:16])
                assert engine.segment_name == name
                counters = session.delta().counters
            assert counters["parallel.pool_starts"] == 1
            assert counters["parallel.pool_reuses"] == 1
            assert counters["bgp.destinations_converged"] == 16
        assert not _segment_exists(name)

    def test_close_then_reuse_recreates(self, graph):
        engine = ParallelRoutingEngine(graph, n_workers=2)
        engine.compute_many(DESTS[:4])
        first_name = engine.segment_name
        engine.close()
        assert not engine.pool_live and engine.segment_name is None
        result = engine.compute_many(DESTS[:4])
        assert sorted(result) == DESTS[:4]
        assert engine.segment_name is not None
        assert engine.segment_name != first_name or _segment_exists(
            engine.segment_name
        )
        engine.close()

    def test_unknown_destination_raises(self, graph):
        with ParallelRoutingEngine(graph, n_workers=2) as engine:
            with pytest.raises(TopologyError, match="999999"):
                engine.compute_many([0, 999_999])


class TestCrashRecovery:
    def test_killed_worker_falls_back_then_rebuilds(self, graph):
        serial = _digest(
            ParallelRoutingEngine(graph, n_workers=1).compute_many(DESTS)
        )
        with ParallelRoutingEngine(graph, n_workers=2) as engine:
            engine.compute_many(DESTS[:4])  # spin the pool up
            pool = engine._resources.pool
            assert pool is not None
            victims = list(pool._processes.values())
            assert victims
            for proc in victims:
                os.kill(proc.pid, signal.SIGKILL)
            # give the executor a beat to notice the corpses
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and any(
                p.is_alive() for p in victims
            ):
                time.sleep(0.05)
            with tm.telemetry_session(True) as session:
                crashed = _digest(engine.compute_many(DESTS))
                counters = session.delta().counters
            assert crashed == serial
            assert counters.get("parallel.pool_fallbacks", 0) == 1
            assert not engine.pool_live  # broken pool was discarded
            rebuilt = _digest(engine.compute_many(DESTS))
            assert rebuilt == serial
            assert engine.pool_live
            name = engine.segment_name
        assert name is not None and not _segment_exists(name)


class TestSpawnStartMethod:
    def test_spawn_pool_equals_serial(self, graph, monkeypatch):
        with tm.telemetry_session(True) as session:
            serial = _digest(
                ParallelRoutingEngine(graph, n_workers=1).compute_many(DESTS)
            )
            serial_counters = session.delta().counters
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        with ParallelRoutingEngine(graph, n_workers=2) as engine:
            with tm.telemetry_session(True) as session:
                spawned = _digest(engine.compute_many(DESTS))
                delta = session.delta()
            pool = engine._resources.pool
            assert pool is not None
            assert pool._mp_context.get_start_method() == "spawn"
            name = engine.segment_name
        assert spawned == serial
        assert delta.gauges["parallel.workers_used"] == 2.0
        assert delta.counters.get("parallel.pool_fallbacks", 0) == 0
        for key in ("bgp.destinations_converged", "bgp.routes_propagated"):
            assert delta.counters[key] == serial_counters[key]
        assert name is not None and not _segment_exists(name)
