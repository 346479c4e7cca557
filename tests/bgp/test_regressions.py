"""Regression tests for latent bugs fixed alongside the static verifier.

Three fixes, each with the failure mode it guards against:

1. ``ArrayDestinationRouting`` trusted ``from_state()`` payloads: a
   reachable node whose next-hop slot held the ``-1`` sentinel would
   silently index ``asns[-1]`` (numpy wraparound) and return the *last*
   ASN as a next hop — a wrong answer instead of an error.  (Same family:
   a next-hop *cycle* in such a payload raised a bare ``AssertionError``
   out of ``best_path`` instead of the typed ``RoutingError``.)
2. ``ParallelRoutingEngine.compute_many`` had no fallback when pool
   creation fails (fd/process limits, sandboxes): the whole run died on
   an ``OSError`` that only affects wall-clock.
3. ``RoutingCache.precompute`` silently accepted an engine whose backend
   differed from the cache's, mixing dict and array substrates in one
   cache.
4. The array kernel trusted the dense destination indices of a worker
   task: ``-1`` wrapped to the last AS (``cust[-1] = 0``) and returned a
   complete, plausible table for the wrong destination.
"""

import numpy as np
import pytest

from repro.bgp import parallel as parallel_mod
from repro.bgp.array_routing import (
    ArrayDestinationRouting,
    compute_array_routing,
    converge_block,
)
from repro.bgp.parallel import ParallelRoutingEngine
from repro.bgp.propagation import RoutingCache
from repro.bgp.shm import CsrSegment, attach_csr
from repro.errors import ConfigError, RoutingError, TopologyError
from repro.topology.generator import TopologyConfig, generate_topology


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=150, seed=11))


def _corrupted(routing: ArrayDestinationRouting, victim: int) -> ArrayDestinationRouting:
    """Rebuild ``routing`` with ``victim``'s next-hop slot zeroed to -1."""
    cust, peer, export, cls, nh = routing.state()
    nh = nh.copy()
    nh[routing.csr.index[victim]] = np.int32(-1)
    return ArrayDestinationRouting.from_state(
        routing.graph, routing.dest, (cust, peer, export, cls, nh)
    )


class TestCorruptedStateGuards:
    """Fix 1: no-hop sentinel on a reachable node must raise, not wrap."""

    def _pick(self, graph):
        dest = sorted(graph.nodes())[0]
        routing = compute_array_routing(graph, dest)
        # a node at distance >= 2 so some *other* node routes through it
        for x in sorted(graph.nodes()):
            if x != dest and routing.has_route(x) and routing.best_len(x) == 1:
                for y in sorted(graph.nodes()):
                    if (
                        y not in (x, dest)
                        and routing.has_route(y)
                        and len(routing.best_path(y)) > 2
                        and routing.best_path(y)[1] == x
                    ):
                        return routing, x, y
        pytest.skip("topology has no two-hop default path")

    def test_next_hop_raises_instead_of_wrapping(self, graph):
        routing, victim, _ = self._pick(graph)
        bad = _corrupted(routing, victim)
        assert bad.has_route(victim)  # still claims reachability...
        with pytest.raises(RoutingError, match="no next hop"):
            bad.next_hop(victim)  # ...so the dead slot must be loud

    def test_best_path_raises_instead_of_wrapping(self, graph):
        routing, victim, upstream = self._pick(graph)
        bad = _corrupted(routing, victim)
        with pytest.raises(RoutingError, match="dead-ends"):
            bad.best_path(upstream)

    def test_next_hop_cycle_raises_a_typed_error(self, graph):
        # A from_state() payload can hold what propagation cannot produce:
        # the guard used to be a bare AssertionError ("impossible by
        # construction"), which the static verifier — whose job is to
        # refute exactly such state — died of.
        routing, victim, upstream = self._pick(graph)
        nh = routing.state()[4].copy()
        nh[routing.csr.index[victim]] = routing.csr.index[upstream]
        bad = ArrayDestinationRouting.from_state(
            graph, routing.dest, (*routing.state()[:4], nh)
        )
        with pytest.raises(RoutingError, match="default-path loop"):
            bad.best_path(upstream)

    def test_intact_state_round_trips(self, graph):
        dest = sorted(graph.nodes())[0]
        routing = compute_array_routing(graph, dest)
        rebuilt = ArrayDestinationRouting.from_state(graph, dest, routing.state())
        probe = sorted(graph.nodes())[-1]
        assert rebuilt.best_path(probe) == routing.best_path(probe)
        assert rebuilt.rib(probe) == routing.rib(probe)


def _broken_executor(exc: Exception):
    """A ``ProcessPoolExecutor`` stand-in whose creation always fails."""

    def create(*args, **kwargs):
        raise exc

    return create


class TestPoolFailureFallback:
    """Fix 2: pool creation failing with OSError degrades to serial."""

    def test_oserror_falls_back_to_serial(self, graph, monkeypatch):
        dests = list(range(0, 12))
        expected = {
            d: r.best_path(140)
            for d, r in ParallelRoutingEngine(graph, n_workers=1)
            .compute_many(dests)
            .items()
        }
        monkeypatch.setattr(
            parallel_mod,
            "ProcessPoolExecutor",
            _broken_executor(OSError("Resource temporarily unavailable")),
        )
        with ParallelRoutingEngine(graph, n_workers=4) as engine:
            assert engine.effective_workers == 4  # pooled path *is* attempted
            result = engine.compute_many(dests)
            assert not engine.pool_live
        assert {d: r.best_path(140) for d, r in result.items()} == expected

    def test_non_oserror_still_propagates(self, graph, monkeypatch):
        monkeypatch.setattr(
            parallel_mod,
            "ProcessPoolExecutor",
            _broken_executor(ValueError("not a resource problem")),
        )
        with ParallelRoutingEngine(graph, n_workers=4) as engine:
            with pytest.raises(ValueError, match="not a resource problem"):
                engine.compute_many(list(range(8)))


class TestPrecomputeBackendMismatch:
    """Fix 3: filling a cache from a different-backend engine is an error."""

    @pytest.mark.parametrize(
        ("cache_backend", "engine_backend"),
        [("dict", "array"), ("array", "dict")],
    )
    def test_mismatch_rejected(self, graph, cache_backend, engine_backend):
        cache = RoutingCache(graph, backend=cache_backend)
        engine = ParallelRoutingEngine(graph, n_workers=1, backend=engine_backend)
        with pytest.raises(ConfigError, match="does not match cache backend"):
            cache.precompute([0, 1], engine=engine)
        assert len(cache) == 0  # nothing partially inserted

    def test_matching_backend_still_fills(self, graph):
        cache = RoutingCache(graph, backend="array")
        engine = ParallelRoutingEngine(graph, n_workers=1, backend="array")
        assert cache.precompute([0, 1, 2], engine=engine) == 3
        assert len(cache) == 3


class TestKernelIndexValidation:
    """Fix 4: out-of-range and duplicate dense indices raise, never wrap."""

    @pytest.fixture
    def worker_csr(self, graph, monkeypatch):
        """The pool initializer, played in-process (as a worker sees it)."""
        with CsrSegment.create(graph.csr()) as segment:
            with attach_csr(segment.manifest) as attached:
                monkeypatch.setattr(parallel_mod, "_WORKER_CSR", attached)
                yield attached.csr

    def test_worker_task_rejects_out_of_range_indices(self, worker_csr):
        n = worker_csr.n_nodes
        for shard in ((-1,), (n,), (0, n + 7), (3, -n)):
            with pytest.raises(TopologyError, match="outside"):
                parallel_mod._compute_shard((shard, None))

    def test_duplicate_indices_rejected(self, graph):
        with pytest.raises(TopologyError, match="duplicate"):
            converge_block(graph.csr(), [4, 9, 4])

    def test_last_index_still_converges(self, worker_csr):
        """The boundary the wraparound used to alias: n - 1 is legal."""
        n = worker_csr.n_nodes
        state, _ = parallel_mod._compute_shard(((n - 1,), None))
        assert state[0][0, n - 1] == 0  # the destination's own customer length
