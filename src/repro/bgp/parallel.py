"""Parallel per-destination routing (the sharding layer over the array
backend).

Per-destination Gao–Rexford convergence is embarrassingly parallel: every
destination reads the same frozen CSR arrays and writes only its own
result.  :class:`ParallelRoutingEngine` exploits that for **bulk** work
(:meth:`~ParallelRoutingEngine.compute_many`, reached through
``RoutingCache.precompute``) in exactly one shape: with more than one
worker the frozen CSR arrays are exported once into named shared memory
(:mod:`repro.bgp.shm`) and a worker pool is created once per engine
lifetime; workers attach zero-copy in their initializer and each task
ships only a tuple of dense destination indices.  The pool works under
``fork`` and ``spawn`` alike (the graph never crosses a pipe), survives
worker crashes by falling back to in-process compute and rebuilding the
pool on the next call, and releases the pool and segment on
:meth:`~ParallelRoutingEngine.close` / garbage collection.

A task is a run of whole kernel blocks
(:func:`~repro.bgp.array_routing.block_dests` destinations each), handed
to :func:`~repro.bgp.array_routing.converge_block` in one call; the worker
ships back the block's five ``(B, n)`` result arrays, whose rows the
parent copies into views around its own graph.  Because tasks cut the
destination list only at block boundaries, the blocks — and so every
``bgp.*`` counter, span count and histogram the kernel records — are the
same for any worker count; worker telemetry flows through child-local
snapshots absorbed in submission order.

Degradation is graceful and explicit:

* ``n_workers=1`` (or a single destination) computes in-process,
  bit-for-bit identical to the pooled path;
* the ``dict`` backend is always serial — its per-node dict state is the
  cross-validation oracle, not a shipping format.

Results flow back through the ordinary
:class:`~repro.bgp.propagation.RoutingCache` interface — see
``RoutingCache.precompute`` — so nothing downstream (providers, metrics,
experiments) knows whether a destination was computed serially or on a
worker.  The streaming service path does not use the pool: flap-driven
dirty sets re-converge in-process (docs/scaling.md records why).
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .. import telemetry as tm
from ..errors import ConfigError, TopologyError
from ..telemetry import Telemetry, TelemetrySnapshot
from ..topology.asgraph import ASGraph
from .array_routing import ArrayDestinationRouting, block_dests, converge_block
from .propagation import RoutingView, compute_routings
from .shm import AttachedCsr, CsrSegment, SegmentManifest, attach_csr

__all__ = ["ParallelRoutingEngine", "fork_available", "resolve_workers"]

#: Module-level slot holding the shared-memory CSR attachment in each pool
#: worker.  Installed exactly once per worker lifetime by the pool
#: initializer (:func:`_attach_worker`); tasks only read it.
_WORKER_CSR: AttachedCsr | None = None


def fork_available() -> bool:
    """Whether this platform can fork workers (cheaper to start than spawn)."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(n_workers: int | None) -> int:
    """Normalize a worker-count knob (None = one per CPU, floor 1)."""
    if n_workers is None:
        return os.cpu_count() or 1
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


def _attach_worker(manifest: SegmentManifest) -> None:
    """Pool initializer: attach the shared CSR segment.

    Runs once per worker process (fork or spawn); the attachment is held
    in the sanctioned worker-local slot ``_WORKER_CSR`` for every
    subsequent :func:`_compute_shard` task.  This is a one-way install of
    worker-local state, never a channel back to the parent — results and
    telemetry still return exclusively through task return values.  An
    engine's graph is fixed for its life, so the segment named here is the
    one every task of this pool is computed against.
    """
    global _WORKER_CSR
    _WORKER_CSR = attach_csr(manifest)


def _compute_shard(
    task: tuple[tuple[int, ...], int | None],
) -> tuple[tuple[np.ndarray, ...], TelemetrySnapshot | None]:
    """Pool worker body: converge a shard of dense indices as one kernel
    call; returns its five ``(len(shard), n)`` result arrays.

    ``task`` is ``(dest_indices, trace_capacity)`` — indices are dense CSR
    rows (the parent owns the ASN mapping), and ``trace_capacity`` is
    ``None`` when the parent has no telemetry active at submission time.
    A forked worker inherits the parent's registry copy-on-write —
    recording into it would be invisible to the parent — so with telemetry
    on, the kernel records into a child-local registry whose snapshot
    ships back for in-order absorption.
    """
    attached = _WORKER_CSR
    assert attached is not None, "pool task ran before _attach_worker"
    shard, trace_capacity = task
    if trace_capacity is None:
        return converge_block(attached.csr, shard), None
    previous = tm.active()
    local = Telemetry(trace_capacity=trace_capacity)
    tm.activate(local)
    try:
        state = converge_block(attached.csr, shard)
    finally:
        tm.activate(previous)
    return state, local.snapshot()


class _PoolResources:
    """Mutable holder for the lazily created worker pool + segment.

    One ``weakref.finalize`` guard per engine points here, so whatever the
    engine created by the time it is closed or collected gets released —
    without the finalizer keeping the engine itself alive.
    """

    __slots__ = ("segment", "pool")

    def __init__(self) -> None:
        self.segment: CsrSegment | None = None
        self.pool: ProcessPoolExecutor | None = None

    def discard_pool(self) -> None:
        """Shut down the worker pool (idempotent), keeping the segment."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def release(self) -> None:
        """Shut down the pool and unlink the shared segment (idempotent)."""
        self.discard_pool()
        segment, self.segment = self.segment, None
        if segment is not None:
            segment.close()


class ParallelRoutingEngine:
    """Shards a destination list across worker processes.

    Parameters
    ----------
    graph:
        A frozen :class:`ASGraph`; fixed for the engine's life.
    n_workers:
        Worker processes; ``None`` means one per CPU.  ``1`` runs serial.
        More than one keeps a worker pool (and one shared-memory CSR
        export) alive for the engine's lifetime.  Call :meth:`close` (or
        use the engine as a context manager) to release them; garbage
        collection releases them too.  Results are byte-identical across
        all worker counts.
    backend:
        ``"array"`` (parallelizable) or ``"dict"`` (oracle; always serial).
    persistent:
        Accepted and ignored: selects nothing (``bench/`` still passes it).
    """

    def __init__(
        self,
        graph: ASGraph,
        *,
        n_workers: int | None = None,
        backend: str = "array",
        persistent: bool = True,
    ) -> None:
        if backend not in ("array", "dict"):
            raise ConfigError(f"unknown routing backend {backend!r}")
        if not graph.frozen:
            raise TopologyError("freeze() the graph before building an engine")
        self.graph = graph
        self.backend = backend
        self.n_workers = resolve_workers(n_workers)
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(
            self, _PoolResources.release, self._resources
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def pool_live(self) -> bool:
        """Whether a worker pool currently exists."""
        return self._resources.pool is not None

    @property
    def segment_name(self) -> str | None:
        """Shared-memory segment name while exported (None otherwise)."""
        segment = self._resources.segment
        return None if segment is None else segment.manifest.segment

    def close(self) -> None:
        """Release the worker pool and unlink the shared segment.

        Idempotent, and a no-op for engines that never started a pool.
        The engine stays usable afterwards: the next pooled
        ``compute_many`` lazily re-creates both resources.
        """
        self._resources.release()

    def __enter__(self) -> "ParallelRoutingEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def effective_workers(self) -> int:
        """Workers the engine will actually use: the ``dict`` oracle is
        always serial; the pool works on every platform because workers
        attach the shared segment instead of inheriting memory."""
        return 1 if self.backend == "dict" else self.n_workers

    def compute(self, dest: int) -> RoutingView:
        """One destination, always in-process."""
        return compute_routings(self.graph, (dest,), self.backend)[dest]

    def compute_many(self, dests: Iterable[int]) -> dict[int, RoutingView]:
        """Converge every destination; returns ``{dest: routing}``.

        Duplicate destinations are computed once.  Results are identical
        (and identically keyed) for every worker count and the serial
        fallback.
        """
        unique = list(dict.fromkeys(dests))
        if not unique:
            return {}
        workers = min(self.effective_workers, len(unique))
        if workers <= 1:
            tm.set_gauge("parallel.workers_used", 1)
            return compute_routings(self.graph, unique, self.backend)
        try:
            return self._compute_pooled(unique, workers)
        except (OSError, BrokenProcessPool):
            # Pool creation failed (fd/process limits, a locked-down
            # sandbox, EAGAIN under load) or a worker died mid-task.
            # Parallelism is a wall-clock knob, never a results knob, so
            # degrade to the serial path instead of failing the run; the
            # broken pool is discarded so the next call starts a fresh
            # one.  Telemetry must report what actually happened, not what
            # was requested: one worker, and a fallback on the record.
            self._resources.discard_pool()
            tm.inc("parallel.pool_fallbacks")
            tm.set_gauge("parallel.workers_used", 1)
            return compute_routings(self.graph, unique, self.backend)

    # ------------------------------------------------------------------
    @staticmethod
    def _chunks(
        idxs: Sequence[int], workers: int, block: int
    ) -> list[tuple[int, ...]]:
        """Split an index list into per-task chunks (~4 per worker) of
        whole kernel blocks, so chunking never moves a block boundary."""
        blocks = -(-len(idxs) // block)
        chunk = max(1, -(-blocks // (workers * 4))) * block
        return [tuple(idxs[i : i + chunk]) for i in range(0, len(idxs), chunk)]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The worker pool, creating segment and workers on first use."""
        res = self._resources
        if res.segment is None:
            res.segment = CsrSegment.create(self.graph.csr())
            tm.set_gauge("parallel.shm_bytes", res.segment.manifest.total_bytes)
        if res.pool is None:
            # fork is cheaper to start; spawn works everywhere because
            # workers rebuild state from the manifest, never from memory.
            method = "fork" if fork_available() else "spawn"
            res.pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context(method),
                initializer=_attach_worker,
                initargs=(res.segment.manifest,),
            )
            tm.inc("parallel.pool_starts")
        else:
            tm.inc("parallel.pool_reuses")
        return res.pool

    def _compute_pooled(
        self, unique: list[int], workers: int
    ) -> dict[int, RoutingView]:
        """Shard dense indices over the standing pool."""
        graph = self.graph
        csr = graph.csr()
        index = csr.index
        try:
            idxs = [index[d] for d in unique]
        except KeyError as exc:
            raise TopologyError(f"destination AS {exc.args[0]} not in graph") from None
        pool = self._ensure_pool()
        telemetry = tm.active()
        trace_capacity = None if telemetry is None else telemetry.trace_capacity
        chunks = self._chunks(idxs, workers, block_dests(csr.n_nodes))
        tasks = [(chunk, trace_capacity) for chunk in chunks]
        asns = csr.asns
        out: dict[int, RoutingView] = {}
        # Executor.map yields in submission order, so snapshots absorb
        # (and trace events interleave) identically for any worker count.
        for chunk, (state, snap) in zip(chunks, pool.map(_compute_shard, tasks)):
            for row, idx in enumerate(chunk):
                dest = int(asns[idx])
                out[dest] = ArrayDestinationRouting.from_block(graph, dest, state, row)
            if telemetry is not None and snap is not None:
                telemetry.absorb(snap)
        if telemetry is not None:
            telemetry.set_gauge("parallel.workers_used", workers)
            telemetry.inc("parallel.chunks", len(tasks))
        return out
