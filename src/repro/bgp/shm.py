"""Named shared-memory export of the frozen CSR topology.

Copy-on-write memory would share the CSR arrays with pool workers for
free, but only with children forked *after* the arrays exist, and never
across a ``spawn`` boundary.  This module makes the sharing explicit and
start-method-independent: the ten arrays of a
:class:`~repro.topology.asgraph.CsrAdjacency` are copied once into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment, and any
process — forked or spawned, now or later — attaches zero-copy given only
the small picklable :class:`SegmentManifest`.

Two typed handles enforce the lifecycle:

* :class:`CsrSegment` — the **owner** side.  Created by the parent
  (:meth:`CsrSegment.create`), it is the only handle allowed to unlink the
  segment.  ``close()`` is idempotent, the handle is a context manager, and
  a :func:`weakref.finalize` guard unlinks on garbage collection so an
  abandoned engine cannot leak ``/dev/shm`` entries.
* :class:`AttachedCsr` — the **worker** side.  :func:`attach_csr` maps the
  segment and rebuilds a genuine read-only :class:`CsrAdjacency` whose
  arrays are views into the shared buffer (the ``index`` dict, the one
  non-array field, and the provider-hierarchy ``pull_schedule`` the block
  kernel sweeps are rebuilt from the arrays — paid once per worker
  lifetime, not per task).  ``detach()`` only closes the local mapping;
  workers can never unlink.

Attached arrays are marked non-writable, so an accidental in-place store
in a worker raises immediately instead of corrupting every sibling's
topology — the runtime twin of mifolint rule MF003b, which statically
forbids assignments to CSR array fields.

Resource-tracker note (CPython < 3.13): attaching registers the segment
with the ``multiprocessing`` resource tracker just like creating does.
Pool workers — forked *and* spawned — share the creating process's tracker,
whose registry is a set, so the attach-side registration is a no-op and
exactly one unlink happens when the owner closes.  A process *outside* the
owner's tracker family that attaches will have its own tracker unlink the
segment at exit (the long-standing bpo-39959 wart); keep attachers inside
the owning process tree, which is all the engine's worker pool ever does.
"""

from __future__ import annotations

import dataclasses
import weakref
from multiprocessing import shared_memory

import numpy as np

from ..errors import TopologyError
from ..topology.asgraph import CsrAdjacency

__all__ = [
    "ArraySpec",
    "SegmentManifest",
    "CsrSegment",
    "AttachedCsr",
    "attach_csr",
]

#: CsrAdjacency fields shipped through the segment, in manifest order:
#: its arrays.  The rest (``index``, the pull schedule) is derived from
#: them and rebuilt at attach.
_ARRAY_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(CsrAdjacency) if f.type == "np.ndarray"
)

#: Per-array alignment inside the segment.  64 bytes keeps every array on
#: its own cache line and satisfies any dtype the CSR arrays use.
_ALIGN = 64


def _aligned(offset: int) -> int:
    """``offset`` rounded up to the next :data:`_ALIGN` boundary."""
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclasses.dataclass(frozen=True)
class ArraySpec:
    """Placement of one CSR array inside the shared segment."""

    field: str  #: CsrAdjacency field name
    dtype: str  #: numpy dtype string, e.g. ``"int32"``
    shape: tuple[int, ...]
    offset: int  #: byte offset into the segment buffer


@dataclasses.dataclass(frozen=True)
class SegmentManifest:
    """Everything a worker needs to attach: small, picklable, read-only.

    Ships across the pool boundary instead of the arrays themselves —
    a few hundred bytes regardless of topology size.
    """

    segment: str  #: shared-memory name (the ``/dev/shm`` entry)
    n_nodes: int
    arrays: tuple[ArraySpec, ...]
    total_bytes: int


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Owner-side cleanup: close the mapping, then unlink the name.

    Module-level (not a bound method) so :func:`weakref.finalize` never
    keeps the owning handle alive; safe to call after a partial failure.
    """
    try:
        shm.close()
    except OSError:  # pragma: no cover - platform-dependent double close
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # already unlinked (e.g. explicit close())
        pass


class CsrSegment:
    """Owner handle of one shared-memory CSR export.

    Create with :meth:`create`; pass :attr:`manifest` to workers; call
    :meth:`close` (or rely on GC / the context manager) to unlink.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, manifest: SegmentManifest
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self._finalizer = weakref.finalize(self, _release_segment, shm)

    @classmethod
    def create(cls, csr: CsrAdjacency, *, name: str | None = None) -> "CsrSegment":
        """Copy ``csr``'s arrays into a fresh named segment.

        ``name`` is normally left to the OS (collision-proof); tests pin it
        to probe ``/dev/shm`` contents.
        """
        specs: list[ArraySpec] = []
        offset = 0
        for field in _ARRAY_FIELDS:
            arr: np.ndarray = getattr(csr, field)
            offset = _aligned(offset)
            specs.append(
                ArraySpec(
                    field=field,
                    dtype=arr.dtype.str,
                    shape=arr.shape,
                    offset=offset,
                )
            )
            offset += arr.nbytes
        # SharedMemory refuses size=0; an empty graph still gets one page.
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
        try:
            for field, spec in zip(_ARRAY_FIELDS, specs):
                src: np.ndarray = getattr(csr, field)
                dst = np.ndarray(
                    spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
                )
                dst[...] = src
            manifest = SegmentManifest(
                segment=shm.name,
                n_nodes=csr.n_nodes,
                arrays=tuple(specs),
                total_bytes=max(offset, 1),
            )
        except BaseException:
            _release_segment(shm)
            raise
        return cls(shm, manifest)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` (or GC) has already released the segment."""
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink the segment.  Idempotent; attached workers keep their
        mappings until they detach, but no new attach can succeed."""
        self._finalizer()

    def __enter__(self) -> "CsrSegment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (
            f"CsrSegment({self.manifest.segment!r}, "
            f"{self.manifest.total_bytes} bytes, {state})"
        )


def _close_attachment(shm: shared_memory.SharedMemory) -> None:
    """Worker-side cleanup: drop the local mapping, never unlink."""
    try:
        shm.close()
    except OSError:  # pragma: no cover - platform-dependent double close
        pass


class AttachedCsr:
    """Worker handle of one attached CSR export.

    :attr:`csr` is a full, query-identical :class:`CsrAdjacency` whose
    arrays are read-only views into the shared buffer; it stays valid
    until :meth:`detach`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, csr: CsrAdjacency) -> None:
        self._shm = shm
        self.csr = csr
        self._finalizer = weakref.finalize(self, _close_attachment, shm)

    @property
    def detached(self) -> bool:
        """Whether the local mapping has been dropped."""
        return not self._finalizer.alive

    def detach(self) -> None:
        """Close the local mapping (idempotent).  The segment itself lives
        until the owning :class:`CsrSegment` unlinks it."""
        self._finalizer()

    def __enter__(self) -> "AttachedCsr":
        return self

    def __exit__(self, *exc: object) -> None:
        self.detach()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "detached" if self.detached else "attached"
        return f"AttachedCsr(n_nodes={self.csr.n_nodes}, {state})"


def attach_csr(manifest: SegmentManifest) -> AttachedCsr:
    """Map an exported CSR zero-copy; raises
    :class:`~repro.errors.TopologyError` if the segment is gone (owner
    closed it, or the manifest outlived its process)."""
    try:
        shm = shared_memory.SharedMemory(name=manifest.segment)
    except FileNotFoundError:
        raise TopologyError(
            f"shared CSR segment {manifest.segment!r} does not exist "
            "(already unlinked by its owner?)"
        ) from None
    arrays: dict[str, np.ndarray] = {}
    for spec in manifest.arrays:
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
        )
        view.flags.writeable = False
        arrays[spec.field] = view
    index = {int(a): i for i, a in enumerate(arrays["asns"])}
    csr = CsrAdjacency(index=index, **arrays)
    _ = csr.pull_schedule  # derived like the index: build now, not in the first task
    return AttachedCsr(shm, csr)
