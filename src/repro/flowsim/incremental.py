"""Incremental, path-pooled max-min solver (progressive filling).

:func:`~repro.flowsim.maxmin.maxmin_rates` solves one allocation from a
cold link×flow incidence matrix.  The fluid simulator, however, re-solves
after *every* event, and between consecutive events almost nothing changes
— one flow arrives, one completes, or a reroute moves a single column.
Rebuilding the incidence from scratch each time is O(flows × path length)
of Python-level work before the first vectorized round even runs.

:class:`IncrementalMaxMin` removes that rebuild with two structural ideas:

**Path pooling.**  Concurrent flows frequently share an identical interned
path (same source/destination pair, same route).  Flows with identical
columns always freeze in the same filling round at the same rate, so the
fill can run over *distinct paths with an integer multiplicity vector*
instead of individual flows — the link×path incidence is smaller by the
pooling factor, and per-flow rate assignment becomes a gather through the
flow→column map.

**Incremental incidence.**  The link×path incidence lives in a growable
column slab: two flat arrays (``_slab_rows`` holding link indices,
``_slab_cols`` holding the owning column id) plus per-column
``_col_start``/``_col_len`` extents — CSC by construction, no sparse
library.  ``add_flow``/``remove_flow``/``move_flow`` update multiplicities
in O(1) when the path is already interned and append (or recycle, via a
free-list keyed by exact path length) one column segment otherwise.  The
per-link base flow count is maintained by the same deltas, so a solve
starts from the previous event's state instead of re-aggregating.

**Bitwise equality with the cold solver** is a hard contract, not an
aspiration: ``tests/flowsim`` asserts it, the simulator's
``solver="incremental"``/``"full"`` modes must serialize identically, and
:meth:`IncrementalMaxMin.crosscheck` replays the cold solver against a
live pool (the scenario engine's ``crosscheck`` knob).  It holds because
every float the two solvers compare is derived the same way:

* per-link flow counts are sums of small integers — exact in float64
  under any association, so the pooled multiplicity sum equals the
  per-flow sum of ones bit for bit (maintained counts stay exact under
  the ±1 event deltas and the per-round subtraction);
* each round's capacity delta is ``freeze_count * rate`` — one multiply
  of an exact integer by the shared bottleneck scalar — matching the
  refactored :func:`~repro.flowsim.maxmin.maxmin_rates` exactly (never a
  per-flow repeated addition, whose rounding would differ);
* the per-link load is the round-ordered accumulation of those deltas on
  both sides (``load_out`` in the cold solver).

Memoization rides on a change tick: when no mutation touched the fill's
inputs since the last solve (in particular, adding or removing a flow
whose path crosses no link), the previous rate vector *is* the answer and
the fill is skipped — ``flowsim.warm_rounds_saved`` counts the rounds not
replayed.  Telemetry counters: ``flowsim.pool_hits`` (interning hits),
``flowsim.cols_reused`` (free-list recycles), ``flowsim.warm_rounds_saved``
(memoized rounds), and the shared ``flowsim.maxmin_iterations``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from typing import ClassVar

import numpy as np

from .. import telemetry as tm
from ..errors import SimulationError
from .maxmin import build_incidence, maxmin_rates

__all__ = ["IncrementalMaxMin"]

#: minimum buffer growth quantum (arrays double beyond this).
_GROW = 64


def _grow_to(arr: np.ndarray, need: int, fill: float = 0.0) -> np.ndarray:
    """``arr`` if it already holds ``need`` slots, else an amortized-doubled
    copy padded with ``fill``."""
    if need <= arr.shape[0]:
        return arr
    out = np.full(max(need, 2 * arr.shape[0], _GROW), fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


def _as_path(link_ids: Sequence[int]) -> tuple[int, ...]:
    """``link_ids`` as the interning key; a negative id would index the
    per-link arrays from the end, so it is rejected here."""
    path = tuple(int(x) for x in link_ids)
    if path and min(path) < 0:
        raise SimulationError(f"negative link id in flow path {path}")
    return path


class IncrementalMaxMin:
    """Stateful max-min solver over pooled path columns.

    Mutations (:meth:`add_flow`, :meth:`remove_flow`, :meth:`move_flow`,
    :meth:`set_capacity`) update the slab-backed link×path incidence and an
    internal change tick; :meth:`solve` runs progressive filling only when
    the tick moved and otherwise returns the memoized state.  Rates are
    read back per flow with :meth:`rate_of`, the per-link allocation with
    :meth:`link_load`.

    ``tol``/``group_rtol`` mirror :func:`~repro.flowsim.maxmin.maxmin_rates`
    (the defaults match, so either solver can replace the other under the
    same configuration, bit for bit).
    """

    #: Checkpoint derivability: restore never serializes
    #: the slab.  ``repro.service.checkpoint`` re-adds every live flow and
    #: replays capacity, which reconstructs all of this bit-identically.
    DERIVABLE: ClassVar[dict[str, str]] = {
        "unconstrained_rate": "constructor config; restore passes it anew",
        "tol": "constructor config; restore passes it anew",
        "group_rtol": "constructor config; restore passes it anew",
        "_slab_rows": "slab rebuilt by re-adding captured flow paths",
        "_slab_cols": "slab rebuilt by re-adding captured flow paths",
        "_slab_used": "slab rebuilt by re-adding captured flow paths",
        "_col_start": "slab rebuilt by re-adding captured flow paths",
        "_col_len": "slab rebuilt by re-adding captured flow paths",
        "_mult": "slab rebuilt by re-adding captured flow paths",
        "_col_maxlink": "slab rebuilt by re-adding captured flow paths",
        "_n_cols": "slab rebuilt by re-adding captured flow paths",
        "_free": (
            "column ids renumber on restore and an emptied list may stay "
            "under its length; only the per-length count of free columns is "
            "observable (_intern asks only whether a list is non-empty), and "
            "free_segments() captures exactly that"
        ),
        "_path_col": "keyed cache rebuilt by re-adding captured flow paths",
        "_col_path": "keyed cache rebuilt by re-adding captured flow paths",
        "_flow_col": "rebuilt in flow-id order by restore replay",
        "_base_counts": "incidence counts rebuilt by re-adding flows",
        "_max_link": "running max over re-added flow paths",
        "_capacity": "restore replays set_capacity from captured factors",
        "_tick": (
            "change counter read only for equality with _solved_tick "
            "(pending); restore's priming solve leaves pending False, as "
            "the live solver is between steps"
        ),
        "_solved_tick": "memo; invalidated on restore, next solve recomputes",
        "_last_rounds": "memo; invalidated on restore, next solve recomputes",
        "_rates": "scratch buffer rebound wholesale by solve()",
        "_frozen": "scratch buffer rebound wholesale by solve()",
        "_counts": "scratch buffer rebound wholesale by solve()",
        "_share": "scratch buffer rebound wholesale by solve()",
        "_residual": "scratch buffer rebound wholesale by solve()",
        "_load": "scratch buffer rebound wholesale by solve()",
        "_load_c": "scratch buffer rebound wholesale by solve()",
        "_rowmap": "scratch buffer rebound wholesale by solve()",
        "_rows_c": "scratch buffer rebound wholesale by solve()",
        "_active": "scratch buffer rebound wholesale by solve()",
        "_unfrozen": "scratch buffer rebound wholesale by solve()",
        "_satf": "scratch buffer rebound wholesale by solve()",
        "_sat_slab": "scratch buffer rebound wholesale by solve()",
        "_tf_slab": "scratch buffer rebound wholesale by solve()",
        "_w_slab": "scratch buffer rebound wholesale by solve()",
        "_multc": "scratch buffer rebound wholesale by solve()",
    }

    def __init__(
        self,
        *,
        unconstrained_rate: float = math.inf,
        tol: float = 1e-9,
        group_rtol: float = 1e-3,
    ) -> None:
        self.unconstrained_rate = unconstrained_rate
        self.tol = tol
        self.group_rtol = group_rtol
        # Column slab: flat (link, column) pairs, one per incidence entry.
        self._slab_rows: np.ndarray = np.zeros(0, dtype=np.int64)
        self._slab_cols: np.ndarray = np.zeros(0, dtype=np.int64)
        self._slab_used = 0
        # Per-column extents into the slab + live multiplicity.
        self._col_start: np.ndarray = np.zeros(0, dtype=np.int64)
        self._col_len: np.ndarray = np.zeros(0, dtype=np.int64)
        self._mult: np.ndarray = np.zeros(0, dtype=np.float64)
        self._col_maxlink: np.ndarray = np.zeros(0, dtype=np.int64)
        self._n_cols = 0
        #: path length -> freed column ids (exact-fit segment recycling).
        self._free: dict[int, list[int]] = {}
        self._path_col: dict[tuple[int, ...], int] = {}
        self._col_path: dict[int, tuple[int, ...]] = {}
        #: flow id -> column id (insertion-ordered; drives crosschecks).
        self._flow_col: dict[int, int] = {}
        # Per-link state.
        self._base_counts: np.ndarray = np.zeros(0, dtype=np.float64)
        self._max_link = -1
        self._capacity: np.ndarray = np.zeros(0, dtype=np.float64)
        # Memo + reused solve buffers.
        self._tick = 0
        self._solved_tick = -1
        self._last_rounds = 0
        self._rates: np.ndarray = np.zeros(0, dtype=np.float64)
        self._frozen: np.ndarray = np.zeros(0, dtype=bool)
        self._counts: np.ndarray = np.zeros(0, dtype=np.float64)
        self._share: np.ndarray = np.zeros(0, dtype=np.float64)
        self._residual: np.ndarray = np.zeros(0, dtype=np.float64)
        self._load: np.ndarray = np.zeros(0, dtype=np.float64)
        self._load_c: np.ndarray = np.zeros(0, dtype=np.float64)
        self._rowmap: np.ndarray = np.zeros(0, dtype=np.int64)
        self._rows_c: np.ndarray = np.zeros(0, dtype=np.int64)
        self._active: np.ndarray = np.zeros(0, dtype=bool)
        self._unfrozen: np.ndarray = np.zeros(0, dtype=bool)
        self._satf: np.ndarray = np.zeros(0, dtype=np.float64)
        self._sat_slab: np.ndarray = np.zeros(0, dtype=np.float64)
        self._tf_slab: np.ndarray = np.zeros(0, dtype=bool)
        self._w_slab: np.ndarray = np.zeros(0, dtype=np.float64)
        self._multc: np.ndarray = np.zeros(0, dtype=np.float64)
        #: lifetime counters (mirrored into ``repro.telemetry``).
        self.pool_hits = 0
        self.cols_reused = 0
        self.warm_rounds_saved = 0
        self.rounds_total = 0
        self.solves = 0
        self.hits = 0

    # ------------------------------------------------------------------
    # column interning
    # ------------------------------------------------------------------
    def _intern(self, path: tuple[int, ...]) -> int:
        col = self._path_col.get(path)
        if col is not None:
            self._mult[col] += 1.0
            self.pool_hits += 1
            tm.inc("flowsim.pool_hits")
            return col
        n = len(path)
        free = self._free.get(n)
        if free:
            col = free.pop()
            self.cols_reused += 1
            tm.inc("flowsim.cols_reused")
            start = int(self._col_start[col])
        else:
            col = self._n_cols
            self._n_cols += 1
            self._col_start = _grow_to(self._col_start, self._n_cols)
            self._col_len = _grow_to(self._col_len, self._n_cols)
            self._mult = _grow_to(self._mult, self._n_cols)
            self._col_maxlink = _grow_to(self._col_maxlink, self._n_cols)
            start = self._slab_used
            self._slab_used = start + n
            self._slab_rows = _grow_to(self._slab_rows, self._slab_used)
            self._slab_cols = _grow_to(self._slab_cols, self._slab_used)
            self._slab_cols[start : start + n] = col
            self._col_start[col] = start
            self._col_len[col] = n
        if n:
            links = np.asarray(path, dtype=np.int64)
            self._slab_rows[start : start + n] = links
            maxlink = int(links.max())
            self._col_maxlink[col] = maxlink
            if maxlink > self._max_link:
                self._max_link = maxlink
                self._base_counts = _grow_to(self._base_counts, maxlink + 1)
        else:
            self._col_maxlink[col] = -1
        self._mult[col] = 1.0
        self._path_col[path] = col
        self._col_path[col] = path
        return col

    def _segment(self, col: int) -> np.ndarray:
        """The column's link indices (a slab view)."""
        start = int(self._col_start[col])
        return self._slab_rows[start : start + int(self._col_len[col])]

    # ------------------------------------------------------------------
    # free-list serialization (service checkpoints)
    # ------------------------------------------------------------------
    def free_segments(self) -> dict[int, int]:
        """Free-list occupancy: path length -> recyclable column count.

        Dead columns never perturb a fill (zero multiplicity, pre-frozen),
        but they *do* decide whether a future :meth:`_intern` recycles a
        segment or allocates a fresh one — so a checkpoint that wants the
        restored solver to replay with identical ``flowsim.cols_reused``
        behavior must carry this occupancy map.
        """
        return {n: len(cols) for n, cols in sorted(self._free.items()) if cols}

    def seed_free_segments(self, lengths: dict[int, int]) -> None:
        """Pre-populate the free-list with inert dead columns.

        The restore path calls this *after* re-adding the live flow table:
        each seeded column gets a real slab segment (rows are overwritten
        on reuse, so their content is immaterial) and zero multiplicity,
        reproducing the uninterrupted pool's recycling capacity without
        touching any value a fill computes.
        """
        for n, count in sorted(lengths.items()):
            if n < 0 or count < 0:
                raise SimulationError(
                    f"invalid free-segment entry ({n}: {count})"
                )
            for _ in range(count):
                col = self._n_cols
                self._n_cols += 1
                self._col_start = _grow_to(self._col_start, self._n_cols)
                self._col_len = _grow_to(self._col_len, self._n_cols)
                self._mult = _grow_to(self._mult, self._n_cols)
                self._col_maxlink = _grow_to(self._col_maxlink, self._n_cols)
                start = self._slab_used
                self._slab_used = start + n
                self._slab_rows = _grow_to(self._slab_rows, self._slab_used)
                self._slab_cols = _grow_to(self._slab_cols, self._slab_used)
                self._slab_rows[start : start + n] = 0
                self._slab_cols[start : start + n] = col
                self._col_start[col] = start
                self._col_len[col] = n
                self._mult[col] = 0.0
                if n:
                    self._col_maxlink[col] = 0
                    if self._max_link < 0:
                        self._max_link = 0
                        self._base_counts = _grow_to(self._base_counts, 1)
                else:
                    self._col_maxlink[col] = -1
                self._free.setdefault(n, []).append(col)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: int, link_ids: Sequence[int]) -> None:
        """Register one flow's path (directed-link indices, may be empty).

        A flow whose path crosses no link does not perturb the fill, so it
        leaves the memo tick alone — the previous solve stays valid.
        """
        if flow_id in self._flow_col:
            raise SimulationError(f"flow {flow_id} already in the solver")
        path = _as_path(link_ids)
        col = self._intern(path)
        self._flow_col[flow_id] = col
        if path:
            np.add.at(self._base_counts, self._segment(col), 1.0)
            self._tick += 1

    def remove_flow(self, flow_id: int) -> None:
        """Drop a flow; unknown ids are ignored (idempotent removal).

        A column whose multiplicity reaches zero is freed: its slab
        segment goes onto the length-keyed free-list for exact-fit reuse,
        and until reused it contributes nothing to any solve (zero
        multiplicity, pre-frozen).
        """
        col = self._flow_col.pop(flow_id, None)
        if col is None:
            return
        path = self._col_path[col]
        self._mult[col] -= 1.0
        if path:
            np.add.at(self._base_counts, self._segment(col), -1.0)
            self._tick += 1
        if self._mult[col] <= 0.0:
            del self._path_col[path]
            del self._col_path[col]
            self._free.setdefault(len(path), []).append(col)

    def move_flow(self, flow_id: int, link_ids: Sequence[int]) -> None:
        """Reroute one existing flow onto a new path."""
        if flow_id not in self._flow_col:
            raise SimulationError(f"flow {flow_id} not in the solver")
        path = _as_path(link_ids)  # reject before the old path is dropped
        self.remove_flow(flow_id)
        self.add_flow(flow_id, path)

    def set_capacity(self, capacity: np.ndarray) -> None:
        """Replace the per-link capacity vector (bps, dense link index).

        Copy-on-change: an identical vector leaves the memo tick alone.
        """
        cap = np.asarray(capacity, dtype=np.float64)
        if cap.shape != self._capacity.shape or not np.array_equal(
            cap, self._capacity
        ):
            self._capacity = cap.copy()
            self._tick += 1

    def invalidate(self) -> None:
        """Force the next :meth:`solve` to re-run the fill.

        This only defeats the memo: the fill that then runs is still the
        pooled one over the maintained incidence.  ``mode="full"`` of the
        scenario engine calls it every event; the cold reference is
        :meth:`crosscheck`.
        """
        self._tick += 1

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self) -> bool:
        """Progressive filling over the pooled columns.

        Returns ``True`` when a fill ran, ``False`` on a memo hit (inputs
        unchanged since the last solve — the cached rates and load are
        what a re-solve would produce, so the saved rounds are counted in
        ``flowsim.warm_rounds_saved`` instead of replayed).
        """
        if self._solved_tick == self._tick:
            self.hits += 1
            self.warm_rounds_saved += self._last_rounds
            tm.inc("flowsim.warm_rounds_saved", self._last_rounds)
            return False
        self.solves += 1
        n = self._n_cols
        cap_len = self._capacity.shape[0]
        live = self._mult[:n] > 0.0
        if live.any() and int(self._col_maxlink[:n][live].max()) >= cap_len:
            raise SimulationError(
                "flow path references a link outside the capacity vector"
            )
        n_l = max(cap_len, self._max_link + 1)
        self._base_counts = _grow_to(self._base_counts, n_l)
        self._rowmap = _grow_to(self._rowmap, n_l + 1)
        # Link-space compaction: the fill only ever changes links crossed
        # by at least one live flow (``idx``); every other link is
        # inactive with an infinite share for the whole fill, so dropping
        # it changes no float the rounds compute.  All round-level arrays
        # live in the compact space of ``m`` links plus one trailing dummy
        # slot that absorbs stale rows of dead columns (zero count, zero
        # weight, infinite residual — it can never win the bottleneck).
        idx = np.flatnonzero(self._base_counts[:n_l] > 0.5)
        m = idx.shape[0]
        self._counts = _grow_to(self._counts, m + 1)
        self._share = _grow_to(self._share, m + 1)
        self._residual = _grow_to(self._residual, m + 1)
        self._load_c = _grow_to(self._load_c, m + 1)
        self._load = _grow_to(self._load, n_l)
        self._rows_c = _grow_to(self._rows_c, self._slab_used)
        self._rates = _grow_to(self._rates, n)
        self._frozen = _grow_to(self._frozen, n)
        counts = self._counts[: m + 1]
        share = self._share[: m + 1]
        residual = self._residual[: m + 1]
        load_c = self._load_c[: m + 1]
        load = self._load[:n_l]
        rates = self._rates[:n]
        frozen = self._frozen[:n]
        counts[:m] = self._base_counts[idx]
        counts[m] = 0.0
        residual[:m] = self._capacity[idx]
        residual[m] = np.inf
        load_c[:] = 0.0
        rates[:] = 0.0
        # Dead columns and linkless paths never enter the fill; linkless
        # live flows are unconstrained, exactly as in maxmin_rates.
        empty = self._col_len[:n] == 0
        np.logical_or(~live, empty, out=frozen)
        rates[empty & live] = self.unconstrained_rate
        rows = self._slab_rows[: self._slab_used]
        cols = self._slab_cols[: self._slab_used]
        rowmap = self._rowmap[:n_l]
        rowmap.fill(m)
        rowmap[idx] = np.arange(m, dtype=np.int64)
        self._rows_c = _grow_to(self._rows_c, self._slab_used)
        rows_c = self._rows_c[: self._slab_used]
        np.take(rowmap, rows, out=rows_c)
        self._satf = _grow_to(self._satf, m + 1)
        satf = self._satf[: m + 1]
        self._sat_slab = _grow_to(self._sat_slab, self._slab_used)
        sat_slab = self._sat_slab[: self._slab_used]
        self._tf_slab = _grow_to(self._tf_slab, self._slab_used)
        tf_slab = self._tf_slab[: self._slab_used]
        self._w_slab = _grow_to(self._w_slab, self._slab_used)
        w_slab = self._w_slab[: self._slab_used]
        self._multc = _grow_to(self._multc, self._slab_used)
        multc = self._multc[: self._slab_used]
        np.take(self._mult, cols, out=multc)
        self._active = _grow_to(self._active, m + 1)
        active = self._active[: m + 1]
        self._unfrozen = _grow_to(self._unfrozen, n)
        unfrozen = self._unfrozen[:n]
        np.logical_not(frozen, out=unfrozen)

        rounds = 0
        take = np.ndarray.take
        min_ = np.minimum.reduce
        col_len_n = self._col_len[:n]
        slab_live = self._slab_used
        # Current link space: starts as the solve's compact space and is
        # itself recompacted as links deactivate.  ``cur_idx`` maps the
        # current space back to the solve space (``None`` = identity);
        # ``load_c`` (solve space) receives dropped links' final totals.
        mcur = m
        cur_idx: np.ndarray | None = None
        load_cur = load_c
        for _round in range(m + 2):
            np.greater(counts, 0.5, out=active)
            na = int(np.count_nonzero(active))
            if na == 0:
                break
            if 2 * (na + 1) < counts.shape[0]:
                # Deactivated links are inert (infinite share, zero
                # deltas), so dropping them is pure reindexing; their
                # accumulated load is flushed to the solve space first.
                alive = np.flatnonzero(active)
                if cur_idx is None:
                    cur_idx = alive
                else:
                    load_c[cur_idx] = load_cur[:mcur]
                    cur_idx = cur_idx[alive]
                nc = np.empty(na + 1)
                nc[:na] = counts[alive]
                nc[na] = 0.0
                nr = np.empty(na + 1)
                nr[:na] = residual[alive]
                nr[na] = np.inf
                nl = np.empty(na + 1)
                nl[:na] = load_cur[alive]
                nl[na] = 0.0
                counts, residual, load_cur = nc, nr, nl
                remap = self._rowmap[: mcur + 1]
                remap.fill(na)
                remap[alive] = np.arange(na, dtype=np.int64)
                rows_c = remap.take(rows_c)
                mcur = na
                share = self._share[: mcur + 1]
                satf = self._satf[: mcur + 1]
                active = self._active[: mcur + 1]
                np.greater(counts, 0.5, out=active)
            rounds += 1
            share.fill(np.inf)
            np.divide(residual, counts, out=share, where=active)
            bottleneck = float(min_(share))
            if not math.isfinite(bottleneck):  # pragma: no cover - defensive
                break
            cutoff = bottleneck + self.tol + self.group_rtol * max(
                bottleneck, 0.0
            )
            # Inactive links hold an infinite share, so the cutoff test
            # alone is maxmin_rates' ``active & (share <= cutoff)`` — the
            # float out array feeds straight into the incidence gather.
            np.less_equal(share, cutoff, out=satf)
            take(satf, rows_c, out=sat_slab)
            touched = np.bincount(cols, weights=sat_slab, minlength=n)
            to_freeze = unfrozen & (touched[:n] > 0.5)
            rate = max(bottleneck, 0.0)
            rates[to_freeze] = rate
            np.logical_xor(unfrozen, to_freeze, out=unfrozen)
            take(to_freeze, cols, out=tf_slab)
            np.multiply(multc, tf_slab, out=w_slab)
            freeze_counts = np.bincount(
                rows_c, weights=w_slab, minlength=mcur + 1
            )
            counts -= freeze_counts
            # Exact integer count times the shared scalar — the same
            # float64 product maxmin_rates computes per round.
            freeze_counts *= rate
            np.subtract(residual, freeze_counts, out=residual)
            np.maximum(residual, 0.0, out=residual)
            load_cur += freeze_counts
            # Frozen columns are inert for the rest of the fill (zero
            # weight everywhere above), so once they hold most of the
            # slab, drop their entries — pure reindexing, no float
            # changes.  Each column freezes at most once, so the
            # compression work amortizes to O(slab) per solve.
            slab_live -= int(col_len_n @ to_freeze)
            if 2 * slab_live < rows_c.shape[0]:
                keep = take(unfrozen, cols)
                rows_c = rows_c[keep]
                cols = cols[keep]
                multc = multc[keep]
                cur = rows_c.shape[0]
                sat_slab = self._sat_slab[:cur]
                tf_slab = self._tf_slab[:cur]
                w_slab = self._w_slab[:cur]
                slab_live = cur
        else:  # pragma: no cover - defensive
            raise AssertionError("progressive filling failed to converge")
        # Scatter the compact per-link allocation back to link space; the
        # non-``idx`` links carry zero flows, hence zero load (exactly as
        # the cold solver's round-ordered accumulation leaves them).
        if cur_idx is not None:
            load_c[cur_idx] = load_cur[:mcur]
        load[:] = 0.0
        load[idx] = load_c[:m]

        self._last_rounds = rounds
        self.rounds_total += rounds
        tm.inc("flowsim.maxmin_iterations", rounds)
        self._solved_tick = self._tick
        return True

    def crosscheck(self) -> None:
        """Replay the cold :func:`~repro.flowsim.maxmin.maxmin_rates` over
        the same flows, capacity and tolerances, and raise
        :class:`~repro.errors.SimulationError` unless every rate and the
        per-link load of the last :meth:`solve` agree with it bit for bit.
        """
        if self.pending:
            raise SimulationError("crosscheck() needs a solved state")
        pairs = list(self.flows())
        n_links = self._capacity.shape[0]
        oracle_load = np.zeros(n_links)
        oracle = maxmin_rates(
            build_incidence([list(path) for _fid, path in pairs], n_links),
            self._capacity,
            unconstrained_rate=self.unconstrained_rate,
            tol=self.tol,
            group_rtol=self.group_rtol,
            load_out=oracle_load,
        )
        for (fid, _path), want in zip(pairs, oracle):
            got = self.rate_of(fid)
            if got != want:
                raise SimulationError(
                    f"incremental solver crosscheck failed: flow {fid} rate "
                    f"{got!r} != oracle {want!r}"
                )
        if not np.array_equal(self._load[:n_links], oracle_load):
            raise SimulationError(
                "incremental solver crosscheck failed: link allocation "
                "diverged from the cold per-flow oracle"
            )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def rate_of(self, flow_id: int) -> float:
        """The flow's rate (bps) under the last :meth:`solve` (a gather
        through the flow→column map; linkless flows are unconstrained)."""
        col = self._flow_col[flow_id]
        if self._col_len[col] == 0:
            return self.unconstrained_rate
        return float(self._rates[col])

    def link_load(self) -> np.ndarray:
        """Per-link allocated bps from the last solve.

        At least as long as the solved capacity vector (callers slice);
        read-only by contract — it is the solver's reused buffer.
        """
        return self._load

    def flows(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """``(flow_id, path)`` pairs in insertion order (crosscheck hook)."""
        for fid, col in self._flow_col.items():
            yield fid, self._col_path[col]

    def has_flow(self, flow_id: int) -> bool:
        """Whether the flow is currently in the allocation problem."""
        return flow_id in self._flow_col

    @property
    def pending(self) -> bool:
        """Whether the next :meth:`solve` will actually run a fill."""
        return self._solved_tick != self._tick

    @property
    def n_flows(self) -> int:
        """Flows currently in the allocation problem."""
        return len(self._flow_col)

    @property
    def n_paths(self) -> int:
        """Live distinct paths (pooled fill dimension)."""
        return len(self._path_col)

    def stats(self) -> dict[str, int]:
        """Lifetime counter snapshot (feeds the ``solver_stats`` trace
        event and the micro-benchmark report)."""
        return {
            "pool_hits": self.pool_hits,
            "cols_reused": self.cols_reused,
            "warm_rounds_saved": self.warm_rounds_saved,
            "maxmin_iterations": self.rounds_total,
            "solves": self.solves,
            "hits": self.hits,
        }
