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
replayed.

**Resumable fills.**  A fill that does run need not start at round 0.
Each fill leaves a round memo behind: the start-of-round state of every
round in link space (``_hist``: per-link unfrozen count, residual and
load), each round's cutoff (``_cuts``) and the round in which each column
froze (``_fround``).  The next fill resumes at the first round ``r*`` the
mutations since can touch, and the rounds before it are taken from the
memo.  Why they repeat bit for bit: let ``Δ`` be the per-link count delta
of the mutations, and consider a round ``r`` below every changed column's
old freeze round.  Every changed column is then still unfrozen at ``r``
in the old fill, so no link a changed column crosses was saturated in
round ``r`` (the column would have frozen there); the old bottleneck link
and every saturated link carry ``Δ = 0`` and the same share.  If, in
addition, every link with ``Δ != 0`` has a new share
``residual_r / (count_r + Δ)`` above the old cutoff ``c_r``, the new
round has the same minimum (the argmin cannot be a changed link: its old
share was ``<= c_r``), the same cutoff, the same saturated links, the
same frozen columns and the same ``freeze_count * rate`` deltas — its
output state is the old one with ``Δ`` still added to the counts.  By
induction, ``r*`` is the smallest of:

* the first round whose recorded ``(residual, count)`` plus ``Δ`` gives
  some changed link a share ``<= c_r`` (a new flow under the cutoff);
* the old freeze round of any column whose multiplicity changed (a
  removal, a pool hit, or a segment freed for recycling — a column that
  leaves or joins a round's freeze set changes its deltas);
* the old fill's round count (its terminal state).

The resumed fill adds ``Δ`` to the memo rows up to ``r*`` (so the memo
describes the current problem again), starts from row ``r*`` over the
links active there and the columns unfrozen there (live, with a freeze
round ``>= r*``), and leaves the rates of columns frozen before ``r*``
as they are.  A capacity change on an existing link, or
:meth:`~IncrementalMaxMin.invalidate`, means a cold fill from round 0;
capacity appended for newly interned links does not (those links enter
the memo inert, at full capacity).  The memo is a function of the solved
problem alone, so a restored solver's priming fill rebuilds it.

Telemetry counters: ``flowsim.pool_hits`` (interning hits),
``flowsim.cols_reused`` (free-list recycles), ``flowsim.warm_rounds_saved``
(memoized rounds), ``flowsim.fill_rounds_reused`` (rounds a fill took
from the memo instead of running), and the shared
``flowsim.maxmin_iterations``, which counts a fill's *logical* rounds —
the rounds a cold fill of the same problem runs — so it means the same
whether a fill resumed or not.  Each fill is a ``flowsim.fill`` span and
one ``flowsim.fill_rounds`` histogram sample of its logical rounds.
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

#: freeze round of a column no memo round froze (new, dead or linkless).
_NEVER = np.iinfo(np.int64).max

#: ``flowsim.fill_rounds`` bucket bounds: logical rounds per fill.
_ROUND_BOUNDS = tuple(float(2**k) for k in range(11))


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
        "_capacity": "restore replays set_capacity from captured factors",
        "_tick": (
            "change counter read only for equality with _solved_tick "
            "(pending); restore's priming solve leaves pending False, as "
            "the live solver is between steps"
        ),
        "_solved_tick": "memo; invalidated on restore, next solve recomputes",
        "_last_rounds": "memo; invalidated on restore, next solve recomputes",
        "_rates": (
            "round memo: per-column rates of the last fill, a function of "
            "the solved problem; restore's priming solve recomputes them "
            "under renumbered column ids"
        ),
        "_fround": (
            "round memo: per-column freeze round of the last fill, a "
            "function of the solved problem; restore's priming solve "
            "recomputes it under renumbered column ids"
        ),
        "_hist": (
            "round memo: start-of-round link state of the last fill, a "
            "function of the solved problem; restore's priming solve "
            "recomputes every row it reads (rows past the round count and "
            "the spare width are never read)"
        ),
        "_cuts": (
            "round memo: per-round cutoffs of the last fill; restore's "
            "priming solve recomputes every entry below the round count, "
            "the only ones read"
        ),
        "_dirty": (
            "earliest freeze round touched since the last fill; every fill "
            "resets it, restore's priming solve included, and a checkpoint "
            "is taken between steps"
        ),
        "_cold": (
            "whether the next fill must start at round 0; every fill clears "
            "it, restore's priming solve included, and a checkpoint is "
            "taken between steps"
        ),
        "_load": "scratch buffer rebound wholesale by solve()",
        "_rowmap": "scratch buffer rebound wholesale by solve()",
        "_share": "scratch buffer rebound wholesale by solve()",
        "_satf": "scratch buffer rebound wholesale by solve()",
        "_active": "scratch buffer rebound wholesale by solve()",
        "_sat_slab": "scratch buffer rebound wholesale by solve()",
        "_tf_slab": "scratch buffer rebound wholesale by solve()",
        "_w_slab": "scratch buffer rebound wholesale by solve()",
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
        self._capacity: np.ndarray = np.zeros(0, dtype=np.float64)
        # Memo: the tick, and the round memo of the last fill (rows of
        # ``_hist`` are rounds; each holds the per-link [count, residual,
        # load] at the start of that round).
        self._tick = 0
        self._solved_tick = -1
        self._last_rounds = 0
        self._rates: np.ndarray = np.zeros(0, dtype=np.float64)
        self._fround: np.ndarray = np.zeros(0, dtype=np.int64)
        self._hist: np.ndarray = np.zeros((0, 3, 0), dtype=np.float64)
        self._cuts: np.ndarray = np.zeros(0, dtype=np.float64)
        self._dirty = _NEVER
        self._cold = True
        # Reused solve buffers.
        self._load: np.ndarray = np.zeros(0, dtype=np.float64)
        self._rowmap: np.ndarray = np.zeros(0, dtype=np.int64)
        self._share: np.ndarray = np.zeros(0, dtype=np.float64)
        self._satf: np.ndarray = np.zeros(0, dtype=np.float64)
        self._active: np.ndarray = np.zeros(0, dtype=bool)
        self._sat_slab: np.ndarray = np.zeros(0, dtype=np.float64)
        self._tf_slab: np.ndarray = np.zeros(0, dtype=bool)
        self._w_slab: np.ndarray = np.zeros(0, dtype=np.float64)
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
            self._dirty = min(self._dirty, int(self._fround[col]))
            self.pool_hits += 1
            tm.inc("flowsim.pool_hits")
            return col
        n = len(path)
        free = self._free.get(n)
        if free:
            col = free.pop()
            self.cols_reused += 1
            tm.inc("flowsim.cols_reused")
        else:
            col = self._new_column(n)
        start = int(self._col_start[col])
        if n:
            links = np.asarray(path, dtype=np.int64)
            self._slab_rows[start : start + n] = links
            maxlink = int(links.max())
            self._col_maxlink[col] = maxlink
            self._base_counts = _grow_to(self._base_counts, maxlink + 1)
        else:
            self._col_maxlink[col] = -1
        self._mult[col] = 1.0
        self._path_col[path] = col
        self._col_path[col] = path
        return col

    def _new_column(self, n: int) -> int:
        """A fresh column id owning a new ``n``-entry slab segment."""
        col = self._n_cols
        self._n_cols += 1
        self._col_start = _grow_to(self._col_start, self._n_cols)
        self._col_len = _grow_to(self._col_len, self._n_cols)
        self._mult = _grow_to(self._mult, self._n_cols)
        self._col_maxlink = _grow_to(self._col_maxlink, self._n_cols)
        self._fround = _grow_to(self._fround, self._n_cols, _NEVER)
        start = self._slab_used
        self._slab_used = start + n
        self._slab_rows = _grow_to(self._slab_rows, self._slab_used)
        self._slab_cols = _grow_to(self._slab_cols, self._slab_used)
        self._slab_cols[start : start + n] = col
        self._col_start[col] = start
        self._col_len[col] = n
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
                col = self._new_column(n)
                start = int(self._col_start[col])
                self._slab_rows[start : start + n] = 0
                self._mult[col] = 0.0
                self._col_maxlink[col] = 0 if n else -1
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
        self._dirty = min(self._dirty, int(self._fround[col]))
        if path:
            np.add.at(self._base_counts, self._segment(col), -1.0)
            self._tick += 1
        if self._mult[col] <= 0.0:
            # A recycled segment joins the next fill unfrozen.
            self._fround[col] = _NEVER
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

        Copy-on-change: an identical vector leaves the memo tick alone.  A
        vector that only appends links (newly interned ones) keeps the round
        memo: the new links enter every memo row inert at full capacity.
        Any other change makes the next fill cold.
        """
        cap = np.asarray(capacity, dtype=np.float64)
        old = self._capacity
        if cap.shape == old.shape and np.array_equal(cap, old):
            return
        k, n = old.shape[0], cap.shape[0]
        if n < k or not np.array_equal(cap[:k], old):
            self._cold = True
        elif not self._cold:
            rows = self._last_rounds + 1
            self._hist = self._hist_sized(rows, n + 1, rows)
            new_links = self._hist[:rows, :, k:n]
            new_links[:, 0] = 0.0
            new_links[:, 1] = cap[k:]
            new_links[:, 2] = 0.0
        self._capacity = cap.copy()
        self._tick += 1

    def invalidate(self) -> None:
        """Force the next :meth:`solve` to re-run the fill.

        This only defeats the memo: the fill that then runs is still the
        pooled one over the maintained incidence.  ``mode="full"`` of the
        scenario engine calls it every event; the cold reference is
        :meth:`crosscheck`.  The fill starts at round 0 (no rounds are
        taken from the round memo).
        """
        self._cold = True
        self._tick += 1

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self) -> bool:
        """Progressive filling over the pooled columns.

        Returns ``True`` when a fill ran, ``False`` on a memo hit (inputs
        unchanged since the last solve — the cached rates and load are
        what a re-solve would produce, so the saved rounds are counted in
        ``flowsim.warm_rounds_saved`` instead of replayed).  A fill that
        runs resumes from the round memo where the module docstring's
        argument allows; its rates and load are the cold fill's, bit for
        bit.
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
        if int(self._col_maxlink[:n].max(initial=-1, where=live)) >= cap_len:
            raise SimulationError(
                "flow path references a link outside the capacity vector"
            )
        self._base_counts = _grow_to(self._base_counts, cap_len)
        with tm.span("flowsim.fill"):
            start = self._resume_round(cap_len)
            rounds = self._fill(start, live & (self._col_len[:n] > 0), cap_len)
        self._last_rounds = rounds
        self.rounds_total += rounds
        t = tm.active()
        if t is not None:
            t.inc("flowsim.maxmin_iterations", rounds)
            t.inc("flowsim.fill_rounds_reused", start)
            t.observe("flowsim.fill_rounds", rounds, bounds=_ROUND_BOUNDS)
        self._solved_tick = self._tick
        return True

    def _hist_sized(self, rows: int, width: int, valid: int) -> np.ndarray:
        """The round memo with room for ``rows`` rounds over ``width``
        links, keeping its first ``valid`` rows (amortized growth: rows by
        half, width by an eighth, since each row copies whole)."""
        hist = self._hist
        have_rows, _, have_width = hist.shape
        if rows <= have_rows and width <= have_width:
            return hist
        if rows > have_rows:
            rows = max(rows, have_rows + have_rows // 2, 16)
        if width > have_width:
            width = max(width, have_width + have_width // 8, _GROW)
        out = np.empty((max(rows, have_rows), 3, max(width, have_width)))
        out[:valid, :, :have_width] = hist[:valid]
        return out

    def _resume_round(self, cap_len: int) -> int:
        """The first round of the last fill that the mutations since can
        change (the module docstring's ``r*``), after adding their count
        deltas to the memo rows up to it; a cold fill writes row 0 anew
        and starts at 0."""
        counts = self._base_counts[:cap_len]
        if self._cold:
            hist = self._hist = self._hist_sized(1, cap_len + 1, 0)
            hist[0, 1, :cap_len] = self._capacity
            hist[0, 2, :cap_len] = 0.0
            start = 0
        else:
            hist = self._hist
            start = min(self._last_rounds, self._dirty)
        if start == 0:
            # Round 0's residual and load change only in a cold fill.
            hist[0, 0, :cap_len] = counts
            return 0
        delta = counts - hist[0, 0, :cap_len]
        changed = np.flatnonzero(delta)
        if changed.shape[0]:
            d = delta[changed]
            new_counts = hist[:start, 0, changed] + d
            share = np.full(new_counts.shape, math.inf)
            np.divide(
                hist[:start, 1, changed],
                new_counts,
                out=share,
                where=new_counts > 0.5,
            )
            under = (share <= self._cuts[:start, None]).any(axis=1)
            first = int(under.argmax())
            if under[first]:
                start = first
            hist[: start + 1, 0, changed] += d
        return start

    def _fill(self, start: int, fillable: np.ndarray, cap_len: int) -> int:
        """Progressive filling from memo row ``start`` over the columns in
        ``fillable`` (live, with links) that are still unfrozen there;
        records every round it runs into the memo and returns the fill's
        logical round count."""
        self._cold = False
        self._dirty = _NEVER
        n = fillable.shape[0]
        hist = self._hist
        # Link-space compaction: the fill only ever changes links active at
        # ``start`` (``lids``); every other link is inactive with an
        # infinite share from there on, so dropping it changes no float
        # the rounds compute.  The round state ``st`` (count, residual,
        # load rows) lives in the compact space of ``m`` links plus one
        # trailing dummy slot that absorbs the rows of links a compaction
        # drops (zero count, infinite residual — it can never win the
        # bottleneck).
        row = hist[start]
        lids = np.flatnonzero(row[0, :cap_len] > 0.5)
        m = lids.shape[0]
        st = np.empty((3, m + 1))
        st[:, :m] = row[:, lids]
        st[:, m] = (0.0, math.inf, 0.0)
        counts, residual, load = st
        # Memo rows are recorded through their flat view: ``spots`` holds
        # the flat position of every ``st`` entry, the dummy slot's in the
        # spare last column (``_hist_sized`` keeps one past ``cap_len``).
        width = hist.shape[2]
        offsets = np.array([[0], [width], [2 * width]])
        spots = (np.append(lids, width - 1) + offsets).ravel()
        flat = hist.reshape(hist.shape[0], 3 * width)
        self._rates = _grow_to(self._rates, n)
        rates = self._rates[:n]
        fround = self._fround[:n]
        # Columns frozen before ``start`` keep their memo rates and never
        # enter the slab the rounds run over.
        unfrozen = fillable & (fround >= start)
        slab_cols = self._slab_cols[: self._slab_used]
        keep = unfrozen.take(slab_cols)
        cols = slab_cols[keep]
        self._rowmap = _grow_to(self._rowmap, cap_len + 1)
        rowmap = self._rowmap[:cap_len]
        rowmap.fill(m)
        rowmap[lids] = np.arange(m, dtype=np.int64)
        rows_c = rowmap.take(self._slab_rows[: self._slab_used][keep])
        multc = self._mult.take(cols)
        n_slab = rows_c.shape[0]
        self._sat_slab = _grow_to(self._sat_slab, n_slab)
        sat_slab = self._sat_slab[:n_slab]
        self._tf_slab = _grow_to(self._tf_slab, n_slab)
        tf_slab = self._tf_slab[:n_slab]
        self._w_slab = _grow_to(self._w_slab, n_slab)
        w_slab = self._w_slab[:n_slab]
        self._share = _grow_to(self._share, m + 1)
        share = self._share[: m + 1]
        self._satf = _grow_to(self._satf, m + 1)
        satf = self._satf[: m + 1]
        self._active = _grow_to(self._active, m + 1)
        active = self._active[: m + 1]

        take = np.ndarray.take
        min_ = np.minimum.reduce
        slab_live = n_slab
        mcur = m
        self._cuts = cuts = _grow_to(self._cuts, start + m + 2)
        last = start  # memo row holding the fill's final state
        for r in range(start, start + m + 2):
            if r > start:
                # Record the start-of-round state: links outside the
                # current space are inert, so they keep the previous row.
                if r >= flat.shape[0]:
                    hist = self._hist = self._hist_sized(r + 1, cap_len + 1, r)
                    flat = hist.reshape(hist.shape[0], 3 * width)
                flat[r] = flat[r - 1]
                flat[r][spots] = st.ravel()
                last = r
            np.greater(counts, 0.5, out=active)
            na = int(np.count_nonzero(active))
            if na == 0:
                break
            if 2 * (na + 1) < counts.shape[0]:
                # Deactivated links are inert (infinite share, zero
                # deltas) and their final state is in the memo row just
                # recorded, so dropping them is pure reindexing.
                alive = np.flatnonzero(active)
                lids = lids[alive]
                spots = (np.append(lids, width - 1) + offsets).ravel()
                nst = np.empty((3, na + 1))
                nst[:, :na] = st[:, alive]
                nst[:, na] = (0.0, math.inf, 0.0)
                st = nst
                counts, residual, load = st
                remap = self._rowmap[: mcur + 1]
                remap.fill(na)
                remap[alive] = np.arange(na, dtype=np.int64)
                rows_c = remap.take(rows_c)
                mcur = na
                share = self._share[: mcur + 1]
                satf = self._satf[: mcur + 1]
                active = self._active[: mcur + 1]
                np.greater(counts, 0.5, out=active)
            share.fill(np.inf)
            np.divide(residual, counts, out=share, where=active)
            bottleneck = float(min_(share))
            if not math.isfinite(bottleneck):  # pragma: no cover - defensive
                # maxmin_rates stops here as well, its unfrozen flows at
                # rate 0; the memo lacks this round, so the next fill is
                # cold.
                rates[unfrozen] = 0.0
                self._cold = True
                r += 1
                break
            cutoff = bottleneck + self.tol + self.group_rtol * max(
                bottleneck, 0.0
            )
            cuts[r] = cutoff
            # Inactive links hold an infinite share, so the cutoff test
            # alone is maxmin_rates' ``active & (share <= cutoff)`` — the
            # float out array feeds straight into the incidence gather.
            np.less_equal(share, cutoff, out=satf)
            take(satf, rows_c, out=sat_slab)
            touched = np.bincount(cols, weights=sat_slab, minlength=n)
            to_freeze = unfrozen & (touched > 0.5)
            rate = max(bottleneck, 0.0)
            rates[to_freeze] = rate
            fround[to_freeze] = r
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
            load += freeze_counts
            # Frozen columns are inert for the rest of the fill (zero
            # weight everywhere above), so once they hold most of the
            # slab, drop their entries — pure reindexing, no float
            # changes.  Each column freezes at most once, so the
            # compression work amortizes to O(slab) per solve.
            slab_live -= int(np.count_nonzero(tf_slab))
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
        # The last memo row is the per-link allocation in link space (the
        # links no fill touched carry zero load, exactly as the cold
        # solver's round-ordered accumulation leaves them).
        self._load = _grow_to(self._load, cap_len)
        self._load[:cap_len] = self._hist[last, 2, :cap_len]
        self._load[cap_len:] = 0.0
        return r

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
