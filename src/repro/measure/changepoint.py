"""Online changepoint detection over scalar series (pure python, no RNG).

:func:`pelt` implements the Pruned Exact Linear Time search of Killick,
Fearnhead & Eckley (2012) over the Gaussian mean-shift cost — the sum of
per-segment squared deviations from the segment mean — with a constant
per-changepoint penalty.  It is exact (identical to optimal-partitioning
dynamic programming) and the pruning keeps the candidate set small on
well-separated regimes.

:class:`OnlineDetector` wraps the offline search for streaming use: each
series keeps a bounded window of recent ``(value, epoch)`` samples,
re-runs the pruned search on every push, and raises a :class:`CpAlarm`
when a *new* changepoint stabilises (``confirm`` samples observed after
the estimated shift index).  A cheap baseline-ratio ``"threshold"`` mode
shares the same state layout so both detectors checkpoint identically.

Everything here is deterministic plain-python arithmetic — a pure
function of the pushed ``(value, epoch)`` sequence.  There is no RNG,
no clock, and no numpy, so results are bitwise reproducible across
routing backends and across checkpoint restore.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

from ..errors import ConfigError

__all__ = ["CpAlarm", "DetectorConfig", "OnlineDetector", "pelt"]


class _PeltDP:
    """Append-only form of the PELT dynamic program.

    The search is sequential in ``t``: the program state after consuming
    ``t`` samples depends only on ``values[:t]``, so appending a sample
    extends a cached run by one O(|candidates|) step instead of paying
    the O(n^2) scratch search again.  Every float operation is evaluated
    in the same order as the scratch run, so cached and uncached
    searches return bitwise-identical splits; :class:`OnlineDetector`
    rebuilds the cache from scratch whenever its window slides or after
    a checkpoint restore, which keeps the incremental path a pure
    optimisation rather than an approximation.
    """

    __slots__ = ("penalty", "min_size", "n", "_csum", "_csq", "_best", "_prev", "_cands")

    def __init__(self, penalty: float, min_size: int) -> None:
        self.penalty = penalty
        self.min_size = min_size
        self.n = 0
        self._csum = [0.0]
        self._csq = [0.0]
        self._best = [-penalty]
        self._prev = [0]
        self._cands = [0]

    def append(self, x: float) -> None:
        """Extend the program by one sample (one O(|candidates|) DP step)."""
        csum = self._csum
        csq = self._csq
        csum.append(csum[-1] + x)
        csq.append(csq[-1] + x * x)
        self.n = t = self.n + 1
        min_size = self.min_size
        best_cost = self._best
        if t < min_size:
            best_cost.append(float("inf"))
            self._prev.append(0)
            return
        penalty = self.penalty
        ct = csum[t]
        qt = csq[t]
        best = float("inf")
        arg = 0
        cands = self._cands
        bases = [0.0] * len(cands)
        for i, s in enumerate(cands):
            sx = ct - csum[s]
            base = best_cost[s] + (qt - csq[s] - sx * sx / (t - s))
            bases[i] = base
            if t - s < min_size:
                continue
            v = base + penalty
            if v < best:
                best = v
                arg = s
        best_cost.append(best)
        self._prev.append(arg)
        kept = [s for i, s in enumerate(cands) if bases[i] <= best]
        kept.append(t)
        self._cands = kept

    def splits(self) -> list[int]:
        """Sorted interior split indices of the consumed prefix."""
        out: list[int] = []
        prev = self._prev
        t = self.n
        while t > 0:
            s = prev[t]
            if s > 0:
                out.append(s)
            t = s
        out.reverse()
        return out


def pelt(values: list[float], penalty: float, min_size: int = 2) -> list[int]:
    """Exact penalised changepoint positions for ``values``.

    Returns the sorted interior split indices ``g`` (each segment is
    ``values[prev:g]``) minimising the Gaussian mean-shift cost plus
    ``penalty`` per split, with every segment at least ``min_size``
    long.  An empty list means one homogeneous segment.
    """
    if len(values) < 2 * min_size:
        return []
    dp = _PeltDP(penalty, min_size)
    for x in values:
        dp.append(x)
    return dp.splits()


@dataclasses.dataclass(frozen=True)
class CpAlarm:
    """A confirmed regime shift in one series.

    ``index`` is the global sample index of the first post-shift sample,
    ``epoch`` the epoch recorded with that sample, ``direction`` the
    sign of the level change, and ``before``/``after`` the segment means
    either side of the shift.
    """

    index: int
    epoch: int
    direction: str
    before: float
    after: float


@dataclasses.dataclass(frozen=True)
class DetectorConfig:
    """Shared knobs for both online detector modes.

    ``mode`` selects the algorithm: ``"changepoint"`` (windowed PELT) or
    ``"threshold"`` (baseline-ratio with a confirmation streak).
    ``penalty`` is the PELT per-split penalty in squared sample units;
    ``window`` bounds per-series memory; ``min_size`` is the minimum
    segment length (also the refractory spacing between alarms);
    ``confirm`` is how many post-shift samples must be seen before
    alarming; ``factor`` is the threshold mode's baseline ratio and
    ``warmup`` its baseline-estimation prefix length.
    """

    mode: str = "changepoint"
    penalty: float = 12.0
    window: int = 48
    min_size: int = 2
    confirm: int = 2
    factor: float = 1.6
    warmup: int = 5

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on bad knobs."""
        if self.mode not in ("changepoint", "threshold"):
            raise ConfigError(f"unknown detector mode: {self.mode!r}")
        if self.penalty <= 0:
            raise ConfigError("penalty must be positive")
        if self.min_size < 1:
            raise ConfigError("min_size must be >= 1")
        if self.window < 4 * self.min_size:
            raise ConfigError("window must be >= 4 * min_size")
        if not 1 <= self.confirm <= self.window:
            raise ConfigError("confirm must be in [1, window]")
        if self.factor <= 1.0:
            raise ConfigError("factor must exceed 1.0")
        if self.warmup < 1:
            raise ConfigError("warmup must be >= 1")


class OnlineDetector:
    """Streaming detector over one scalar series.

    Push samples with :meth:`push`; a non-``None`` return is a confirmed
    :class:`CpAlarm`.  State is a bounded window plus a few integers, so
    the whole detector serialises into a checkpoint row and restores
    bitwise (see ``repro.service.checkpoint``).
    """

    __slots__ = (
        "config",
        "_cp_values",
        "_cp_epochs",
        "_cp_base",
        "_cp_count",
        "_cp_last",
        "_cp_streak",
        "_cp_baseline",
        "_pelt_dp",
        "_tss_cache",
    )

    DERIVABLE: ClassVar[dict[str, str]] = {
        "_pelt_dp": "cache over _cp_values, rebuilt lazily by _push_pelt",
        "_tss_cache": "cache over _cp_values, rebuilt lazily by _push_pelt",
    }

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.config.validate()
        #: bounded sample window and the epochs they were taken at
        self._cp_values: list[float] = []
        self._cp_epochs: list[int] = []
        #: global index of ``_cp_values[0]`` (windows slide forward)
        self._cp_base = 0
        #: total samples ever pushed
        self._cp_count = 0
        #: global index of the last alarmed shift (refractory anchor)
        self._cp_last = 0
        #: signed consecutive-deviation streak (threshold mode)
        self._cp_streak = 0
        #: current regime level estimate (threshold mode; None = unset)
        self._cp_baseline: float | None = None
        #: incremental PELT program over the current window — derived
        #: cache, never checkpointed; rebuilt lazily after restore
        self._pelt_dp: _PeltDP | None = None
        #: running window sums ``(n, sum, sum_sq)`` backing the O(1)
        #: homogeneity bound — derived cache, never checkpointed
        self._tss_cache: tuple[int, float, float] | None = None

    def push(self, value: float, epoch: int) -> CpAlarm | None:
        """Observe one sample; return a confirmed alarm or ``None``."""
        self._cp_values.append(float(value))
        self._cp_epochs.append(int(epoch))
        self._cp_count += 1
        overflow = len(self._cp_values) - self.config.window
        if overflow > 0:
            del self._cp_values[:overflow]
            del self._cp_epochs[:overflow]
            self._cp_base += overflow
        if self.config.mode == "threshold":
            return self._push_threshold(float(value))
        return self._push_pelt()

    @property
    def count(self) -> int:
        """Total samples pushed over the series lifetime."""
        return self._cp_count

    def _push_pelt(self) -> CpAlarm | None:
        """Extend the windowed PELT program; alarm on the earliest new
        stable split.

        Two exact shortcuts keep the per-push cost near O(1) on quiet
        series.  First, while the window's total sum of squared
        deviations stays under 0.9x the penalty, no segmentation can
        win: every split costs ``penalty`` and segment costs are
        non-negative, so any split solution costs at least ``penalty``
        while the zero-split solution costs TSS — strictly less, and
        the 10% margin exceeds float rounding by many orders of
        magnitude.  The search provably returns no splits, so the
        dynamic program is not even built in that regime.  Second, once built, the program is
        cached and extended one step per push; a slide or a restore
        leaves it stale, and a stale cache is rebuilt from scratch —
        the rebuild replays identical arithmetic, so alarms are
        bitwise-identical whichever path ran."""
        cfg = self.config
        vals = self._cp_values
        n = len(vals)
        if n < 2 * cfg.min_size or self._cp_count <= cfg.warmup:
            return None
        dp = self._pelt_dp
        if dp is not None and dp.n == n - 1:
            dp.append(vals[-1])
        else:
            cache = self._tss_cache
            if cache is not None and cache[0] == n - 1:
                s1 = cache[1] + vals[-1]
                s2 = cache[2] + vals[-1] * vals[-1]
            else:
                s1 = 0.0
                s2 = 0.0
                for x in vals:
                    s1 += x
                    s2 += x * x
            self._tss_cache = (n, s1, s2)
            if s2 - s1 * s1 / n < 0.9 * cfg.penalty:
                return None  # provably splitless window
            dp = _PeltDP(cfg.penalty, cfg.min_size)
            for x in vals:
                dp.append(x)
            self._pelt_dp = dp
        splits = dp.splits()
        for g in splits:
            global_g = self._cp_base + g
            if global_g < self._cp_last + cfg.min_size:
                continue  # refinement of an already-alarmed shift
            if len(vals) - g < cfg.confirm:
                continue  # not yet confirmed; next pushes retry
            seg_start = 0
            for s in splits:
                if s < g:
                    seg_start = s
            before = sum(vals[seg_start:g]) / (g - seg_start)
            after = sum(vals[g:]) / (len(vals) - g)
            self._cp_last = global_g
            return CpAlarm(
                index=global_g,
                epoch=self._cp_epochs[g],
                direction="up" if after > before else "down",
                before=before,
                after=after,
            )
        return None

    def _push_threshold(self, value: float) -> CpAlarm | None:
        """Baseline-ratio deviation with a confirmation streak."""
        cfg = self.config
        if self._cp_count <= cfg.warmup:
            return None
        if self._cp_baseline is None:
            prefix = sorted(self._cp_values[: cfg.warmup])
            mid = len(prefix) // 2
            if len(prefix) % 2:
                self._cp_baseline = prefix[mid]
            else:
                self._cp_baseline = 0.5 * (prefix[mid - 1] + prefix[mid])
        base = self._cp_baseline
        if value > base * cfg.factor:
            step = 1
        elif value < base / cfg.factor:
            step = -1
        else:
            self._cp_streak = 0
            return None
        if self._cp_streak * step <= 0:
            self._cp_streak = step
        else:
            self._cp_streak += step
        run = abs(self._cp_streak)
        if run < cfg.confirm:
            return None
        g = len(self._cp_values) - run
        global_g = self._cp_base + g
        self._cp_streak = 0
        if global_g < self._cp_last + cfg.min_size:
            return None  # still inside the refractory window
        self._cp_last = global_g
        before = base
        self._cp_baseline = value  # rebase onto the new regime
        return CpAlarm(
            index=global_g,
            epoch=self._cp_epochs[g],
            direction="up" if step > 0 else "down",
            before=before,
            after=value,
        )
