"""Deterministic per-path RTT observable with seeded noise.

The model composes three terms per directed link: a fixed propagation
delay drawn once per AS pair from ``default_rng((seed, salt, lo, hi))``
(symmetric, cached), an M/M/1-style queueing delay that grows with link
utilisation, and a per-``(flow, epoch)`` Gaussian measurement noise
(a splitmix64-hashed Box-Muller draw — constructing a numpy Generator
per sample costs ~20us each and dominated the measurement loop).
A flow's RTT is twice the one-way sum over its path links plus noise —
the symmetric-path approximation: the reverse direction is assumed to
traverse the same links, which holds for the undirected capacity model
used by the scenario engine's max-min allocator.

Every term is a pure function of ``(seed, endpoints | flow, epoch)``,
so samples are bitwise identical across routing backends, across
incremental/full modes, and across checkpoint restore.  The online
detectors themselves (:mod:`repro.measure.changepoint`) contain no RNG
at all.

:class:`PathRttMonitor` is the stateful per-flow front end the scenario
engine drives once per epoch; its detector windows are serialised into
service checkpoints (see ``repro.service.checkpoint``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar, Iterable, NamedTuple, Sequence

import numpy as np

from ..errors import ConfigError
from .changepoint import DetectorConfig, OnlineDetector

__all__ = [
    "PathRttMonitor",
    "RttAlarm",
    "RttModel",
    "RttModelConfig",
    "RttSample",
]

#: rng stream salts keeping propagation and noise draws independent
_PROP_SALT = 715_517
_NOISE_SALT = 911_623

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """One splitmix64 round (Steele, Lea & Flood 2014)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclasses.dataclass(frozen=True)
class RttModelConfig:
    """Knobs of the synthetic RTT observable (all milliseconds).

    ``base_delay_ms`` +/- ``delay_jitter_ms`` bounds the per-link
    propagation draw; ``queue_delay_ms`` scales the M/M/1 queueing term
    ``u / (1 - u)`` whose utilisation argument is capped at
    ``util_knee`` to keep saturated links finite; ``noise_ms`` is the
    per-sample Gaussian measurement noise sigma.
    """

    base_delay_ms: float = 4.0
    delay_jitter_ms: float = 3.0
    queue_delay_ms: float = 1.5
    util_knee: float = 0.97
    noise_ms: float = 0.25

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on bad knobs."""
        if self.base_delay_ms <= 0:
            raise ConfigError("base_delay_ms must be positive")
        if not 0 <= self.delay_jitter_ms < self.base_delay_ms:
            raise ConfigError("delay_jitter_ms must be in [0, base_delay_ms)")
        if self.queue_delay_ms < 0:
            raise ConfigError("queue_delay_ms must be >= 0")
        if not 0 < self.util_knee < 1:
            raise ConfigError("util_knee must be in (0, 1)")
        if self.noise_ms < 0:
            raise ConfigError("noise_ms must be >= 0")


class RttSample(NamedTuple):
    """One per-flow RTT observation (milliseconds).

    A named tuple rather than a frozen dataclass: the measurement loop
    builds one per flow per epoch and frozen-dataclass construction
    costs several times a tuple's.
    """

    flow_id: int
    rtt_ms: float


@dataclasses.dataclass(frozen=True)
class RttAlarm:
    """A confirmed RTT regime shift on one flow's path.

    ``epoch`` is when the alarm fired; ``cp_epoch`` the detector's
    estimate of when the shift actually happened (first post-shift
    sample); ``before_ms``/``after_ms`` the level either side.
    """

    flow_id: int
    epoch: int
    cp_epoch: int
    direction: str
    before_ms: float
    after_ms: float


class RttModel:
    """Pure-function RTT terms over ``(seed, link endpoints, utilisation)``."""

    def __init__(self, config: RttModelConfig | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else RttModelConfig()
        self.config.validate()
        self.seed = int(seed)
        #: memo of the per-pair propagation draw (pure, rebuilt lazily)
        self._prop_cache: dict[tuple[int, int], float] = {}
        #: pre-mixed (seed, salt) prefix of the per-sample noise hash
        self._noise_key = _mix64(_mix64(self.seed & _MASK64) ^ _NOISE_SALT)

    def propagation_ms(self, u: int, v: int) -> float:
        """Fixed symmetric propagation delay of the ``(u, v)`` link."""
        lo, hi = (u, v) if u <= v else (v, u)
        got = self._prop_cache.get((lo, hi))
        if got is None:
            cfg = self.config
            r = float(np.random.default_rng((self.seed, _PROP_SALT, lo, hi)).random())
            got = max(0.1, cfg.base_delay_ms + cfg.delay_jitter_ms * (2.0 * r - 1.0))
            self._prop_cache[(lo, hi)] = got
        return got

    def queueing_ms(self, utilization: np.ndarray) -> np.ndarray:
        """Vectorised M/M/1 queueing delay for per-link utilisations."""
        u = np.clip(utilization, 0.0, self.config.util_knee)
        return np.asarray(self.config.queue_delay_ms * u / (1.0 - u))

    def link_delays_ms(
        self, links: Sequence[tuple[int, int]], utilization: np.ndarray
    ) -> np.ndarray:
        """One-way delay per link: propagation + queueing."""
        prop = np.fromiter(
            (self.propagation_ms(u, v) for u, v in links),
            dtype=np.float64,
            count=len(links),
        )
        return prop + self.queueing_ms(np.asarray(utilization, dtype=np.float64))

    def noise_ms(self, flow_id: int, epoch: int) -> float:
        """Per-``(flow, epoch)`` Gaussian measurement noise draw.

        Box-Muller over two splitmix64-keyed uniforms: the measurement
        loop takes one draw per flow per epoch, and a per-call numpy
        Generator would cost more than the rest of the sample combined.
        """
        sigma = self.config.noise_ms
        if sigma == 0:
            return 0.0
        # three inlined splitmix64 rounds (see _mix64) — one per key,
        # one to decorrelate the second uniform
        z = (self._noise_key ^ (flow_id & _MASK64)) + 0x9E3779B97F4A7C15 & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = (z ^ (z >> 31) ^ (epoch & _MASK64)) + 0x9E3779B97F4A7C15 & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
        z = (h + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        u1 = ((h >> 11) + 1) * 2.0**-53
        u2 = (((z ^ (z >> 31)) >> 11) + 1) * 2.0**-53
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class PathRttMonitor:
    """Per-flow RTT series with one online detector per flow.

    The scenario engine calls :meth:`observe_epoch` once per epoch with
    the active flows (id + path link indices), the interned link list
    and per-link utilisation; it gets back the epoch's samples and any
    confirmed alarms.  Detector windows are checkpointed state — the
    service layer serialises ``_rtt_series`` rows and the counters so
    restore-then-replay alarms bitwise-identically.
    """

    #: Checkpoint derivability: attributes restore rebuilds, with why.
    DERIVABLE: ClassVar[dict[str, str]] = {
        "model": (
            "rebuilt from the rtt model config + engine seed at construction; "
            "the propagation cache is a pure function of (seed, endpoints) "
            "refilled lazily by observe_epoch"
        ),
    }

    def __init__(
        self,
        seed: int,
        config: DetectorConfig | None = None,
        model: RttModelConfig | None = None,
    ) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.config.validate()
        self.model = RttModel(model, seed)
        #: per-flow detector state — checkpointed, keyed by flow id
        self._rtt_series: dict[int, OnlineDetector] = {}
        self._rtt_samples_total = 0
        self._rtt_alarms_total = 0

    @property
    def samples_total(self) -> int:
        """Total RTT samples taken over the monitor lifetime."""
        return self._rtt_samples_total

    @property
    def alarms_total(self) -> int:
        """Total confirmed alarms raised over the monitor lifetime."""
        return self._rtt_alarms_total

    @property
    def series_count(self) -> int:
        """Number of live per-flow series."""
        return len(self._rtt_series)

    def new_detector(self) -> OnlineDetector:
        """A fresh detector with this monitor's config (restore hook)."""
        return OnlineDetector(self.config)

    def observe_epoch(
        self,
        epoch: int,
        flows: Iterable[tuple[int, Sequence[int]]],
        links: Sequence[tuple[int, int]],
        utilization: np.ndarray,
    ) -> tuple[list[RttSample], list[RttAlarm]]:
        """Sample every flow's path RTT and push into its detector."""
        delays = self.model.link_delays_ms(links, utilization).tolist()
        noise = self.model.noise_ms
        series = self._rtt_series
        samples: list[RttSample] = []
        alarms: list[RttAlarm] = []
        for flow_id, link_ids in flows:
            one_way = 0.0
            for i in link_ids:
                one_way += delays[i]
            rtt = max(0.05, 2.0 * one_way + noise(flow_id, epoch))
            samples.append(RttSample(flow_id, rtt))
            detector = series.get(flow_id)
            if detector is None:
                detector = OnlineDetector(self.config)
                series[flow_id] = detector
            alarm = detector.push(rtt, epoch)
            if alarm is not None:
                alarms.append(
                    RttAlarm(
                        flow_id=flow_id,
                        epoch=epoch,
                        cp_epoch=alarm.epoch,
                        direction=alarm.direction,
                        before_ms=alarm.before,
                        after_ms=alarm.after,
                    )
                )
        self._rtt_samples_total += len(samples)
        self._rtt_alarms_total += len(alarms)
        return samples, alarms

    def drop_flow(self, flow_id: int) -> None:
        """Forget a retired flow's series (bounded-memory contract)."""
        self._rtt_series.pop(flow_id, None)
