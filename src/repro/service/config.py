"""Service-mode configuration.

:class:`ServiceConfig` is the streaming counterpart of
:class:`~repro.flowsim.simulator.FluidSimConfig` and
:class:`~repro.scenario.engine.ScenarioConfig`: a frozen dataclass of
plain scalars, validated up front, serializable through
:mod:`repro.config` (the checkpoint format embeds it verbatim).  The
data-plane knobs (capacity, hysteresis thresholds, update mode) mirror
``ScenarioConfig`` field for field; the stream knobs describe the
unbounded workload — Poisson arrival clock, Zipf source popularity,
event-mix probabilities, flow lifetimes — plus the service's own
bounded-memory and cadence settings.
"""

from __future__ import annotations

import dataclasses
import math

from ..errors import ConfigError
from ..scenario.engine import ScenarioConfig

__all__ = ["ServiceConfig"]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the long-lived streaming service."""

    #: data plane — identical semantics to ``ScenarioConfig``.
    link_capacity_bps: float = 1e9
    congest_threshold: float = 0.95
    clear_threshold: float = 0.70
    #: control-plane update policy: ``"incremental"`` or ``"full"``.
    mode: str = "incremental"
    #: congestion signal driving deflection: ``"oracle"`` (hysteresis
    #: bits over true link load) or a measurement-driven detector over
    #: per-path RTT samples (``"threshold"`` | ``"changepoint"``).
    #: Detector state rides along in checkpoints.
    detector: str = "oracle"
    #: seed of the event stream (event ``i`` is a pure function of
    #: ``(seed, i)``, which is what makes restore-and-replay exact).
    seed: int = 2014
    #: mean stream events per virtual second (Poisson inter-arrivals).
    arrival_rate: float = 200.0
    #: mean flow lifetime measured in stream events (exponential).
    mean_lifetime_events: float = 120.0
    #: per-event probability that the event is a link flap.
    p_link_event: float = 0.02
    #: per-event probability that the event is a capacity jitter.
    p_capacity_event: float = 0.02
    #: flap events force recovery once this many links are down.
    max_failed_links: int = 4
    #: arrival endpoint sampling: ``"zipf"`` (ranked content providers
    #: toward stub consumers, the paper's power-law workload) or
    #: ``"uniform"`` (any distinct AS pair).
    traffic: str = "zipf"
    #: Zipf skew of the source popularity ranking.
    zipf_alpha: float = 1.0
    #: ring-buffer bound on retained per-event records (bounded memory).
    record_capacity: int = 1024
    #: re-certify routing invariants every N events (0 = never).
    verify_every: int = 0
    #: CLI checkpoint cadence in events (0 = only on demand).
    checkpoint_every: int = 0
    #: coalesce up to this many consecutive arrival/retirement ticks into
    #: one engine epoch (one delta-solve instead of N).  Flap, jitter,
    #: fed, and verify-cadence ticks are barriers that always flush.
    #: ``1`` (the default) applies every tick immediately — the exact
    #: one-at-a-time semantics of earlier releases.
    batch_max: int = 1

    def scenario_config(self) -> ScenarioConfig:
        """The engine-facing projection of these knobs.

        Per-event verification is driven by the session's
        ``verify_every`` cadence (a ``step(verify=...)`` override), so
        the engine's own always-on knob stays off.
        """
        return ScenarioConfig(
            link_capacity_bps=self.link_capacity_bps,
            congest_threshold=self.congest_threshold,
            clear_threshold=self.clear_threshold,
            mode=self.mode,
            verify=False,
            crosscheck=False,
            record_capacity=self.record_capacity,
            detector=self.detector,
        )

    def validate(self) -> None:
        """Reject inconsistent knob combinations."""
        self.scenario_config().validate()
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ConfigError(f"seed must be an int >= 0, got {self.seed!r}")
        for name in ("arrival_rate", "mean_lifetime_events", "zipf_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.arrival_rate <= 0:
            raise ConfigError("arrival_rate must be positive")
        if self.mean_lifetime_events < 1.0:
            raise ConfigError("mean_lifetime_events must be >= 1")
        if not 0.0 <= self.p_link_event <= 1.0:
            raise ConfigError("p_link_event outside [0, 1]")
        if not 0.0 <= self.p_capacity_event <= 1.0:
            raise ConfigError("p_capacity_event outside [0, 1]")
        if self.p_link_event + self.p_capacity_event >= 1.0:
            raise ConfigError(
                "p_link_event + p_capacity_event must leave room for arrivals"
            )
        if self.max_failed_links < 1:
            raise ConfigError("max_failed_links must be >= 1")
        if self.traffic not in ("zipf", "uniform"):
            raise ConfigError(
                f"traffic {self.traffic!r} not in ('zipf', 'uniform')"
            )
        if self.zipf_alpha <= 0:
            raise ConfigError("zipf_alpha must be positive")
        if self.verify_every < 0:
            raise ConfigError("verify_every must be >= 0")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.batch_max < 1:
            raise ConfigError("batch_max must be >= 1")
