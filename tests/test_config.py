"""The unified config surface: dict round-trip, strictness, registry."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CONFIG_TYPES,
    FluidSimConfig,
    MifoEngineConfig,
    ScenarioConfig,
    ServiceConfig,
    TopologyConfig,
    config_from_dict,
    config_to_dict,
)
from repro.errors import ConfigError

# ---------------------------------------------------------------------------
# Per-class strategies producing instances that pass their own validate().
# ---------------------------------------------------------------------------
topology_configs = st.builds(
    TopologyConfig,
    n_ases=st.integers(min_value=50, max_value=500),
    n_tier1=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

scenario_configs = st.builds(
    ScenarioConfig,
    mode=st.sampled_from(["incremental", "full"]),
    verify=st.booleans(),
    crosscheck=st.booleans(),
    link_capacity_bps=st.floats(min_value=1e6, max_value=1e12),
    congest_threshold=st.floats(min_value=0.5, max_value=0.99),
    clear_threshold=st.floats(min_value=0.1, max_value=0.49),
    record_capacity=st.one_of(
        st.none(), st.integers(min_value=1, max_value=4096)
    ),
)

service_configs = st.builds(
    ServiceConfig,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    arrival_rate=st.floats(min_value=1.0, max_value=1e4),
    mean_lifetime_events=st.floats(min_value=1.0, max_value=1e4),
    p_link_event=st.floats(min_value=0.0, max_value=0.4),
    p_capacity_event=st.floats(min_value=0.0, max_value=0.4),
    max_failed_links=st.integers(min_value=1, max_value=16),
    traffic=st.sampled_from(["zipf", "uniform"]),
    zipf_alpha=st.floats(min_value=0.1, max_value=3.0),
    record_capacity=st.one_of(
        st.none(), st.integers(min_value=1, max_value=4096)
    ),
    checkpoint_every=st.integers(min_value=0, max_value=1000),
    verify_every=st.integers(min_value=0, max_value=1000),
)


def _roundtrip(config):
    cls = type(config)
    restored = config_from_dict(cls, config_to_dict(config))
    for field in dataclasses.fields(cls):
        value = getattr(config, field.name)
        if isinstance(value, (bool, int, float, str, type(None), tuple)):
            assert getattr(restored, field.name) == value, field.name


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(config=topology_configs)
    def test_topology(self, config):
        _roundtrip(config)

    @settings(max_examples=50, deadline=None)
    @given(config=scenario_configs)
    def test_scenario(self, config):
        _roundtrip(config)

    @settings(max_examples=50, deadline=None)
    @given(config=service_configs)
    def test_service(self, config):
        _roundtrip(config)

    def test_defaults_roundtrip_for_every_registered_class(self):
        for cls in CONFIG_TYPES.values():
            _roundtrip(cls())

    def test_float_values_roundtrip_exactly(self):
        # JSON repr round-trips Python floats bit for bit — the property
        # the checkpoint format's byte-identity rests on.
        import json

        cfg = ServiceConfig(arrival_rate=1.0 / 3.0, zipf_alpha=0.1 + 0.2)
        data = json.loads(json.dumps(config_to_dict(cfg)))
        restored = config_from_dict(ServiceConfig, data)
        assert restored.arrival_rate == cfg.arrival_rate
        assert restored.zipf_alpha == cfg.zipf_alpha


class TestStrictness:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="no field"):
            config_from_dict(TopologyConfig, {"n_asse": 100})

    def test_validate_runs_on_the_way_in(self):
        with pytest.raises(ConfigError):
            config_from_dict(ServiceConfig, {"p_link_event": 0.9,
                                             "p_capacity_event": 0.9})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "cls, field",
        [
            (ServiceConfig, "arrival_rate"),
            (ServiceConfig, "mean_lifetime_events"),
            (ServiceConfig, "zipf_alpha"),
            (ServiceConfig, "link_capacity_bps"),
            (ScenarioConfig, "link_capacity_bps"),
            (FluidSimConfig, "link_capacity_bps"),
            (FluidSimConfig, "congest_threshold"),
            (FluidSimConfig, "clear_threshold"),
            (FluidSimConfig, "min_switch_interval"),
            (FluidSimConfig, "control_plane_interval"),
        ],
    )
    def test_non_finite_value_rejected(self, cls, field, value):
        with pytest.raises(ConfigError, match=field):
            cls(**{field: value}).validate()

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError, match="magic"):
            config_from_dict(FluidSimConfig, {"solver": "magic"})

    def test_missing_keys_keep_defaults(self):
        cfg = config_from_dict(ServiceConfig, {"seed": 99})
        assert cfg.seed == 99
        assert cfg.arrival_rate == ServiceConfig().arrival_rate

    def test_non_dataclass_rejected(self):
        with pytest.raises(ConfigError):
            config_to_dict({"not": "a config"})
        with pytest.raises(ConfigError):
            config_from_dict(dict, {})

    def test_instance_passed_as_type_rejected(self):
        with pytest.raises(ConfigError):
            config_to_dict(TopologyConfig)


class TestSerialization:
    def test_object_fields_dropped(self):
        data = config_to_dict(MifoEngineConfig())
        assert "carrier" not in data

    def test_tuples_become_lists_and_back(self):
        @dataclasses.dataclass(frozen=True)
        class _WithTuple:
            items: tuple = (1, 2, 3)

        data = config_to_dict(_WithTuple())
        assert data["items"] == [1, 2, 3]
        restored = config_from_dict(_WithTuple, data)
        assert restored.items == (1, 2, 3)

    def test_registry_covers_every_layer(self):
        assert set(CONFIG_TYPES) == {
            "topology",
            "mifo",
            "flowsim",
            "scenario",
            "service",
            "rtt",
            "detector",
        }
        assert CONFIG_TYPES["flowsim"] is FluidSimConfig
