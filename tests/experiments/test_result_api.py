"""The unified experiment API: ExperimentResult and SharedContext keying."""

import dataclasses
import json

import pytest

from repro.bgp.propagation import DEFAULT_BACKEND
from repro.experiments import ribstudy, table1
from repro.experiments.common import SCALES, ExperimentScale, SharedContext
from repro.experiments.result import (
    PROVENANCE_KEYS,
    ExperimentResult,
    freeze_series,
)


class TestExperimentResult:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run("test")

    def test_is_frozen_dataclass(self, result):
        assert isinstance(result, ExperimentResult)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.name = "other"

    def test_fields(self, result):
        assert result.name == "table1"
        assert result.scale == "test"
        assert isinstance(result.series, dict)
        assert result.meta["n_nodes"] == SCALES["test"].n_ases

    def test_to_json_roundtrip(self, result):
        payload = json.loads(result.to_json())
        assert payload["name"] == "table1"
        assert payload["scale"] == "test"
        assert set(payload) == {"name", "scale", "series", "meta"}
        assert payload["meta"]["backend"] == DEFAULT_BACKEND

    def test_render_delegates_to_raw(self, result):
        assert result.render() == result.raw.render()

    def test_attribute_shim_removed(self, result):
        # The PR-1 deprecation is complete: the envelope no longer
        # forwards missing attributes to ``raw`` — rich-result access
        # must spell out ``result.raw.<attr>``.
        with pytest.raises(AttributeError):
            result.stats
        assert result.raw.stats is not None

    def test_missing_attribute_raises(self, result):
        with pytest.raises(AttributeError):
            result.no_such_attribute

    def test_series_points_are_floats(self):
        frozen = freeze_series({"a": [(1, 2), (3.5, 4)]})
        assert frozen == {"a": ((1.0, 2.0), (3.5, 4.0))}

    def test_backends_produce_identical_meta(self):
        # Strip the whole provenance set, not just "backend": cache stats
        # legitimately differ across backends (and with test execution
        # order) — that is exactly why they are excluded from the
        # determinism-checked payload.
        dict_result = ribstudy.run("test", backend="dict")
        array_result = ribstudy.run("test", backend="array")
        dmeta = {
            k: v for k, v in dict_result.meta.items() if k not in PROVENANCE_KEYS
        }
        ameta = {
            k: v for k, v in array_result.meta.items() if k not in PROVENANCE_KEYS
        }
        assert dmeta == ameta


class TestSharedContextKeying:
    def test_same_name_different_size_do_not_alias(self):
        """Regression: the cache used to key on (name, seed) only, so two
        scales sharing a name but differing in n_ases silently aliased."""
        small = ExperimentScale(
            "clash", n_ases=60, n_flows=10, arrival_rate=10.0, n_pairs=5
        )
        large = dataclasses.replace(small, n_ases=90)
        ctx_small = SharedContext.get(small)
        ctx_large = SharedContext.get(large)
        assert ctx_small is not ctx_large
        assert len(ctx_small.graph) == 60
        assert len(ctx_large.graph) == 90

    def test_full_scale_still_memoized(self):
        a = SharedContext.get("test")
        b = SharedContext.get("test")
        assert a is b

    def test_backend_partitions_the_cache(self):
        d = SharedContext.get("test", backend="dict")
        a = SharedContext.get("test", backend="array")
        assert d is not a
        assert a.routing.backend == "array"
