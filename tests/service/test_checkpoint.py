"""Checkpoint/restore: kill at any index, replay byte-identically.

The module runs one uninterrupted reference stream, capturing a
checkpoint *at every event index* along the way.  Hypothesis then picks
kill points; each restored session replays the remaining events and must
match the reference on the determinism payload (``to_json`` without
provenance) **and** on every telemetry counter — the streaming service's
headline guarantee.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service import FlowArrival, ServiceConfig, ServiceSession
from repro.service.checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_VERSION
from repro.topology.generator import TopologyConfig

TOPO = TopologyConfig(n_ases=70, seed=6)
CFG = ServiceConfig(
    seed=29,
    arrival_rate=60.0,
    mean_lifetime_events=8.0,
    p_link_event=0.08,
    p_capacity_event=0.08,
    record_capacity=24,
)
N_EVENTS = 36


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted run + a checkpoint taken before every event."""
    s = ServiceSession(CFG, topology=TOPO, telemetry=True)
    checkpoints = []
    for _ in range(N_EVENTS):
        checkpoints.append(s.checkpoint())
        s.step()
    return {
        "session": s,
        "checkpoints": checkpoints,
        "payload": s.result().to_json(include_provenance=False),
        "counters": dict(s.telemetry.counters),
    }


class TestKillAndRestore:
    @settings(max_examples=12, deadline=None)
    @given(kill=st.integers(min_value=0, max_value=N_EVENTS - 1))
    def test_restore_replays_byte_identically(self, reference, kill):
        restored = ServiceSession.restore(reference["checkpoints"][kill])
        restored.drain(N_EVENTS - kill)
        assert (
            restored.result().to_json(include_provenance=False)
            == reference["payload"]
        )
        assert restored.telemetry is not None
        assert dict(restored.telemetry.counters) == reference["counters"]

    def test_restore_at_zero_replays_the_whole_stream(self, reference):
        restored = ServiceSession.restore(reference["checkpoints"][0])
        restored.drain(N_EVENTS)
        assert (
            restored.result().to_json(include_provenance=False)
            == reference["payload"]
        )

    def test_cross_backend_restore(self, reference):
        restored = ServiceSession.restore(
            reference["checkpoints"][N_EVENTS // 2], backend="dict"
        )
        restored.drain(N_EVENTS - N_EVENTS // 2)
        assert restored.engine.routing.backend == "dict"
        assert (
            restored.result().to_json(include_provenance=False)
            == reference["payload"]
        )


class TestCheckpointBytes:
    def test_same_state_same_bytes(self, reference):
        s = reference["session"]
        assert s.checkpoint_json() == s.checkpoint_json()

    def test_restored_session_checkpoints_identically(self, reference):
        blob = reference["session"].checkpoint_json()
        restored = ServiceSession.restore(json.loads(blob))
        assert restored.checkpoint_json() == blob

    def test_both_solver_counter_pairs_come_from_the_one_solver(self, reference):
        counters = reference["session"].checkpoint()["engine"]["counters"]
        assert counters["solver_solves"] == counters["pool"]["solves"] > 0
        assert counters["solver_hits"] == counters["pool"]["hits"]

    def test_format_and_version_stamped(self, reference):
        state = reference["checkpoints"][0]
        assert state["format"] == CHECKPOINT_FORMAT
        assert state["version"] == CHECKPOINT_VERSION

    def test_json_round_trip_through_file(self, reference, tmp_path):
        path = tmp_path / "service.ckpt.json"
        reference["session"].save_checkpoint(str(path))
        restored = ServiceSession.restore(str(path))
        assert restored.events_processed == N_EVENTS
        assert (
            restored.result().to_json(include_provenance=False)
            == reference["payload"]
        )


class TestPublishedSchema:
    def test_checkpoint_conforms_to_docs_schema(self, reference):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        schema_path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "docs"
            / "checkpoint.schema.json"
        )
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        blob = json.loads(reference["session"].checkpoint_json())
        jsonschema.validate(blob, schema)


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigError):
            ServiceSession.restore({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self, reference):
        state = dict(reference["checkpoints"][0])
        state["version"] = 999
        with pytest.raises(ConfigError):
            ServiceSession.restore(state)

    def test_unknown_config_key_rejected(self, reference):
        state = json.loads(json.dumps(reference["checkpoints"][0]))
        state["config"]["no_such_knob"] = 1
        with pytest.raises(ConfigError):
            ServiceSession.restore(state)


class TestFedEvents:
    def test_pending_fed_events_survive_restore(self):
        s = ServiceSession(CFG, topology=TOPO)
        s.drain(5)
        nodes = sorted(s.engine.graph.nodes())
        s.feed(FlowArrival(src=nodes[0], dst=nodes[-1], lifetime=9), dt=0.25)
        blob = s.checkpoint()
        s.drain(6)

        restored = ServiceSession.restore(blob)
        restored.drain(6)
        assert restored.result().to_json(
            include_provenance=False
        ) == s.result().to_json(include_provenance=False)


class TestDetectorState:
    """Measurement-driven detector windows are checkpointed state."""

    DET_CFG = ServiceConfig(
        seed=29,
        arrival_rate=60.0,
        mean_lifetime_events=8.0,
        p_link_event=0.08,
        p_capacity_event=0.08,
        record_capacity=24,
        detector="changepoint",
    )

    def test_oracle_checkpoint_stores_null_rtt(self, reference):
        assert reference["checkpoints"][0]["engine"]["rtt"] is None

    def test_detector_checkpoint_stores_series_rows(self):
        s = ServiceSession(self.DET_CFG, topology=TOPO)
        s.drain(20)
        rtt = s.checkpoint()["engine"]["rtt"]
        assert rtt is not None
        assert rtt["samples_total"] > 0
        assert len(rtt["series"]) == s.engine._rtt.series_count > 0
        for row in rtt["series"]:
            assert len(row) == 8
            fid, base, count, last, streak, baseline, values, epochs = row
            assert len(values) == len(epochs)
            assert count >= base + len(values)

    def test_restore_replays_detector_state_byte_identically(self):
        s = ServiceSession(self.DET_CFG, topology=TOPO, telemetry=True)
        s.drain(20)
        blob = s.checkpoint()
        s.drain(16)

        restored = ServiceSession.restore(blob)
        restored.drain(16)
        assert restored.result().to_json(
            include_provenance=False
        ) == s.result().to_json(include_provenance=False)
        assert restored.checkpoint_json() == s.checkpoint_json()
        assert restored.telemetry is not None
        assert dict(restored.telemetry.counters) == dict(s.telemetry.counters)

    def test_detector_checkpoint_conforms_to_docs_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        schema_path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "docs"
            / "checkpoint.schema.json"
        )
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        s = ServiceSession(self.DET_CFG, topology=TOPO)
        s.drain(12)
        jsonschema.validate(json.loads(s.checkpoint_json()), schema)

    def test_version_one_document_rejected(self, reference):
        state = json.loads(json.dumps(reference["checkpoints"][5]))
        state["version"] = 1
        del state["engine"]["rtt"]
        with pytest.raises(ConfigError, match="unsupported checkpoint version 1"):
            ServiceSession.restore(state)


class TestTelemetryPolicy:
    def test_counterless_checkpoint_restores_without_telemetry(self):
        s = ServiceSession(CFG, topology=TOPO)  # no telemetry attached
        s.drain(8)
        restored = ServiceSession.restore(s.checkpoint())
        assert restored.telemetry is None

    def test_explicit_false_overrides_counters(self, reference):
        restored = ServiceSession.restore(
            reference["checkpoints"][3], telemetry=False
        )
        assert restored.telemetry is None


class TestResumedFillsAcrossRestore:
    """Fills resume from the previous fill's round memo; restore rebuilds
    that memo with its priming fill, so a restored session and the
    uninterrupted one take the same rounds from it from then on."""

    @pytest.mark.parametrize("batch_max", [1, 16])
    def test_restored_session_advances_in_lockstep(self, batch_max):
        cfg = ServiceConfig(
            seed=31,
            arrival_rate=120.0,
            mean_lifetime_events=30.0,
            p_link_event=0.03,
            p_capacity_event=0.03,
            record_capacity=24,
            batch_max=batch_max,
        )
        live = ServiceSession(cfg, topology=TOPO, telemetry=True)
        live.drain(150)
        restored = ServiceSession.restore(live.checkpoint())
        assert restored.checkpoint_json() == live.checkpoint_json()
        reused = live.telemetry.counters["flowsim.fill_rounds_reused"]
        for session in (live, restored):
            session.drain(150)
        assert restored.checkpoint_json() == live.checkpoint_json()
        counters = json.loads(live.checkpoint_json())["telemetry"]["counters"]
        assert counters["flowsim.fill_rounds_reused"] > reused > 0
