"""Batched event application: equivalence, barriers, checkpoints.

``ServiceConfig.batch_max`` coalesces consecutive arrival/retirement
ticks into one engine epoch.  The properties proven here:

* the flush schedule is a pure function of the event sequence — how the
  caller chunks ``drain`` (and when it checkpoints) never changes it;
* killing a session *mid-batch* and restoring replays byte-identically
  to an uninterrupted run at the same ``batch_max`` (the buffered ticks
  travel inside the version-3 checkpoint);
* barriers (flaps, jitter, fed events, verify-cadence ticks) always
  flush, so link events are never applied stale;
* ``batch_max=1`` (the default) stays on the unbatched path: zero
  batching counters, no ``batch_flush`` trace events, and state
  identical to earlier releases.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service import (
    BatchTick,
    FlowArrival,
    ServiceConfig,
    ServiceSession,
    ServiceTick,
)
from repro.service.stream import merge_effects
from repro.telemetry.trace import validate_events
from repro.topology.generator import TopologyConfig

TOPO = TopologyConfig(n_ases=70, seed=6)


def _cfg(**overrides):
    base = dict(
        seed=29,
        arrival_rate=60.0,
        mean_lifetime_events=8.0,
        p_link_event=0.08,
        p_capacity_event=0.08,
        record_capacity=24,
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestConfig:
    def test_batch_max_must_be_positive(self):
        with pytest.raises(ConfigError):
            ServiceConfig(seed=1, batch_max=0).validate()

    def test_default_is_unbatched(self):
        assert ServiceConfig(seed=1).batch_max == 1


class TestMergeEffects:
    def test_single_effect_returned_verbatim(self):
        s = ServiceSession(_cfg(), topology=TOPO)
        tick = ServiceTick(retire=(), event=None)
        effect = tick.apply(s.engine)
        assert merge_effects([effect]) is effect

    def test_batch_tick_counts_and_kind(self):
        ticks = tuple(ServiceTick(retire=(), event=None) for _ in range(3))
        batch = BatchTick(ticks=ticks)
        assert batch.kind == "batch"
        assert batch.events == 3


class TestDrainChunkInvariance:
    """The flush schedule must not depend on how drain() is chunked."""

    N = 48

    @pytest.fixture(scope="class")
    def one_shot(self):
        s = ServiceSession(_cfg(batch_max=8), topology=TOPO)
        s.drain(self.N)
        return s.checkpoint_json()

    @settings(max_examples=10, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=1, max_value=47), max_size=4))
    def test_any_chunking_matches_one_shot(self, one_shot, cuts):
        s = ServiceSession(_cfg(batch_max=8), topology=TOPO)
        done = 0
        for cut in sorted(set(cuts)):
            s.drain(cut - done)
            done = cut
        s.drain(self.N - done)
        assert s.checkpoint_json() == one_shot


class TestMidBatchKillAndRestore:
    """Kill anywhere — including with ticks buffered — and replay."""

    N = 40

    @pytest.fixture(scope="class", params=["dict", "array"])
    def reference(self, request):
        cfg = _cfg(batch_max=16, p_link_event=0.02, p_capacity_event=0.02)
        s = ServiceSession(
            cfg, topology=TOPO, backend=request.param, telemetry=True
        )
        checkpoints = []
        for _ in range(self.N):
            checkpoints.append(s.checkpoint())
            s.step()
        return {
            "backend": request.param,
            "checkpoints": checkpoints,
            "payload": s.result().to_json(include_provenance=False),
            "counters": dict(s.telemetry.counters),
            "pending_seen": max(len(c["session"]["pending"]) for c in checkpoints),
        }

    def test_some_checkpoint_is_mid_batch(self, reference):
        # The fixture stream must actually exercise non-empty buffers,
        # or the kill tests below prove nothing about them.
        assert reference["pending_seen"] > 0

    @settings(max_examples=10, deadline=None)
    @given(kill=st.integers(min_value=0, max_value=N - 1))
    def test_restore_replays_byte_identically(self, reference, kill):
        restored = ServiceSession.restore(reference["checkpoints"][kill])
        restored.drain(self.N - kill)
        assert (
            restored.result().to_json(include_provenance=False)
            == reference["payload"]
        )
        assert dict(restored.telemetry.counters) == reference["counters"]

    def test_checkpoints_are_version_3(self, reference):
        assert all(c["version"] == 3 for c in reference["checkpoints"])


class TestPreV3Documents:
    def test_v2_document_rejected(self):
        s = ServiceSession(_cfg(), topology=TOPO)
        s.drain(10)
        state = json.loads(s.checkpoint_json())
        assert state["session"]["pending"] == []  # batch_max=1 never buffers
        state["version"] = 2
        del state["session"]["pending"]
        with pytest.raises(ConfigError, match="unsupported checkpoint version 2"):
            ServiceSession.restore(state)

    def test_unknown_pending_kind_rejected(self):
        s = ServiceSession(_cfg(batch_max=4), topology=TOPO)
        s.drain(10)
        state = json.loads(s.checkpoint_json())
        state["session"]["pending"] = [[[], "teleport", {}]]
        with pytest.raises(ConfigError, match="pending event kind"):
            ServiceSession.restore(state)


class TestBarriers:
    def test_fed_event_flushes_the_buffer(self):
        s = ServiceSession(_cfg(batch_max=64, p_link_event=0.0,
                                p_capacity_event=0.0), topology=TOPO)
        s.drain(5)
        assert len(s._pending) == 5
        nodes = sorted(s.engine.routing.graph.nodes())
        s.feed(FlowArrival(src=nodes[0], dst=nodes[-1], lifetime=5))
        s.step()
        assert s._pending == []

    def test_verify_cadence_flushes(self):
        s = ServiceSession(
            _cfg(batch_max=64, verify_every=4, p_link_event=0.0,
                 p_capacity_event=0.0),
            topology=TOPO,
        )
        for tick in range(1, 9):
            s.step()
            if tick % 4 == 0:
                assert s._pending == []

    def test_buffer_never_exceeds_batch_max(self):
        s = ServiceSession(_cfg(batch_max=6), topology=TOPO)
        for _ in range(60):
            s.step()
            assert len(s._pending) < 6


class TestTelemetry:
    def test_batched_counters_and_trace(self):
        s = ServiceSession(_cfg(batch_max=8), topology=TOPO, telemetry=True)
        s.drain(64)
        counters = dict(s.telemetry.counters)
        assert counters["service.batched_events"] > 0
        assert counters["service.batch_solves"] > 0
        assert (
            counters["service.batched_events"]
            >= counters["service.batch_solves"]
        )
        flushes = [
            e
            for e in s.telemetry.trace_events()
            if e.get("kind") == "batch_flush"
        ]
        assert flushes
        assert validate_events(flushes) == []
        assert counters["service.batched_events"] == sum(
            e["batched"] for e in flushes
        )

    def test_unbatched_path_stays_silent(self):
        s = ServiceSession(_cfg(batch_max=1), topology=TOPO, telemetry=True)
        s.drain(64)
        counters = dict(s.telemetry.counters)
        assert "service.batched_events" not in counters
        assert "service.batch_solves" not in counters
        assert not any(
            e.get("kind") == "batch_flush" for e in s.telemetry.trace_events()
        )

    def test_drain_reports_events_per_sec_gauge(self):
        s = ServiceSession(_cfg(), topology=TOPO, telemetry=True)
        s.drain(8)
        assert s.telemetry.gauges["service.events_per_sec"] > 0


class TestBatchedFinalState:
    """Batching changes record granularity, never where the state lands."""

    @staticmethod
    def _effective_flows(s):
        """Engine flow ids with the buffered ticks applied on paper.

        Buffered arrivals take the ids the engine will assign at flush
        (``next_flow_id`` onward, in buffer order) — the same prediction
        the session's expiry bookkeeping relies on.
        """
        flows = set(s.engine._flows)
        next_id = s.engine.next_flow_id
        for tk in s._pending:
            flows -= set(tk.retire)
            if isinstance(tk.event, FlowArrival):
                flows.add(next_id)
                next_id += 1
        return flows

    def test_arrivals_retirements_and_flows_match_unbatched(self):
        runs = {}
        for batch_max in (1, 16):
            s = ServiceSession(_cfg(batch_max=batch_max), topology=TOPO)
            s.drain(300)
            runs[batch_max] = s
        a, b = runs[1], runs[16]
        assert a.arrivals_total == b.arrivals_total
        assert a.retired_total == b.retired_total
        assert sorted(a._expiry) == sorted(b._expiry)
        assert self._effective_flows(a) == self._effective_flows(b)
        assert a.engine.failed_links == b.engine.failed_links
