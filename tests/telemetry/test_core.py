"""Unit tests for the telemetry registry, spans, sessions and the sink."""

import pytest

from repro import telemetry as tm
from repro.telemetry import Telemetry, TelemetrySession
from repro.telemetry.core import _NOOP_SPAN, telemetry_session


class TestInstruments:
    def test_counters_accumulate(self):
        t = Telemetry()
        t.inc("a")
        t.inc("a", 4)
        t.inc("b", 2)
        assert t.counters == {"a": 5, "b": 2}

    def test_gauges_keep_last_value(self):
        t = Telemetry()
        t.set_gauge("workers", 4)
        t.set_gauge("workers", 2)
        assert t.gauges == {"workers": 2.0}

    def test_histogram_buckets_by_upper_bound(self):
        t = Telemetry()
        bounds = (1.0, 4.0, 8.0)
        for v in (0.5, 1.0, 3.0, 8.0, 100.0):
            t.observe("hops", v, bounds=bounds)
        snap = t.snapshot()
        got_bounds, buckets = snap.histograms["hops"]
        assert got_bounds == bounds
        # <=1, <=4, <=8, overflow
        assert buckets == (2, 1, 1, 1)

    def test_histogram_bounds_must_agree(self):
        t = Telemetry()
        t.observe("h", 1.0, bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="inconsistent"):
            t.observe("h", 1.0, bounds=(1.0, 3.0))

    def test_span_counts_and_accumulates(self):
        t = Telemetry()
        with t.span("phase"):
            pass
        with t.span("phase"):
            pass
        total, count = t.snapshot().spans["phase"]
        assert count == 2
        assert total >= 0.0

    def test_nested_spans_tag_event_phase(self):
        t = Telemetry()
        with t.span("outer"):
            with t.span("inner"):
                assert t.current_phase() == "inner"
                t.event("deflection", dst=1)
            assert t.current_phase() == "outer"
        assert t.current_phase() is None
        (ev,) = t.trace_events()
        assert ev["phase"] == "inner"

    def test_span_survives_exceptions(self):
        t = Telemetry()
        with pytest.raises(RuntimeError):
            with t.span("risky"):
                raise RuntimeError("boom")
        assert t.current_phase() is None
        assert t.snapshot().spans["risky"][1] == 1

    def test_event_ring_buffer_drops_oldest(self):
        t = Telemetry(trace_capacity=3)
        for i in range(5):
            t.event("deflection", dst=i)
        events = t.trace_events()
        assert [e["dst"] for e in events] == [2, 3, 4]
        assert [e["seq"] for e in events] == [2, 3, 4]
        snap = t.snapshot()
        assert snap.events_total == 5
        assert snap.events_dropped == 2

    def test_events_since_reads_the_tail_after_a_mark(self):
        t = Telemetry(trace_capacity=4)
        for i in range(3):
            t.event("deflection", dst=i)
        mark = t.events_total
        assert t.events_since(mark) == []
        for i in range(3, 5):
            t.event("deflection", dst=i)
        assert [e["dst"] for e in t.events_since(mark)] == [3, 4]
        for i in range(5, 12):  # more since the mark than the ring retains
            t.event("deflection", dst=i)
        assert t.events_since(mark) == list(t.trace_events())
        assert t.events_since(0) == list(t.trace_events())

    def test_trace_capacity_validated(self):
        with pytest.raises(ValueError):
            Telemetry(trace_capacity=0)


class TestModuleSink:
    def test_disabled_calls_are_noops(self):
        assert tm.active() is None
        tm.inc("x")
        tm.set_gauge("g", 1)
        tm.observe("h", 1.0)
        tm.event("deflection", dst=1)
        assert tm.span("p") is _NOOP_SPAN

    def test_disabled_span_is_reentrant_noop(self):
        with tm.span("a") as s:
            with s:
                pass

    def test_activated_registry_records(self):
        t = Telemetry()
        tm.activate(t)
        tm.inc("x", 3)
        with tm.span("p"):
            tm.event("encap", router="r1", peer="p1")
        tm.activate(None)
        tm.inc("x")  # after deactivation: dropped
        assert t.counters == {"x": 3}
        assert t.trace_events()[0]["phase"] == "p"


class TestSessions:
    def test_none_and_false_yield_disabled(self):
        for spec in (None, False):
            with telemetry_session(spec) as session:
                assert session is None
                assert tm.active() is None

    def test_true_activates_fresh_registry(self):
        with telemetry_session(True) as session:
            assert isinstance(session, TelemetrySession)
            assert tm.active() is session.telemetry
        assert tm.active() is None

    def test_instance_activated_and_restored(self):
        outer = Telemetry()
        tm.activate(outer)
        inner = Telemetry()
        with telemetry_session(inner) as session:
            assert tm.active() is inner
            assert session.telemetry is inner
        assert tm.active() is outer

    def test_session_delta_isolates_reused_registry(self):
        t = Telemetry()
        t.inc("mifo.deflections", 10)
        with telemetry_session(t) as session:
            assert session is not None
            t.inc("mifo.deflections", 2)
            t.event("deflection", dst=9)
        delta = session.delta()
        assert delta.counters == {"mifo.deflections": 2}
        assert [e["dst"] for e in delta.events] == [9]

    def test_session_meta_shape(self):
        with telemetry_session(True) as session:
            assert session is not None
            tm.inc("c", 1)
            with tm.span("p"):
                pass
        meta = session.meta()
        assert meta["counters"] == {"c": 1}
        assert set(meta) == {
            "counters",
            "gauges",
            "spans",
            "histograms",
            "events_total",
            "events_dropped",
        }

    def test_render_mentions_everything(self):
        t = Telemetry()
        t.inc("mifo.deflections", 7)
        t.set_gauge("service.events_per_sec", 2)
        t.observe("mifo.path_hops", 3)
        with t.span("bgp.propagate"):
            pass
        text = t.snapshot().render()
        for needle in (
            "mifo.deflections",
            "service.events_per_sec",
            "mifo.path_hops",
            "bgp.propagate",
        ):
            assert needle in text
