"""The deterministic event stream: purity, tables, and the tick wrapper."""

import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import ConfigError
from repro.service import (
    CapacityJitter,
    EventStream,
    FlowArrival,
    LinkFlap,
    ServiceConfig,
    ServiceSession,
    ServiceTick,
)
from repro.service import stream as stream_module
from repro.service.stream import BatchTick
from repro.telemetry import core as telemetry_core
from repro.topology.generator import TopologyConfig, generate_topology
from repro.traffic.matrix import content_provider_ranking, zipf_weights

from .. import traps

_EMITTERS = ("inc", "set_gauge", "observe", "span", "event")


def _stream_sources():
    """``(owner, attribute, label)`` that ``event_at`` must not reach
    beyond the clocks and random sources: telemetry emission, and the
    session's batch and flush machinery (which reads session state)."""
    sources = []
    for owner in (telemetry, telemetry_core, telemetry.Telemetry):
        sources += [(owner, name, f"telemetry {name}") for name in _EMITTERS]
    sources += [
        (ServiceSession, "_flush", "ServiceSession._flush"),
        (ServiceSession, "_apply", "ServiceSession._apply"),
        (BatchTick, "apply", "BatchTick.apply"),
        (stream_module, "merge_effects", "merge_effects"),
    ]
    return sources


def ambient_state_forbidden():
    """Every ambient source of :mod:`tests.traps`, and every source
    :func:`_stream_sources` lists, raises while open."""
    return traps.ambient_state_forbidden(*_stream_sources())


def _state(stream):
    """Every instance attribute of ``stream`` as pickled bytes."""
    return {name: pickle.dumps(value) for name, value in vars(stream).items()}


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=80, seed=9))


@pytest.fixture(scope="module")
def stream(graph):
    return EventStream(graph, ServiceConfig(seed=13))


class TestPurity:
    def test_event_is_pure_function_of_index(self, stream):
        for i in (0, 1, 17, 500, 12345):
            assert stream.event_at(i) == stream.event_at(i)

    def test_two_streams_agree(self, graph):
        cfg = ServiceConfig(seed=13)
        a = EventStream(graph, cfg)
        b = EventStream(graph, cfg)
        assert [a.event_at(i) for i in range(50)] == [
            b.event_at(i) for i in range(50)
        ]

    def test_seed_changes_the_sequence(self, graph):
        a = EventStream(graph, ServiceConfig(seed=1))
        b = EventStream(graph, ServiceConfig(seed=2))
        assert [a.event_at(i) for i in range(30)] != [
            b.event_at(i) for i in range(30)
        ]

    def test_negative_index_rejected(self, stream):
        with pytest.raises(ConfigError):
            stream.event_at(-1)

    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.permutations(range(40)),
        traffic=st.sampled_from(["zipf", "uniform"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_event_at_reads_only_seed_and_index(self, graph, seed, order, traffic):
        """Shuffled calls on a fresh stream equal in-order calls, with
        every ambient source armed to raise and no attribute written."""
        cfg = ServiceConfig(
            seed=seed, traffic=traffic, p_link_event=0.2, p_capacity_event=0.2
        )
        in_order, shuffled = EventStream(graph, cfg), EventStream(graph, cfg)
        before = [_state(in_order), _state(shuffled)]
        with ambient_state_forbidden():
            want = [in_order.event_at(i) for i in range(len(order))]
            got = {i: shuffled.event_at(i) for i in order}
        assert [got[i] for i in range(len(order))] == want
        assert [_state(in_order), _state(shuffled)] == before

    @pytest.mark.parametrize(
        "call",
        [
            lambda: time.perf_counter(),
            lambda: random.random(),
            lambda: np.random.rand(),
            lambda: telemetry.inc("x"),
            lambda: telemetry.Telemetry().event("x"),
            lambda: stream_module.merge_effects([]),
            lambda: BatchTick(ticks=()).apply(None),
            lambda: random.Random(),
            lambda: np.random.default_rng(),
        ],
    )
    def test_every_trap_is_armed(self, call):
        with ambient_state_forbidden(), pytest.raises(AssertionError, match="event_at reached"):
            call()


class TestEventMix:
    def test_all_kinds_appear(self, graph):
        s = EventStream(
            graph,
            ServiceConfig(seed=3, p_link_event=0.3, p_capacity_event=0.3),
        )
        kinds = {s.event_at(i)[1].kind for i in range(200)}
        assert kinds == {"arrival", "link_flap", "capacity_jitter"}

    def test_dt_positive_and_lifetime_at_least_one(self, stream):
        for i in range(100):
            dt, ev = stream.event_at(i)
            assert dt > 0.0
            if isinstance(ev, FlowArrival):
                assert ev.lifetime >= 1
                assert ev.src != ev.dst

    def test_jitter_factor_in_band(self, graph):
        s = EventStream(
            graph, ServiceConfig(seed=5, p_capacity_event=0.5, p_link_event=0.0)
        )
        factors = [
            ev.factor
            for _, ev in (s.event_at(i) for i in range(200))
            if isinstance(ev, CapacityJitter)
        ]
        assert factors and all(0.25 <= f <= 1.0 for f in factors)


class TestSamplingTables:
    def test_zipf_sources_are_content_ranked(self, graph, stream):
        ranked = set(content_provider_ranking(graph))
        srcs = {
            ev.src
            for _, ev in (stream.event_at(i) for i in range(300))
            if isinstance(ev, FlowArrival)
        }
        assert srcs and srcs <= ranked

    def test_zipf_destinations_are_stubs(self, graph, stream):
        stubs = set(graph.stub_ases())
        dsts = {
            ev.dst
            for _, ev in (stream.event_at(i) for i in range(300))
            if isinstance(ev, FlowArrival)
        }
        assert dsts and dsts <= stubs

    def test_uniform_mode_samples_all_nodes(self, graph):
        s = EventStream(graph, ServiceConfig(seed=7, traffic="uniform"))
        nodes = set(graph.nodes())
        pairs = [
            (ev.src, ev.dst)
            for _, ev in (s.event_at(i) for i in range(300))
            if isinstance(ev, FlowArrival)
        ]
        assert pairs
        assert {s for s, _ in pairs} <= nodes
        assert {d for _, d in pairs} <= nodes

    def test_tiny_graph_rejected(self):
        from repro.topology.asgraph import ASGraph

        lone = ASGraph.from_links(p2c=[])
        with pytest.raises(ConfigError):
            EventStream(lone, ServiceConfig())


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        w = zipf_weights(10, 1.0)
        assert w.shape == (10,)
        assert np.isclose(w.sum(), 1.0)
        assert all(w[i] > w[i + 1] for i in range(9))

    def test_alpha_sharpens_the_head(self):
        flat = zipf_weights(20, 0.5)
        steep = zipf_weights(20, 2.0)
        assert steep[0] > flat[0]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            zipf_weights(0, 1.0)
        with pytest.raises(ConfigError):
            zipf_weights(5, 0.0)


class TestServiceTick:
    def test_kind_of_pure_retirement_tick(self):
        assert ServiceTick(retire=(1, 2)).kind == "retire"

    def test_kind_follows_the_stream_event(self):
        tick = ServiceTick(event=FlowArrival(src=1, dst=2, lifetime=3))
        assert tick.kind == "arrival"
        tick = ServiceTick(
            event=LinkFlap(pick=0.5, recover_draw=0.9, max_failed=4)
        )
        assert tick.kind == "link_flap"
