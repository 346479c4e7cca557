"""Block derivation of the event stream, held to the per-index oracle.

``EventStream.events(start, n)`` derives a block's PCG64 states with one
vectorized pass of NumPy's ``SeedSequence`` hash.  Each state must be
the one ``default_rng((seed, salt, i))`` starts from, the block must
equal ``[event_at(i) for i in range(start, start + n)]``, and the
session's lookahead must start at its stream index after a restore.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service import EventStream, ServiceConfig, ServiceSession
from repro.service import stream as stream_module
from repro.topology.generator import TopologyConfig, generate_topology

from .test_stream import _state, ambient_state_forbidden

SALT = stream_module._STREAM_SALT


def _numpy_state(seed, index):
    """PCG64's ``(state, inc)`` as ``SeedSequence`` seeds it."""
    bit_gen = np.random.PCG64(np.random.SeedSequence((seed, SALT, index)))
    state = bit_gen.state["state"]
    return state["state"], state["inc"]


def _block_states(seed, start, n):
    prefix = stream_module._uint32_words(seed) + stream_module._uint32_words(SALT)
    return stream_module._pcg64_seeds(prefix, start, start + n)


#: starts on both sides of 2**32, where an index gains a second entropy word
_STARTS = st.one_of(
    st.integers(0, 2**20),
    st.integers(2**32 - 320, 2**32 + 320),
    st.integers(2**32, 2**48),
)


@pytest.fixture(scope="module")
def graph():
    return generate_topology(TopologyConfig(n_ases=80, seed=9))


class TestSeedStates:
    @pytest.mark.parametrize("seed", [0, 7, 123, 2**40 + 3])
    @pytest.mark.parametrize("index", [0, 7, 99, 2**32, 2**32 + 5, 2**64 + 1])
    def test_fixed_points(self, seed, index):
        assert _block_states(seed, index, 1) == [_numpy_state(seed, index)]

    @given(seed=st.integers(0, 2**64 - 1), start=_STARTS, n=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_every_state_of_a_block(self, seed, start, n):
        stop = start + n
        got = []
        while start < stop:  # a block split where the word count changes
            end = min(stop, 1 << 32 * len(stream_module._uint32_words(start)))
            got += _block_states(seed, start, end - start)
            start = end
        want = [_numpy_state(seed, i) for i in range(stop - n, stop)]
        assert got == want


class TestEventsMatchEventAt:
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=_STARTS,
        n=st.integers(1, 300),
        traffic=st.sampled_from(["zipf", "uniform"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_equals_per_index_events(self, graph, seed, start, n, traffic):
        """With every ambient source armed, a block equals the oracle's
        events and writes no stream attribute."""
        cfg = ServiceConfig(
            seed=seed, traffic=traffic, p_link_event=0.2, p_capacity_event=0.2
        )
        stream = EventStream(graph, cfg)
        before = _state(stream)
        with ambient_state_forbidden():
            block = stream.events(start, n)
            want = [stream.event_at(i) for i in range(start, start + n)]
        assert block == want
        assert _state(stream) == before

    def test_block_across_the_word_boundary(self, graph):
        stream = EventStream(graph, ServiceConfig(seed=3))
        start = 2**32 - 5
        assert stream.events(start, 10) == [stream.event_at(i) for i in range(start, start + 10)]

    def test_empty_block(self, graph):
        assert EventStream(graph, ServiceConfig(seed=1)).events(10, 0) == []

    @pytest.mark.parametrize("start, n", [(-1, 3), (0, -1)])
    def test_negative_arguments_rejected(self, graph, start, n):
        with pytest.raises(ConfigError):
            EventStream(graph, ServiceConfig(seed=1)).events(start, n)


class TestLookahead:
    TOPO = TopologyConfig(n_ases=70, seed=6)

    def test_restored_session_reads_from_its_stream_index(self):
        """A session restored mid-block draws event ``_stream_index`` next,
        not the head of a block filled before the restore."""
        cfg = ServiceConfig(seed=29, arrival_rate=60.0, batch_max=8)
        live = ServiceSession(cfg, topology=self.TOPO)
        live.drain(37)
        restored = ServiceSession.restore(live.checkpoint())
        index = restored._stream_index
        restored.drain(1)
        assert restored._stream_index == index + 1
        assert restored._ahead[0] == live._stream.event_at(index + 1)
        live.drain(1)
        assert restored.checkpoint_json() == live.checkpoint_json()


@pytest.mark.parametrize("seed", [-1, 0.5, True, "7"])
def test_seed_must_be_a_non_negative_int(seed):
    """The seed is the stream's leading entropy word; the config refuses
    one ``SeedSequence`` cannot read."""
    with pytest.raises(ConfigError, match="seed"):
        ServiceConfig(seed=seed).validate()
