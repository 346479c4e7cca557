"""The incremental path-pooled solver vs the cold water-filling oracle.

The contract under test is *bitwise* equality: after any sequence of
``add_flow``/``remove_flow``/``move_flow``/``set_capacity`` mutations,
:class:`~repro.flowsim.incremental.IncrementalMaxMin` must produce the
exact float64 rate vector and per-link load that
:func:`~repro.flowsim.maxmin.maxmin_rates` computes from a freshly built
incidence over the same flows — at the simulator's default grouping
tolerance and at ``group_rtol=0``.  Plus unit coverage of the slab
mechanics the contract rides on: path interning, exact-fit free-list
recycling, the memo tick, and input validation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import SimulationError
from repro.flowsim.incremental import IncrementalMaxMin
from repro.flowsim.maxmin import build_incidence, maxmin_rates


def assert_matches_oracle(solver: IncrementalMaxMin, capacity) -> None:
    """Solve and compare every rate and the link load bit for bit — by
    this file's own replay of the cold solver and by the shipped
    :meth:`IncrementalMaxMin.crosscheck`, which must agree."""
    cap = np.asarray(capacity, dtype=np.float64)
    flows = list(solver.flows())
    incidence = build_incidence([list(p) for _, p in flows], cap.shape[0])
    load = np.zeros(cap.shape[0])
    expected = maxmin_rates(
        incidence,
        cap,
        unconstrained_rate=solver.unconstrained_rate,
        tol=solver.tol,
        group_rtol=solver.group_rtol,
        load_out=load,
    )
    solver.set_capacity(cap)
    solver.solve()
    solver.crosscheck()
    for (fid, _), want in zip(flows, expected):
        got = solver.rate_of(fid)
        assert got == want or (math.isnan(got) and math.isnan(want)), (
            fid,
            got,
            want,
        )
    got_load = solver.link_load()[: cap.shape[0]]
    assert np.array_equal(got_load, load)
    # Feasibility (the oracle's own hypothesis suite proves the
    # bottleneck property; bitwise equality transfers it here).
    assert np.all(got_load <= cap * (1 + 1e-6) + 1e-6)


@st.composite
def solver_scripts(draw):
    """A capacity vector plus a mutation script over a small link space."""
    n_links = draw(st.integers(1, 8))
    caps = draw(
        st.lists(
            st.floats(1.0, 500.0, allow_nan=False),
            min_size=n_links,
            max_size=n_links,
        )
    )
    paths = st.lists(
        st.integers(0, n_links - 1), min_size=0, max_size=4, unique=True
    )
    n_ops = draw(st.integers(1, 25))
    ops = []
    alive = 0
    next_id = 0
    for _ in range(n_ops):
        choices = ["add"]
        if alive:
            choices += ["remove", "move"]
        op = draw(st.sampled_from(choices))
        if op == "add":
            ops.append(("add", next_id, draw(paths)))
            next_id += 1
            alive += 1
        elif op == "remove":
            ops.append(("remove", draw(st.integers(0, next_id - 1)), None))
        else:
            ops.append(("move", draw(st.integers(0, next_id - 1)), draw(paths)))
    return np.asarray(caps), ops


def apply_script(solver: IncrementalMaxMin, ops) -> None:
    for op, fid, path in ops:
        if op == "add":
            solver.add_flow(fid, path)
        elif op == "remove":
            solver.remove_flow(fid)
        elif solver.has_flow(fid):
            solver.move_flow(fid, path)


class TestOracleEquality:
    @pytest.mark.parametrize("group_rtol", [0.0, 1e-3])
    @given(script=solver_scripts())
    @settings(max_examples=60, deadline=None)
    def test_final_state_bitwise_equal(self, group_rtol, script):
        caps, ops = script
        solver = IncrementalMaxMin(group_rtol=group_rtol)
        apply_script(solver, ops)
        assert_matches_oracle(solver, caps)

    @given(script=solver_scripts())
    @settings(max_examples=25, deadline=None)
    def test_every_intermediate_state_bitwise_equal(self, script):
        """Solving after *each* mutation (the simulator's access pattern)
        must agree with a cold solve at every step, not just the last."""
        caps, ops = script
        solver = IncrementalMaxMin(group_rtol=0.0)
        solver.set_capacity(caps)
        for op in ops:
            apply_script(solver, [op])
            assert_matches_oracle(solver, caps)

    @given(script=solver_scripts(), scale=st.floats(0.25, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_capacity_change_resolves(self, script, scale):
        caps, ops = script
        solver = IncrementalMaxMin(group_rtol=0.0)
        apply_script(solver, ops)
        assert_matches_oracle(solver, caps)
        assert_matches_oracle(solver, caps * scale)


class SolverMachine(RuleBasedStateMachine):
    """Stateful mirror: every step the incremental solver must match a
    cold :func:`maxmin_rates` run over the surviving flows."""

    N_LINKS = 6

    paths = st.lists(st.integers(0, N_LINKS - 1), max_size=4, unique=True)

    @initialize()
    def setup(self):
        self.solver = IncrementalMaxMin(group_rtol=0.0)
        self.caps = np.linspace(10.0, 60.0, self.N_LINKS)
        self.solver.set_capacity(self.caps)
        self.next_id = 0

    @rule(path=paths)
    def add(self, path):
        self.solver.add_flow(self.next_id, path)
        self.next_id += 1

    @rule(data=st.data())
    def remove(self, data):
        fid = data.draw(st.integers(0, max(self.next_id, 1)))
        self.solver.remove_flow(fid)  # unknown ids are ignored

    @rule(data=st.data(), path=paths)
    def move(self, data, path):
        if not self.next_id:
            return
        fid = data.draw(st.integers(0, self.next_id - 1))
        if self.solver.has_flow(fid):
            self.solver.move_flow(fid, path)

    @rule(factor=st.sampled_from([0.5, 1.0, 2.0]))
    def rescale_capacity(self, factor):
        self.caps = self.caps * factor
        self.solver.set_capacity(self.caps)

    @invariant()
    def matches_oracle(self):
        if self.next_id:
            assert_matches_oracle(self.solver, self.caps)


TestSolverMachine = SolverMachine.TestCase
TestSolverMachine.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)


class TestPoolMechanics:
    def test_identical_paths_share_a_column(self):
        solver = IncrementalMaxMin()
        solver.add_flow(0, [0, 1])
        solver.add_flow(1, [0, 1])
        solver.add_flow(2, [0, 1])
        assert solver.n_flows == 3
        assert solver.n_paths == 1
        assert solver.pool_hits == 2

    def test_freed_segment_is_recycled_exact_fit(self):
        solver = IncrementalMaxMin()
        solver.add_flow(0, [0, 1])
        solver.remove_flow(0)
        solver.add_flow(1, [2, 3])  # same length -> recycled segment
        assert solver.cols_reused == 1
        assert solver.n_paths == 1

    def test_different_length_does_not_recycle(self):
        solver = IncrementalMaxMin()
        solver.add_flow(0, [0, 1])
        solver.remove_flow(0)
        solver.add_flow(1, [2])  # shorter path -> fresh column
        assert solver.cols_reused == 0
        assert solver.n_paths == 1

    def test_pooled_column_survives_partial_removal(self):
        solver = IncrementalMaxMin()
        solver.add_flow(0, [0])
        solver.add_flow(1, [0])
        solver.remove_flow(0)
        solver.set_capacity(np.array([10.0]))
        solver.solve()
        assert solver.rate_of(1) == 10.0
        assert solver.n_paths == 1

    def test_move_is_remove_plus_add(self):
        solver = IncrementalMaxMin()
        solver.set_capacity(np.array([8.0, 2.0]))
        solver.add_flow(0, [0])
        solver.move_flow(0, [1])
        solver.solve()
        assert solver.rate_of(0) == 2.0

    def test_remove_unknown_is_noop(self):
        solver = IncrementalMaxMin()
        solver.remove_flow(99)
        assert solver.n_flows == 0

    def test_duplicate_add_raises(self):
        solver = IncrementalMaxMin()
        solver.add_flow(0, [0])
        with pytest.raises(SimulationError, match="already in the solver"):
            solver.add_flow(0, [1])

    def test_move_unknown_raises(self):
        solver = IncrementalMaxMin()
        with pytest.raises(SimulationError, match="not in the solver"):
            solver.move_flow(7, [0])

    def test_path_beyond_capacity_raises(self):
        solver = IncrementalMaxMin()
        solver.add_flow(0, [5])
        solver.set_capacity(np.ones(3))
        with pytest.raises(
            SimulationError, match="outside the capacity vector"
        ):
            solver.solve()

    def test_negative_link_id_rejected_before_state_changes(self):
        """A negative id would wrap onto the last per-link slot (two
        flows at 10.0 on one 10.0 link); the cold solver raises on it."""
        solver = IncrementalMaxMin()
        with pytest.raises(SimulationError, match="negative link id"):
            solver.add_flow(0, [-1])  # empty pool: no raw IndexError
        assert solver.n_flows == 0 and solver.n_paths == 0
        solver.set_capacity(np.array([10.0, 10.0, 10.0]))
        solver.add_flow(0, [0, 1, 2])
        solver.solve()
        for rejected in (
            lambda: solver.add_flow(1, [-1]),
            lambda: solver.move_flow(0, [1, -1]),
        ):
            with pytest.raises(SimulationError, match="negative link id"):
                rejected()
        assert list(solver.flows()) == [(0, (0, 1, 2))]
        assert solver.n_paths == 1
        assert solver.pending is False
        assert solver.rate_of(0) == 10.0
        assert solver.link_load()[:3].tolist() == [10.0, 10.0, 10.0]
        solver.crosscheck()

    def test_linkless_flow_unconstrained(self):
        solver = IncrementalMaxMin(unconstrained_rate=123.0)
        solver.add_flow(0, [])
        solver.set_capacity(np.zeros(0))
        solver.solve()
        assert solver.rate_of(0) == 123.0


class TestMemo:
    def test_untouched_state_is_a_memo_hit(self):
        solver = IncrementalMaxMin()
        solver.set_capacity(np.array([10.0, 4.0]))
        solver.add_flow(0, [0])
        solver.add_flow(1, [0, 1])
        assert solver.solve() is True
        rounds = solver.stats()["maxmin_iterations"]
        assert rounds > 0
        assert solver.solve() is False
        assert solver.stats()["warm_rounds_saved"] == rounds
        assert solver.stats()["hits"] == 1

    def test_linkless_flow_keeps_memo_valid(self):
        """Arrival/departure of a flow that crosses no link cannot change
        the fill, so it must not invalidate the memo."""
        solver = IncrementalMaxMin()
        solver.set_capacity(np.array([5.0]))
        solver.add_flow(0, [0])
        solver.solve()
        solver.add_flow(1, [])
        assert solver.pending is False
        assert solver.solve() is False
        assert solver.rate_of(1) == math.inf
        solver.remove_flow(1)
        assert solver.pending is False

    def test_mutation_invalidates_memo(self):
        solver = IncrementalMaxMin()
        solver.set_capacity(np.array([5.0]))
        solver.add_flow(0, [0])
        solver.solve()
        solver.add_flow(1, [0])
        assert solver.pending is True
        assert solver.solve() is True
        assert solver.rate_of(0) == 2.5

    def test_identical_capacity_keeps_memo_valid(self):
        solver = IncrementalMaxMin()
        caps = np.array([5.0, 7.0])
        solver.set_capacity(caps)
        solver.add_flow(0, [0, 1])
        solver.solve()
        solver.set_capacity(caps.copy())
        assert solver.pending is False
        solver.set_capacity(caps * 2)
        assert solver.pending is True

    def test_invalidate_forces_resolve(self):
        solver = IncrementalMaxMin()
        solver.set_capacity(np.array([5.0]))
        solver.add_flow(0, [0])
        solver.solve()
        solver.invalidate()
        assert solver.pending is True
        assert solver.solve() is True

    def test_memoized_solves_never_exceed_cold_rounds(self):
        """stats()['maxmin_iterations'] counts only rounds actually run —
        the incremental ≤ full telemetry guarantee at the object level."""
        solver = IncrementalMaxMin()
        solver.set_capacity(np.array([10.0, 4.0]))
        solver.add_flow(0, [0])
        solver.add_flow(1, [0, 1])
        cold_rounds = 0
        for _ in range(5):
            solver.invalidate()
            solver.solve()
            cold_rounds = solver.stats()["maxmin_iterations"]
        for _ in range(5):
            solver.solve()  # memo hits: no new rounds
        assert solver.stats()["maxmin_iterations"] == cold_rounds
        assert solver.stats()["solves"] == 5
        assert solver.stats()["hits"] == 5


class TestCrosscheck:
    """The shipped crosscheck must be able to fail: one ulp of drift in
    a pooled rate or in the link load is refuted."""

    @staticmethod
    def _solved() -> IncrementalMaxMin:
        solver = IncrementalMaxMin(group_rtol=0.0)
        solver.set_capacity(np.array([10.0, 4.0]))
        solver.add_flow(0, [0])
        solver.add_flow(1, [0, 1])
        solver.solve()
        solver.crosscheck()
        return solver

    def test_perturbed_rate_is_refuted(self):
        solver = self._solved()
        col = solver._flow_col[1]
        solver._rates[col] = np.nextafter(solver._rates[col], np.inf)  # mifolint: disable=MF003 — planted corruption crosscheck() must refute
        with pytest.raises(SimulationError, match="flow 1 rate"):
            solver.crosscheck()

    def test_perturbed_link_load_is_refuted(self):
        solver = self._solved()
        load = solver.link_load()
        load[1] = np.nextafter(load[1], np.inf)
        with pytest.raises(SimulationError, match="link allocation"):
            solver.crosscheck()

    def test_unsolved_state_is_rejected(self):
        solver = self._solved()
        solver.add_flow(2, [1])
        with pytest.raises(SimulationError, match="solved state"):
            solver.crosscheck()


class TestBufferReuse:
    def test_growth_then_shrink_stays_correct(self):
        """Drive the slab through growth, mass removal (free-list churn)
        and re-growth; every checkpoint must match the cold oracle."""
        solver = IncrementalMaxMin(group_rtol=0.0)
        caps = np.linspace(5.0, 50.0, 10)
        rng = np.random.default_rng(42)
        for fid in range(200):
            n = int(rng.integers(0, 5))
            path = rng.choice(10, size=n, replace=False).tolist()
            solver.add_flow(fid, path)
        assert_matches_oracle(solver, caps)
        for fid in range(0, 200, 2):
            solver.remove_flow(fid)
        assert_matches_oracle(solver, caps)
        for fid in range(200, 400):
            n = int(rng.integers(1, 5))
            path = rng.choice(10, size=n, replace=False).tolist()
            solver.add_flow(fid, path)
        assert_matches_oracle(solver, caps)
        assert solver.cols_reused > 0
        assert solver.pool_hits > 0

    def test_link_load_buffer_covers_capacity(self):
        solver = IncrementalMaxMin()
        solver.set_capacity(np.ones(100))
        solver.add_flow(0, [3])
        solver.solve()
        assert solver.link_load().shape[0] >= 100
        assert solver.link_load()[3] == 1.0
        assert not solver.link_load()[:3].any()
