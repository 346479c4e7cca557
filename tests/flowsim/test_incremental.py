"""The incremental path-pooled solver vs the cold water-filling oracle.

The contract under test is *bitwise* equality: after any sequence of
``add_flow``/``remove_flow``/``move_flow``/``set_capacity`` mutations,
:class:`~repro.flowsim.incremental.IncrementalMaxMin` must produce the
exact float64 rate vector and per-link load that
:func:`~repro.flowsim.maxmin.maxmin_rates` computes from a freshly built
incidence over the same flows — at the simulator's default grouping
tolerance and at ``group_rtol=0``.  Resumed fills (a fill that takes its
first rounds from the previous fill's round memo) are held to the same
contract against a fresh solver's cold fill, after every solve of scripts
that interleave pool hits, segment recycling, capacity appends and
changes, ``invalidate()`` and linkless flows.  Plus unit coverage of the
slab mechanics the contract rides on: path interning, exact-fit free-list
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

from repro import telemetry as tm
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


def assert_equals_cold_fill(solver: IncrementalMaxMin, capacity) -> None:
    """Solve, crosscheck, and compare every rate and the link load bit for
    bit with a fresh solver's cold fill over the same flows — the check a
    resumed fill must pass."""
    cap = np.asarray(capacity, dtype=np.float64)
    solver.set_capacity(cap)
    solver.solve()
    solver.crosscheck()
    cold = IncrementalMaxMin(
        unconstrained_rate=solver.unconstrained_rate,
        tol=solver.tol,
        group_rtol=solver.group_rtol,
    )
    for fid, path in solver.flows():
        cold.add_flow(fid, path)
    cold.set_capacity(cap)
    cold.solve()
    for fid, _ in solver.flows():
        got, want = solver.rate_of(fid), cold.rate_of(fid)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
            fid,
            got,
            want,
        )
    n = cap.shape[0]
    assert solver.link_load()[:n].tobytes() == cold.link_load()[:n].tobytes()


@st.composite
def solver_scripts(draw):
    """A capacity vector plus a mutation script over a small link space,
    with solves interleaved.

    Ops: ``add`` (linkless paths included), ``pool`` (a new flow on a live
    flow's path — a pool hit on a solved column), ``remove``, ``recycle``
    (remove every flow of one path, then add a flow on a different path of
    the same length, which takes over the freed segment), ``move``,
    ``append`` (capacity for new links, which later paths may cross),
    ``setcap`` (a changed capacity entry), ``invalidate`` and ``solve``.
    """
    n_links = draw(st.integers(1, 8))
    caps = draw(
        st.lists(
            st.floats(1.0, 500.0, allow_nan=False),
            min_size=n_links,
            max_size=n_links,
        )
    )
    ops = []
    next_id = 0
    for _ in range(draw(st.integers(1, 30))):
        kinds = ["add", "add", "append", "setcap", "invalidate", "solve", "solve"]
        if next_id:
            kinds += ["remove", "move", "pool", "pool", "recycle"]
        op = draw(st.sampled_from(kinds))
        if op in ("add", "move"):
            fid = next_id if op == "add" else draw(st.integers(0, next_id - 1))
            path = st.lists(
                st.integers(0, n_links - 1), min_size=0, max_size=4, unique=True
            )
            ops.append((op, fid, draw(path)))
        elif op == "pool":
            ops.append((op, next_id, draw(st.integers(0, next_id - 1))))
        elif op in ("remove", "recycle"):
            ops.append((op, draw(st.integers(0, next_id - 1)), next_id))
        elif op == "append":
            extra = draw(
                st.lists(st.floats(1.0, 500.0, allow_nan=False), min_size=1, max_size=3)
            )
            n_links += len(extra)
            ops.append((op, None, extra))
        elif op == "setcap":
            link = draw(st.integers(0, n_links - 1))
            ops.append((op, link, draw(st.floats(1.0, 500.0, allow_nan=False))))
        else:
            ops.append((op, None, None))
        if op in ("add", "pool", "recycle"):
            next_id += 1
    return np.asarray(caps), ops


def apply_script(solver: IncrementalMaxMin, caps, ops) -> np.ndarray:
    """Apply ``ops`` to ``solver`` over capacity ``caps`` and return the
    capacity they leave; every ``solve`` op must equal a fresh solver's
    cold fill bit for bit."""
    caps = np.asarray(caps, dtype=np.float64)
    solver.set_capacity(caps)
    for op, fid, arg in ops:
        paths = dict(solver.flows())
        if op == "add":
            solver.add_flow(fid, arg)
        elif op == "pool":
            if arg in paths:
                solver.add_flow(fid, paths[arg])
        elif op == "remove":
            solver.remove_flow(fid)  # unknown ids are ignored
        elif op == "recycle":
            if fid not in paths:
                continue
            old = paths[fid]
            for other, path in paths.items():
                if path == old:
                    solver.remove_flow(other)
            solver.add_flow(arg, [(link + 1) % caps.shape[0] for link in old])
        elif op == "move":
            if fid in paths:
                solver.move_flow(fid, arg)
        elif op == "append":
            caps = np.concatenate([caps, arg])
            solver.set_capacity(caps)
        elif op == "setcap":
            caps = caps.copy()
            caps[fid] = arg
            solver.set_capacity(caps)
        elif op == "invalidate":
            solver.invalidate()
        else:
            assert_equals_cold_fill(solver, caps)
    return caps


class TestOracleEquality:
    @pytest.mark.parametrize("group_rtol", [0.0, 1e-3])
    @given(script=solver_scripts())
    @settings(max_examples=60, deadline=None)
    def test_final_state_bitwise_equal(self, group_rtol, script):
        caps, ops = script
        solver = IncrementalMaxMin(group_rtol=group_rtol)
        caps = apply_script(solver, caps, ops)
        assert_matches_oracle(solver, caps)

    @given(script=solver_scripts())
    @settings(max_examples=25, deadline=None)
    def test_every_intermediate_state_bitwise_equal(self, script):
        """Solving after *each* mutation (the simulator's access pattern)
        must agree with a cold solve at every step, not just the last."""
        caps, ops = script
        solver = IncrementalMaxMin(group_rtol=0.0)
        for op in ops:
            caps = apply_script(solver, caps, [op])
            assert_matches_oracle(solver, caps)

    @given(script=solver_scripts(), scale=st.floats(0.25, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_capacity_change_resolves(self, script, scale):
        caps, ops = script
        solver = IncrementalMaxMin(group_rtol=0.0)
        caps = apply_script(solver, caps, ops)
        assert_matches_oracle(solver, caps)
        assert_matches_oracle(solver, caps * scale)


class TestResumedFillEqualsCold:
    """Every solve of a script equals a fresh solver's cold fill."""

    @pytest.mark.parametrize("group_rtol", [0.0, 1e-3])
    @given(script=solver_scripts())
    @settings(max_examples=80, deadline=None)
    def test_every_solve_bitwise_equal(self, group_rtol, script):
        caps, ops = script
        solver = IncrementalMaxMin(group_rtol=group_rtol)
        caps = apply_script(solver, caps, ops)
        assert_equals_cold_fill(solver, caps)

    @pytest.mark.parametrize("group_rtol", [0.0, 1e-3])
    def test_resumed_fills_take_rounds_from_the_memo(self, group_rtol):
        """A churn of arrivals, pool hits, removals, recycles and capacity
        appends over a shared link set: fills resume (``fill_rounds_reused``
        > 0, fewer rounds run than the logical count) and stay exact."""
        rng = np.random.default_rng(7)
        caps = rng.uniform(5.0, 50.0, 12)
        ops = []
        for fid in range(120):
            kind = rng.integers(0, 6)
            path = rng.choice(caps.shape[0], size=int(rng.integers(0, 5)), replace=False)
            if kind == 0 and fid:
                ops.append(("pool", fid, int(rng.integers(0, fid))))
            elif kind == 1 and fid:
                ops.append(("remove", int(rng.integers(0, fid)), None))
            elif kind == 2 and fid:
                ops.append(("recycle", int(rng.integers(0, fid)), fid))
            elif kind == 3:
                ops.append(("append", None, rng.uniform(5.0, 50.0, 1)))
            else:
                ops.append(("add", fid, path.tolist()))
            ops.append(("solve", None, None))
        solver = IncrementalMaxMin(group_rtol=group_rtol)
        telemetry = tm.Telemetry()
        with tm.telemetry_session(telemetry):
            apply_script(solver, caps, ops)
        # The cold reference solvers add fills but no reused rounds.
        reused = telemetry.counters["flowsim.fill_rounds_reused"]
        assert 0 < reused < solver.rounds_total

    def test_changed_capacity_and_invalidate_fill_cold(self):
        solver = IncrementalMaxMin(group_rtol=0.0)
        caps = np.array([10.0, 20.0, 30.0])
        solver.set_capacity(caps)
        for fid in range(6):
            solver.add_flow(fid, [fid % 3, (fid + 1) % 3])
        solver.solve()
        telemetry = tm.Telemetry()
        caps = np.array([10.0, 25.0, 30.0])
        with tm.telemetry_session(telemetry):
            solver.add_flow(6, [2])
            solver.set_capacity(caps)
            solver.solve()
        assert_equals_cold_fill(solver, caps)
        with tm.telemetry_session(telemetry):
            solver.add_flow(7, [2])
            solver.invalidate()
            solver.solve()
        assert_equals_cold_fill(solver, caps)
        assert telemetry.counters["flowsim.fill_rounds_reused"] == 0
        assert telemetry.spans["flowsim.fill"][1] == 2

    def test_fill_rounds_histogram_counts_logical_rounds(self):
        solver = IncrementalMaxMin()
        solver.set_capacity(np.array([10.0, 4.0]))
        telemetry = tm.Telemetry()
        with tm.telemetry_session(telemetry):
            solver.add_flow(0, [0])
            solver.add_flow(1, [0, 1])
            solver.solve()
            solver.solve()  # memo hit: neither a span nor a sample
            solver.add_flow(2, [1])
            solver.solve()
        snap = telemetry.snapshot()
        bounds, buckets = snap.histograms["flowsim.fill_rounds"]
        assert sum(buckets) == 2 == snap.spans["flowsim.fill"][1]
        assert bounds[:3] == (1.0, 2.0, 4.0)


class SolverMachine(RuleBasedStateMachine):
    """Stateful mirror: every step the incremental solver must match a
    cold :func:`maxmin_rates` run over the surviving flows, and a fresh
    solver's cold fill — so every resumed fill is checked."""

    N_LINKS = 6
    GROUP_RTOL = 0.0

    @initialize()
    def setup(self):
        self.solver = IncrementalMaxMin(group_rtol=self.GROUP_RTOL)
        self.caps = np.linspace(10.0, 60.0, self.N_LINKS)
        self.solver.set_capacity(self.caps)
        self.next_id = 0

    def _path(self, data):
        n = self.caps.shape[0]
        return data.draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))

    def _live(self, data):
        fids = [fid for fid, _ in self.solver.flows()]
        return data.draw(st.sampled_from(fids)) if fids else None

    @rule(data=st.data())
    def add(self, data):
        self.solver.add_flow(self.next_id, self._path(data))
        self.next_id += 1

    @rule()
    def add_linkless(self):
        self.solver.add_flow(self.next_id, [])
        self.next_id += 1

    @rule(data=st.data())
    def pool_hit(self, data):
        src = self._live(data)
        if src is not None:
            self.solver.add_flow(self.next_id, dict(self.solver.flows())[src])
            self.next_id += 1

    @rule(data=st.data())
    def remove(self, data):
        fid = data.draw(st.integers(0, max(self.next_id, 1)))
        self.solver.remove_flow(fid)  # unknown ids are ignored

    @rule(data=st.data())
    def recycle(self, data):
        """Remove a path's last flow, then re-use its segment for another
        path of the same length."""
        src = self._live(data)
        if src is None:
            return
        flows = dict(self.solver.flows())
        old = flows[src]
        for fid, path in flows.items():
            if path == old:
                self.solver.remove_flow(fid)
        n = self.caps.shape[0]
        self.solver.add_flow(self.next_id, [(link + 1) % n for link in old])
        self.next_id += 1

    @rule(data=st.data())
    def move(self, data):
        if not self.next_id:
            return
        fid = data.draw(st.integers(0, self.next_id - 1))
        if self.solver.has_flow(fid):
            self.solver.move_flow(fid, self._path(data))

    @rule(factor=st.sampled_from([0.5, 1.0, 2.0]))
    def rescale_capacity(self, factor):
        self.caps = self.caps * factor
        self.solver.set_capacity(self.caps)

    @rule(extra=st.floats(1.0, 100.0, allow_nan=False))
    def append_capacity(self, extra):
        self.caps = np.append(self.caps, extra)
        self.solver.set_capacity(self.caps)

    @rule()
    def invalidate(self):
        self.solver.invalidate()

    @invariant()
    def matches_oracle(self):
        if self.next_id:
            assert_matches_oracle(self.solver, self.caps)
            assert_equals_cold_fill(self.solver, self.caps)


class GroupedSolverMachine(SolverMachine):
    """The same mirror at the fluid simulator's grouping tolerance."""

    GROUP_RTOL = 1e-3


TestSolverMachine = SolverMachine.TestCase
TestSolverMachine.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestGroupedSolverMachine = GroupedSolverMachine.TestCase
TestGroupedSolverMachine.settings = settings(
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
        """stats()['maxmin_iterations'] counts each fill's logical rounds
        (what a cold fill of the same problem runs, whether or not the fill
        resumed from the round memo) and nothing for a memo hit — the
        incremental ≤ full telemetry guarantee at the object level."""
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
        solver._rates[col] = np.nextafter(solver._rates[col], np.inf)  # private-store: planted corruption crosscheck() must refute
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
