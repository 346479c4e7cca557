"""Unit tests for the flow plane: its link table, its congestion
signals, flow placement and the one reroute pass under both simulators.

No simulation runs here: each test writes the plane's per-link arrays
and flows directly and reads the signals, the moves and the trace back.
"""

import math

import numpy as np
import pytest

from repro import telemetry as tm
from repro.errors import ConfigError
from repro.flowsim.flow import Flow
from repro.flowsim.plane import FlowPlane, check_capacity_factor, check_plane_settings
from repro.telemetry import Telemetry

#: base capacity 100 bps, congest at 90 %, clear at 50 %.
C, HI, LO = 100.0, 0.9, 0.5


def plane():
    return FlowPlane(C, HI, LO, group_rtol=0.0)


class TestHysteresis:
    """Link (1, 2) at half capacity (50 bps) with 20 % cross traffic
    (10 bps): the bit sets at a load of 45 (alloc 35) and clears at 25
    (alloc 15)."""

    def _plane(self):
        p = plane()
        p.scale_link(1, 2, 0.5)
        p.load_link(1, 2, 0.2)
        return p, p.links[(1, 2)]

    def test_sets_at_congest_threshold(self):
        p, idx = self._plane()
        p.alloc[idx] = 34.0
        assert p.update_congestion() == (set(), False)
        assert not p.is_congested(1, 2)
        p.alloc[idx] = 35.0
        assert p.update_congestion() == ({idx}, False)
        assert p.is_congested(1, 2)

    def test_holds_inside_the_band(self):
        p, idx = self._plane()
        p.alloc[idx] = 40.0
        p.update_congestion()
        for alloc in (30.0, 20.0, 15.5):
            p.alloc[idx] = alloc
            assert p.update_congestion() == (set(), False)
            assert p.is_congested(1, 2)

    def test_clears_at_clear_threshold(self):
        p, idx = self._plane()
        p.alloc[idx] = 40.0
        p.update_congestion()
        p.alloc[idx] = 15.0
        assert p.update_congestion() == (set(), True)
        assert not p.is_congested(1, 2)
        # Back inside the band from below: still clear.
        p.alloc[idx] = 30.0
        assert p.update_congestion() == (set(), False)
        assert not p.is_congested(1, 2)

    def test_reverse_direction_is_its_own_link(self):
        p, idx = self._plane()
        back = p.links[(2, 1)]
        p.alloc[idx] = 40.0
        assert p.update_congestion() == ({idx}, False)
        assert not p.is_congested(2, 1) and back != idx

    def test_unknown_link_is_clear(self):
        assert not plane().is_congested(7, 8)


class TestSpare:
    def test_factor_and_exogenous_load(self):
        p = plane()
        p.scale_link(1, 2, 0.5)  # 50 bps
        p.load_link(1, 2, 0.2)  # 10 bps of it taken
        p.alloc[p.links[(1, 2)]] = 25.0
        assert p.spare(1, 2) == 15.0

    def test_never_negative(self):
        p = plane()
        p.scale_link(1, 2, 0.5)
        p.alloc[p.links[(1, 2)]] = 80.0
        assert p.spare(1, 2) == 0.0

    def test_unknown_link_is_idle(self):
        assert plane().spare(3, 4) == C

    def test_zero_capacity_link(self):
        p = plane()
        p.scale_link(1, 2, 0.0)
        assert p.spare(1, 2) == 0.0
        assert p.utilization().tolist() == [1.0, 1.0]


class TestArrays:
    def test_capacity_residual_load_utilization(self):
        p = plane()
        p.intern_path((1, 2, 3))
        p.scale_link(2, 3, 0.5)
        p.load_link(2, 3, 0.4)
        p.alloc[: len(p.links)] = [50.0, 20.0, 0.0]  # (1,2) (2,3) (3,2)
        assert p.capacity().tolist() == [100.0, 50.0, 50.0]
        assert p.residual().tolist() == [100.0, 30.0, 30.0]
        assert p.load().tolist() == [50.0, 40.0, 20.0]
        assert p.utilization().tolist() == [0.5, 0.8, 0.4]

    def test_utilization_is_unclipped(self):
        p = plane()
        p.intern_link(1, 2)
        p.alloc[0] = 150.0
        assert p.utilization()[0] == 1.5

    def test_shift_moves_a_rate(self):
        p = plane()
        old = p.intern_path((1, 2, 3))
        new = p.intern_path((1, 4, 3))
        p.alloc[old] = [30.0, 10.0]
        p.shift(old, new, 20.0)
        assert p.alloc[old].tolist() == [10.0, 0.0]  # floored at zero
        assert p.alloc[new].tolist() == [20.0, 20.0]

    def test_set_both_reports_only_changes(self):
        p = plane()
        assert p.scale_link(1, 2, 0.5) == (0, 1)
        p.cap_factor[1] = 1.0
        assert p.scale_link(1, 2, 0.5) == (1,)
        assert p.load_link(1, 2, 0.0) == ()


class TestGrowth:
    def test_past_64_links_keeps_prior_state(self):
        p = plane()
        for i in range(64):
            p.intern_link(i, i + 1)
        assert p.alloc.shape == (64,)
        p.scale_link(0, 1, 0.25)  # interns (1, 0): the 65th link
        p.load_link(5, 6, 0.3)
        p.alloc[:64] = np.arange(64.0)
        p.congested[[3, 40]] = True
        assert len(p.links) == 66
        for col in (p.alloc, p.congested, p.cap_factor, p.exo_frac):
            assert col.shape == (128,)
        assert p.links[(0, 1)] == 0 and p.links[(63, 64)] == 63
        assert p.alloc[:64].tolist() == list(np.arange(64.0))
        assert np.flatnonzero(p.congested).tolist() == [3, 40]
        assert p.cap_factor[[0, p.links[(1, 0)]]].tolist() == [0.25, 0.25]
        assert p.exo_frac[p.links[(5, 6)]] == 0.3
        # The padding past the interned links keeps its initial value.
        assert not p.alloc[66:].any() and not p.congested[66:].any()
        assert (p.cap_factor[66:] == 1.0).all() and not p.exo_frac[66:].any()

    def test_same_interning_same_bytes(self):
        a, b = plane(), plane()
        for p in (a, b):
            for i in range(70):
                p.intern_link(i, i + 1)
        for name in ("alloc", "congested", "cap_factor", "exo_frac"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestCapacityFactor:
    @pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf, -math.inf, 10**400, "2"])
    def test_hostile_factor_refused_before_any_write(self, factor):
        p = plane()
        with pytest.raises(ConfigError, match="factor"):
            p.scale_link(1, 2, factor)
        assert p.links == {}

    def test_column_check(self):
        check_capacity_factor(np.array([0.0, 0.5, 2.0]))
        with pytest.raises(ConfigError, match="factor"):
            check_capacity_factor(np.array([1.0, -1.0]))
        with pytest.raises(ConfigError, match="factor"):
            check_capacity_factor(np.array([1.0, math.nan]))


class TestPlaneSettings:
    @pytest.mark.parametrize(
        "settings, field",
        [
            ((0.0, HI, LO), "link_capacity_bps"),
            ((math.nan, HI, LO), "link_capacity_bps"),
            ((math.inf, HI, LO), "link_capacity_bps"),
            ((C, 0.5, 0.9), "clear_threshold"),
            ((C, 1.5, LO), "congest_threshold"),
            ((C, HI, math.nan), "clear_threshold"),
        ],
    )
    def test_bad_setting_named(self, settings, field):
        with pytest.raises(ConfigError, match=field):
            check_plane_settings(*settings)

    def test_defaults_pass(self):
        check_plane_settings(C, HI, LO)
        check_plane_settings(C, HI, HI)


#: the default path of the flows below, and two alternatives to it.
DEFAULT, VIA_4, VIA_5 = (1, 2, 3), (1, 4, 3), (1, 5, 3)


def placed(p, fid, path=DEFAULT, on_alt=False, rate_bps=40.0):
    """A flow from 1 to 3 placed on ``path`` at ``rate_bps``, its rate
    booked on the plane as a fill would."""
    f = Flow(fid, path[0], path[-1])
    p.place(f, path, on_alt)
    f.rate_bps = rate_bps
    p.alloc[f.link_ids] += rate_bps
    return f


class Decide:
    """Records the flow ids consulted; sends each to its planned path."""

    def __init__(self, plan=None):
        self.plan = plan or {}
        self.asked = []

    def __call__(self, f):
        self.asked.append(f.flow_id)
        return self.plan.get(f.flow_id)


class TestPlace:
    def test_first_placement_is_not_a_switch(self):
        p = plane()
        f = Flow(1, 1, 3)
        assert p.place(f, DEFAULT, False)
        assert (f.path, f.on_alt, f.switches) == (DEFAULT, False, 0)
        assert f.link_ids == [p.links[(1, 2)], p.links[(2, 3)]]
        assert p.solver.has_flow(1)

    def test_move_counts_a_switch(self):
        p = plane()
        f = placed(p, 1)
        assert p.place(f, VIA_4, True)
        assert (f.path, f.on_alt, f.switches) == (VIA_4, True, 1)
        assert dict(p.solver.flows())[1] == tuple(f.link_ids)

    def test_same_path_is_no_move(self):
        p = plane()
        f = placed(p, 1)
        assert not p.place(f, DEFAULT, False)
        assert f.switches == 0

    def test_loss_of_route_leaves_the_solver(self):
        p = plane()
        f = placed(p, 1)
        assert p.place(f, None, True)
        assert (f.path, f.link_ids, f.on_alt, f.rate_bps, f.switches) == (None, [], False, 0.0, 0)
        assert not p.solver.has_flow(1)
        assert not p.place(f, None, False)

    def test_unpooled_plane_leaves_the_solver_alone(self):
        p = FlowPlane(C, HI, LO, group_rtol=0.0, pooled=False)
        f = placed(p, 1)
        p.place(f, VIA_4, True)
        assert p.solver.n_flows == 0 and f.switches == 1


class TestReroute:
    """The one response pass: who is consulted, in what order, and what
    a move does to the plane and the trace."""

    def test_link_trigger_consults_flows_crossing_it(self):
        p = plane()
        f1, f2 = placed(p, 1), placed(p, 2, VIA_5)
        decide = Decide()
        p.reroute([f1, f2], {p.links[(2, 3)]}, False, decide)
        assert decide.asked == [1]

    def test_flow_trigger_consults_the_named_flows(self):
        p = plane()
        f1, f2 = placed(p, 1), placed(p, 2)
        decide = Decide()
        # Under ``by_flow`` the trigger holds flow ids: 2 names flow 2,
        # not the link with index 2.
        p.reroute([f1, f2], {2}, False, decide, by_flow=True)
        assert decide.asked == [2]

    def test_no_trigger_and_nothing_cleared_consults_none(self):
        p = plane()
        decide = Decide()
        assert p.reroute([placed(p, 1), placed(p, 2, VIA_4, True)], set(), False, decide) == []
        assert decide.asked == []

    def test_deflected_flow_consulted_only_when_something_cleared(self):
        p = plane()
        f = placed(p, 1, VIA_4, on_alt=True)
        on_its_path = {p.links[(1, 4)]}
        decide = Decide()
        p.reroute([f], on_its_path, False, decide)
        p.reroute([f], {5}, False, decide, by_flow=True)
        assert decide.asked == []
        p.reroute([f], set(), True, decide)
        assert decide.asked == [1]

    def test_cooldown(self):
        p = plane()
        f = placed(p, 1)
        trigger = {p.links[(1, 2)]}
        p.switched_at[1] = 1.0
        decide = Decide({1: (VIA_4, True)})
        assert p.reroute([f], trigger, False, decide, cooldown=0.5, now=1.25) == []
        assert decide.asked == []
        assert p.reroute([f], trigger, False, decide, cooldown=0.5, now=1.5) == [f]
        assert p.switched_at[1] == 1.5
        # Without a cooldown no stamp is read or written.
        g = placed(p, 2)
        p.reroute([g], trigger, False, Decide({2: (VIA_5, True)}), now=9.0)
        assert 2 not in p.switched_at and g.path == VIA_5

    def test_ascending_id_order(self):
        """Flows handed over in any order are consulted by id: each sees
        the load the ones before it moved."""
        p = plane()
        flows = [placed(p, fid) for fid in (3, 1, 2)]
        decide = Decide()
        p.reroute(flows, {p.links[(1, 2)]}, False, decide)
        assert decide.asked == [1, 2, 3]

    def test_shift_in_bps(self):
        """A move takes the flow's whole rate, in bps, off its old links
        and onto its new ones before the next decision."""
        p = plane()
        f1, f2 = placed(p, 1, rate_bps=40.0), placed(p, 2, rate_bps=30.0)
        seen = []

        def decide(f):
            seen.append(p.spare(1, 4))
            return VIA_4, True

        p.reroute([f1, f2], {p.links[(1, 2)]}, False, decide)
        assert seen == [C, C - 40.0]
        assert p.alloc[[p.links[(1, 2)], p.links[(2, 3)]]].tolist() == [0.0, 0.0]
        assert p.alloc[[p.links[(1, 4)], p.links[(4, 3)]]].tolist() == [70.0, 70.0]

    def test_kept_and_unchanged_decisions_move_nothing(self):
        p = plane()
        f1, f2 = placed(p, 1), placed(p, 2)
        moved = p.reroute([f1, f2], {p.links[(1, 2)]}, False, Decide({2: (DEFAULT, False)}))
        assert moved == [] and f1.switches == f2.switches == 0

    def test_path_switch_fields(self):
        p = plane()
        deflect, back, lost = placed(p, 1), placed(p, 2, VIA_4, True), placed(p, 3)
        telem = Telemetry()
        tm.activate(telem)
        try:
            p.reroute(
                [deflect, back, lost],
                {p.links[(1, 2)]},
                True,
                Decide({1: (VIA_5, True), 2: (DEFAULT, False), 3: (None, False)}),
                epoch=7,
            )
            p.reroute([deflect], {1}, True, Decide({1: (VIA_4, True)}), by_flow=True, time_s=0.5)
        finally:
            tm.activate(None)
        events = [
            {k: v for k, v in e.items() if k not in ("seq", "phase")}
            for e in telem.trace_events()
        ]
        base = {"kind": "path_switch", "src": 1, "dst": 3}
        assert events == [
            {**base, "flow": 1, "on_alt": True, "cause": "congested_link", "epoch": 7},
            {**base, "flow": 2, "on_alt": False, "cause": "resume", "epoch": 7},
            {**base, "flow": 3, "on_alt": False, "cause": "resume", "epoch": 7},
            {**base, "flow": 1, "on_alt": True, "cause": "rtt_alarm", "time_s": 0.5},
        ]
        assert list(telem.trace_events()[0])[-6:] == ["flow", "src", "dst", "on_alt", "cause", "epoch"]


class TestSnapshot:
    def test_later_writes_do_not_reach_it(self):
        p = plane()
        idx = p.intern_link(1, 2)
        p.alloc[idx] = 95.0
        p.update_congestion()
        snap = p.snapshot()
        p.alloc[idx] = 0.0
        p.update_congestion()
        p.intern_link(3, 4)
        p.alloc[p.links[(3, 4)]] = 99.0
        assert snap.is_congested(1, 2) and snap.spare(1, 2) == 5.0
        assert not p.is_congested(1, 2) and p.spare(1, 2) == C
        assert (3, 4) not in snap.links and snap.spare(3, 4) == C
