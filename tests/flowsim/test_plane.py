"""Unit tests for the flow plane's link table and congestion signals.

No simulation runs here: each test writes the plane's per-link arrays
directly and reads the signals back.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.flowsim.plane import FlowPlane, check_capacity_factor

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
