"""SpeedProfile: the piecewise-constant speed function and its algebra."""

import math

import pytest

from repro.core.power import PowerFunction
from repro.core.profile import Segment, SpeedProfile, max_profiles, sum_profiles


class TestSegment:
    def test_validation(self):
        with pytest.raises(ValueError):
            Segment(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Segment(0.0, 1.0, -1.0)

    def test_work(self):
        assert Segment(0.0, 2.0, 3.0).work == 6.0


class TestConstruction:
    def test_empty(self):
        p = SpeedProfile()
        assert p.is_empty
        assert p.total_work() == 0.0
        assert p.max_speed() == 0.0

    def test_drops_zero_speed_segments(self):
        p = SpeedProfile([Segment(0, 1, 0.0) if False else Segment(0, 1, 1.0)])
        q = SpeedProfile.constant(0, 1, 0.0)
        assert q.is_empty
        assert not p.is_empty

    def test_merges_adjacent_equal_speed(self):
        p = SpeedProfile([Segment(0, 1, 2.0), Segment(1, 2, 2.0)])
        assert len(p) == 1
        assert p.segments[0].end == 2.0

    def test_keeps_adjacent_different_speed(self):
        p = SpeedProfile([Segment(0, 1, 2.0), Segment(1, 2, 3.0)])
        assert len(p) == 2

    def test_sorts_segments(self):
        p = SpeedProfile([Segment(2, 3, 1.0), Segment(0, 1, 1.0)])
        assert p.segments[0].start == 0

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            SpeedProfile([Segment(0, 2, 1.0), Segment(1, 3, 1.0)])

    def test_from_breakpoints(self):
        p = SpeedProfile.from_breakpoints(times=[0, 1, 3], speeds=[2.0, 1.0])
        assert p.speed_at(0.5) == 2.0
        assert p.speed_at(2.0) == 1.0
        with pytest.raises(ValueError):
            SpeedProfile.from_breakpoints(times=[0, 1], speeds=[1.0, 2.0])

    def test_from_segments(self):
        p = SpeedProfile.from_segments(
            starts=[0.0, 2.0], ends=[1.0, 3.0], speeds=[2.0, 4.0]
        )
        assert p == SpeedProfile([Segment(0, 1, 2.0), Segment(2, 3, 4.0)])
        with pytest.raises(ValueError):
            SpeedProfile.from_segments(starts=[0.0], ends=[0.0], speeds=[1.0])
        with pytest.raises(ValueError):
            SpeedProfile.from_segments(starts=[0.0, 1.0], ends=[2.0, 3.0], speeds=[1.0, 1.0])
        with pytest.raises(ValueError):
            SpeedProfile.from_segments(starts=[0.0], ends=[1.0], speeds=[1.0, 2.0])


class TestQueries:
    def test_speed_at_half_open(self):
        p = SpeedProfile.constant(1.0, 2.0, 5.0)
        assert p.speed_at(0.99) == 0.0
        assert p.speed_at(1.0) == 5.0  # closed left
        assert p.speed_at(1.99) == 5.0
        assert p.speed_at(2.0) == 0.0  # open right

    def test_work_in(self):
        p = SpeedProfile([Segment(0, 1, 2.0), Segment(2, 3, 4.0)])
        assert p.work_in(0.0, 3.0) == 6.0
        assert p.work_in(0.5, 2.5) == 1.0 + 2.0
        assert p.work_in(1.0, 2.0) == 0.0
        assert p.work_in(3.0, 2.0) == 0.0  # inverted -> 0

    def test_total_work_and_max_speed(self):
        p = SpeedProfile([Segment(0, 1, 2.0), Segment(1, 3, 1.0)])
        assert p.total_work() == 4.0
        assert p.max_speed() == 2.0

    def test_energy(self):
        p = SpeedProfile([Segment(0, 1, 2.0), Segment(1, 3, 1.0)])
        assert math.isclose(p.energy(PowerFunction(3.0)), 8.0 + 2.0)

    def test_breakpoints(self):
        p = SpeedProfile([Segment(0, 1, 2.0), Segment(1, 3, 1.0), Segment(5, 6, 1.0)])
        assert p.breakpoints() == [0, 1, 3, 5, 6]

    def test_start_end(self):
        p = SpeedProfile([Segment(1, 2, 1.0), Segment(4, 5, 1.0)])
        assert p.start == 1.0
        assert p.end == 5.0


class TestAlgebra:
    def test_scale(self):
        p = SpeedProfile.constant(0, 2, 3.0).scale(2.0)
        assert p.speed_at(1.0) == 6.0
        with pytest.raises(ValueError):
            p.scale(-1.0)

    def test_scale_energy_power_law(self):
        """Scaling speeds by k multiplies energy by k^alpha."""
        p = SpeedProfile([Segment(0, 1, 2.0), Segment(1, 2, 1.0)])
        pw = PowerFunction(2.5)
        assert math.isclose(p.scale(3.0).energy(pw), 3.0**2.5 * p.energy(pw))

    def test_shift(self):
        p = SpeedProfile.constant(0, 1, 1.0).shift(2.5)
        assert p.speed_at(2.75) == 1.0
        assert p.speed_at(0.5) == 0.0

    def test_restrict(self):
        p = SpeedProfile.constant(0, 4, 2.0).restrict(1.0, 2.0)
        assert p.total_work() == 2.0
        assert p.speed_at(0.5) == 0.0

    def test_add(self):
        a = SpeedProfile.constant(0, 2, 1.0)
        b = SpeedProfile.constant(1, 3, 2.0)
        s = a + b
        assert s.speed_at(0.5) == 1.0
        assert s.speed_at(1.5) == 3.0
        assert s.speed_at(2.5) == 2.0

    def test_sum_profiles_work_is_additive(self):
        a = SpeedProfile.constant(0, 2, 1.5)
        b = SpeedProfile.constant(1, 4, 0.5)
        assert math.isclose(sum_profiles([a, b]).total_work(), a.total_work() + b.total_work())

    def test_max_profiles(self):
        a = SpeedProfile.constant(0, 2, 1.0)
        b = SpeedProfile.constant(1, 3, 2.0)
        m = max_profiles([a, b])
        assert m.speed_at(0.5) == 1.0
        assert m.speed_at(1.5) == 2.0

    def test_dominates(self):
        a = SpeedProfile.constant(0, 2, 2.0)
        b = SpeedProfile.constant(0.5, 1.5, 1.0)
        assert a.dominates(b)
        assert not b.dominates(a)

    def test_equality(self):
        a = SpeedProfile([Segment(0, 1, 1.0), Segment(1, 2, 1.0)])
        b = SpeedProfile.constant(0, 2, 1.0)
        assert a == b
        assert a != SpeedProfile.constant(0, 2, 1.5)
