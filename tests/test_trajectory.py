"""Trajectory curves, per-segment lookups, timing model and walk planning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prisquad.model import TrajectoryKind, TrajectorySpec, ValidationError
from prisquad.trajectory import (
    DEFAULT_DWELL_S,
    SLIDE_SPEED_CAP,
    VERT_SPEED_CAP,
    SegmentQueryError,
    make_trajectory,
    plan_straight_walk,
    preset,
    stride_timing,
    walk_step_count,
    x_at_y,
    y_at_x,
)


def spec(kind, L=34.0, H=None, tilt=0.0):
    if H is None:
        H = 13.0 if kind == TrajectoryKind.RECT1 else 5.0
    return TrajectorySpec(kind=TrajectoryKind(kind), stride_L=L, stride_H=H, tilt=tilt)


kinds = st.sampled_from(
    [TrajectoryKind.RECT1, TrajectoryKind.RECT2, TrajectoryKind.CIRCULAR, TrajectoryKind.TRIANGULAR]
)


class TestShapes:
    def test_rect1_traverse_runs_at_full_height(self):
        curve = make_trajectory(spec(TrajectoryKind.RECT1))
        seg = curve.segment("traverse")
        assert seg.p0[1] == 13.0 and seg.p1[1] == 13.0
        # sampled points along the traverse hold y = 13
        ys = [curve.point(s)[1] for s in np.linspace(0.15, 0.35, 20)]
        assert all(y == pytest.approx(13.0, abs=1e-9) for y in ys)

    def test_triangular_apex_at_midspan(self):
        curve = make_trajectory(spec(TrajectoryKind.TRIANGULAR, H=5.0))
        assert curve.segment("ascent").p1 == (17.0, 5.0)

    def test_circular_extremes(self):
        curve = make_trajectory(spec(TrajectoryKind.CIRCULAR, H=5.0))
        assert y_at_x(curve, 17.0, "ascent") == pytest.approx(5.0, abs=1e-12)
        assert y_at_x(curve, 0.0, "ascent") == pytest.approx(0.0, abs=1e-9)
        assert y_at_x(curve, 34.0, "descent") == pytest.approx(0.0, abs=1e-9)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            make_trajectory(spec(TrajectoryKind.RECT1, L=40.0))

    @settings(max_examples=40)
    @given(kinds, st.floats(5.0, 34.0), st.floats(1.0, 13.0))
    def test_closure_bounds_and_height(self, kind, L, H):
        curve = make_trajectory(spec(kind, L=L, H=H))
        # closed loop: the end of the ground return meets the start point
        p0 = curve.point(0.0)
        for eps in (1e-3, 1e-6, 1e-9):
            p1 = curve.point(1.0 - eps)
            assert math.hypot(p1[0] - p0[0], p1[1] - p0[1]) < 10 * eps * L + 1e-9
        pts = curve.swing_points
        assert pts[:, 1].max() == pytest.approx(H, abs=1e-9)
        assert pts[:, 0].min() == pytest.approx(0.0, abs=1e-9)
        assert pts[:, 0].max() == pytest.approx(L, abs=1e-9)
        assert pts[:, 1].min() >= -1e-9

    def test_tilted_with_zero_tilt_is_bitwise_circular(self):
        plain = make_trajectory(spec(TrajectoryKind.CIRCULAR))
        tilted = make_trajectory(spec(TrajectoryKind.TILTED_CIRCULAR, tilt=0.0))
        assert np.array_equal(plain.swing_points, tilted.swing_points)

    def test_tilted_curve_stays_on_or_above_the_slope(self):
        tilt = math.radians(15.0)
        curve = make_trajectory(spec(TrajectoryKind.TILTED_CIRCULAR, tilt=tilt))
        pts = curve.swing_points
        # every swing point sits on or above the incline line y = x tan(tilt)
        assert np.all(pts[:, 1] - pts[:, 0] * math.tan(tilt) >= -1e-9)


class TestSegmentLookups:
    def test_circular_apex_lookup(self):
        curve = make_trajectory(spec(TrajectoryKind.CIRCULAR, H=5.0))
        assert x_at_y(curve, 5.0, "ascent") == pytest.approx(17.0, abs=1e-9)

    def test_triangular_ascent_interpolation(self):
        # oracle: linear interpolation on the apex line y = (5/17) x
        curve = make_trajectory(spec(TrajectoryKind.TRIANGULAR, H=5.0))
        assert y_at_x(curve, 8.5, "ascent") == pytest.approx(5.0 / 17.0 * 8.5, abs=1e-12)
        assert y_at_x(curve, 8.5, "ascent") == pytest.approx(2.5, abs=1e-12)
        assert x_at_y(curve, 2.5, "ascent") == pytest.approx(8.5, abs=1e-12)

    def test_vertical_segment_is_not_a_function_of_x(self):
        curve = make_trajectory(spec(TrajectoryKind.RECT1))
        with pytest.raises(SegmentQueryError):
            y_at_x(curve, 0.0, "rise")

    def test_horizontal_segment_is_not_a_function_of_y(self):
        curve = make_trajectory(spec(TrajectoryKind.RECT1))
        with pytest.raises(SegmentQueryError):
            x_at_y(curve, 13.0, "traverse")

    def test_out_of_range_query_rejected(self):
        curve = make_trajectory(spec(TrajectoryKind.TRIANGULAR))
        with pytest.raises(SegmentQueryError):
            y_at_x(curve, 20.0, "ascent")

    @settings(max_examples=40)
    @given(kinds, st.floats(0.05, 0.95))
    def test_lookups_invert_each_other(self, kind, frac):
        # on segments monotonic in both variables the two lookups are inverses
        curve = make_trajectory(spec(kind))
        for seg in curve.segments:
            if seg.name == "ground_return":
                continue
            y_lo, y_hi = sorted((seg.p0[1], seg.p1[1]))
            x_lo, x_hi = sorted((seg.p0[0], seg.p1[0]))
            if y_hi - y_lo < 1e-9 or x_hi - x_lo < 1e-9:
                continue
            y = y_lo + frac * (y_hi - y_lo)
            x = seg.x_at_y(y)
            assert seg.y_at_x(x) == pytest.approx(y, abs=1e-9)


class TestStrideTiming:
    def test_reference_rows_are_exact(self):
        expected = {
            "rect1": (3.6, 4.37),
            "rect2": (2.0, 8.05),
            "circular": (1.27, 12.44),
            "triangular": (1.0, 15.30),
        }
        for kind, (time_s, speed) in expected.items():
            timing = stride_timing(preset(kind))
            assert timing.stride_time_s == time_s
            assert timing.body_speed_cm_s == speed

    def test_custom_rect_timing_from_axis_caps(self):
        # oracle: sequential axis moves at the calibrated caps
        custom = spec(TrajectoryKind.RECT2, L=20.0, H=4.0)
        timing = stride_timing(custom)
        expected = 2 * 4.0 / VERT_SPEED_CAP + 20.0 / (2 * SLIDE_SPEED_CAP)
        assert timing.stride_time_s == pytest.approx(expected, rel=1e-6)

    def test_custom_triangular_timing_from_axis_caps(self):
        # both axes bind simultaneously on the reference slope ratio
        custom = spec(TrajectoryKind.TRIANGULAR, L=17.0, H=2.5)
        timing = stride_timing(custom)
        assert timing.stride_time_s == pytest.approx(0.5, rel=1e-6)


class TestPlanStraightWalk:
    def test_zero_distance_empty_plan(self):
        assert plan_straight_walk(0.0, preset("triangular")) == []

    def test_short_walk_splits_into_two_half_steps(self):
        plan = plan_straight_walk(17.0, preset("triangular"))
        assert [s.advance_cm for s in plan] == [8.5, 8.5]
        assert sum(s.advance_cm for s in plan) == pytest.approx(17.0)

    def test_ten_step_reference_run(self):
        # 153 cm = nine interior half-strides: bookends 8.5, interiors 17
        plan = plan_straight_walk(9 * 17.0, preset("triangular"))
        assert len(plan) == 10
        assert plan[0].advance_cm == pytest.approx(8.5)
        assert plan[-1].advance_cm == pytest.approx(8.5)
        assert all(s.advance_cm == pytest.approx(17.0) for s in plan[1:-1])
        assert plan[0].stride_span_cm == pytest.approx(17.0)
        assert plan[1].stride_span_cm == pytest.approx(34.0)

    @settings(max_examples=60)
    @given(st.floats(0.5, 400.0))
    def test_conservation_and_alternation(self, distance):
        plan = plan_straight_walk(distance, preset("triangular"))
        assert sum(s.advance_cm for s in plan) == pytest.approx(distance, abs=1e-9)
        pairs = [s.swing_pair for s in plan]
        assert all(a != b for a, b in zip(pairs, pairs[1:]))
        assert all(0 < s.advance_cm <= 17.0 + 1e-9 for s in plan)

    def test_bookends_are_exactly_half_of_interior(self):
        plan = plan_straight_walk(100.0, preset("triangular"))
        interior = plan[1].advance_cm
        assert plan[0].advance_cm == pytest.approx(interior / 2.0, abs=1e-12)
        assert plan[-1].advance_cm == pytest.approx(interior / 2.0, abs=1e-12)
        assert all(s.advance_cm == pytest.approx(interior) for s in plan[1:-1])
        assert interior <= 17.0 + 1e-9

    def test_carriage_cycle_closes_for_any_distance(self):
        # simulate the slide bookkeeping: swing +advance, stance -advance;
        # both carriages must return to centre at the end of the plan
        for distance in (17.0, 100.0, 153.0, 500.0, 41.3):
            plan = plan_straight_walk(distance, preset("triangular"))
            u = {"AC": 0.0, "BD": 0.0}
            for step in plan:
                other = "BD" if step.swing_pair == "AC" else "AC"
                u[step.swing_pair] += step.advance_cm
                u[other] -= step.advance_cm
            assert u["AC"] == pytest.approx(0.0, abs=1e-9), distance
            assert u["BD"] == pytest.approx(0.0, abs=1e-9), distance

    def test_step_count_needs_no_plan(self):
        assert walk_step_count(0.0, 34.0) == 0
        assert walk_step_count(9 * 17.0, 34.0) == 10
        assert walk_step_count(1e9, 34.0) == 58823531
        with pytest.raises(ValidationError, match="too many steps"):
            walk_step_count(1e300, 5e-324)


def test_dwell_defaults_cover_every_kind():
    assert set(DEFAULT_DWELL_S) == set(TrajectoryKind)
    assert all(d >= 0.0 for d in DEFAULT_DWELL_S.values())
