"""Domain types: geometry constants, joint limits, world model."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from prisquad.model import (
    Box,
    JointState,
    Ramp,
    RobotGeometry,
    Rope,
    TrajectoryKind,
    TrajectorySpec,
    ValidationError,
    WorldModel,
    default_geometry,
    standing_state,
    validate_joint_state,
    wrap_angle,
)


class TestDefaultGeometry:
    def test_lateral_spacing(self):
        assert default_geometry().leg_spacing_lateral == 56.0

    def test_diagonal_length_by_hand(self):
        # oracle: Pythagoras on the 33 x 56 base rectangle
        geom = default_geometry()
        expected = math.sqrt(33.0**2 + 56.0**2)
        assert expected == 65.0
        assert geom.diagonal_length == pytest.approx(65.0, abs=1e-12)

    def test_leadscrew_lead_is_starts_times_pitch(self):
        geom = default_geometry()
        assert geom.leadscrew_lead_mm == geom.leadscrew_starts * geom.leadscrew_pitch_mm
        assert geom.leadscrew_lead_mm == 8.0

    def test_headline_dimensions(self):
        geom = default_geometry()
        assert geom.body_length == 50.0
        assert geom.leg_spacing_longitudinal == 33.0
        assert geom.slide_travel_max == 34.0
        assert geom.vertical_travel_max == 13.0
        assert geom.mass_kg == 25.0
        assert geom.com_height == 22.0
        assert geom.encoder_cpr == 600

    def test_round_trip_through_config_is_bit_exact(self):
        geom = default_geometry()
        restored = RobotGeometry.from_dict(json.loads(json.dumps(geom.to_dict())))
        assert restored == geom

    def test_validation_rejects_nonsense(self):
        geom = RobotGeometry(pulley_radius=-1.0)
        with pytest.raises(ValidationError):
            geom.validate()


class TestJointState:
    def test_all_zeros_is_valid(self):
        assert validate_joint_state(JointState(), default_geometry()) == []

    def test_vertical_overtravel_is_flagged(self):
        state = JointState(d_vert=[14.0, 0.0, 0.0, 0.0])
        violations = validate_joint_state(state, default_geometry())
        assert len(violations) == 1
        assert "d_vert[A]" in violations[0]

    def test_slide_below_origin_is_flagged(self):
        state = JointState(slide_lower=-0.1)
        violations = validate_joint_state(state, default_geometry())
        assert len(violations) == 1
        assert "slide_lower" in violations[0]

    def test_diagonal_coupling_is_structural(self):
        # one slide coordinate per diagonal pair: there is no way to give
        # legs A and C independent horizontal positions
        fields = set(JointState.__dataclass_fields__)
        assert fields == {"d_vert", "slide_lower", "slide_upper", "steer_alpha"}

    def test_standing_state_centres_the_carriages(self):
        geom = default_geometry()
        state = standing_state(geom)
        assert state.slide_lower == geom.slide_travel_max / 2.0
        assert state.slide_upper == geom.slide_travel_max / 2.0
        assert validate_joint_state(state, geom) == []

    @given(
        st.lists(st.floats(0.0, 13.0), min_size=4, max_size=4),
        st.floats(0.0, 34.0),
        st.floats(0.0, 34.0),
        st.floats(-math.pi / 2, math.pi / 2),
    )
    def test_in_range_states_have_no_violations(self, d_vert, lo, up, steer):
        state = JointState(d_vert=d_vert, slide_lower=lo, slide_upper=up, steer_alpha=steer)
        assert validate_joint_state(state, default_geometry()) == []


class TestTrajectorySpec:
    def test_stride_beyond_slide_travel_rejected(self):
        spec = TrajectorySpec(TrajectoryKind.TRIANGULAR, stride_L=35.0, stride_H=5.0)
        with pytest.raises(ValidationError):
            spec.validate()

    def test_height_beyond_vertical_travel_rejected(self):
        spec = TrajectorySpec(TrajectoryKind.RECT1, stride_L=34.0, stride_H=13.5)
        with pytest.raises(ValidationError):
            spec.validate()

    def test_tilt_reserved_for_tilted_kind(self):
        spec = TrajectorySpec(TrajectoryKind.CIRCULAR, 34.0, 5.0, tilt=0.1)
        with pytest.raises(ValidationError):
            spec.validate()


class TestWorldModel:
    def test_flat_ground_is_zero(self):
        assert WorldModel().terrain_height(10.0, -5.0) == 0.0

    def test_box_raises_its_footprint(self):
        world = WorldModel(obstacles=[Box(x=50.0, z=0.0, width=40.0, depth=20.0, height=10.0)])
        assert world.terrain_height(50.0, 0.0) == 10.0
        assert world.terrain_height(39.0, 0.0) == 0.0
        assert world.terrain_height(50.0, 21.0) == 0.0

    def test_ramp_profile(self):
        world = WorldModel(obstacles=[Ramp(x_start=10.0, incline_deg=45.0, length=20.0)])
        assert world.terrain_height(0.0, 0.0) == 0.0
        assert world.terrain_height(20.0, 0.0) == pytest.approx(10.0)
        # plateau beyond the run
        assert world.terrain_height(100.0, 0.0) == pytest.approx(20.0)

    def test_gradient_zero_on_box_tops(self):
        world = WorldModel(
            obstacles=[
                Box(x=50.0, z=0.0, width=40.0, depth=20.0, height=10.0),
                Ramp(x_start=100.0, incline_deg=20.0, length=50.0),
            ]
        )
        assert world.terrain_gradient_x(50.0, 0.0) == 0.0
        assert world.terrain_gradient_x(120.0, 0.0) == pytest.approx(math.tan(math.radians(20.0)))

    def test_invalid_obstacles_rejected(self):
        world = WorldModel(obstacles=[Rope(x=10.0, z=0.0, span=100.0, height=-1.0)])
        with pytest.raises(ValidationError):
            world.validate()
        world = WorldModel(obstacles=[Ramp(x_start=0.0, incline_deg=90.0, length=10.0)])
        with pytest.raises(ValidationError):
            world.validate()


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_lands_in_half_open_interval(angle):
    wrapped = wrap_angle(angle)
    assert -math.pi < wrapped <= math.pi
    assert math.isclose(math.sin(wrapped), math.sin(angle), abs_tol=1e-9)
    assert math.isclose(math.cos(wrapped), math.cos(angle), abs_tol=1e-9)
