"""Kinematic relations: foot layout, leg chain, encoder conversions, screw
torque and stance-pinned pose resolution."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prisquad.kinematics import (
    ContactViolation,
    DhLegParams,
    base_theta_length,
    body_frame_feet,
    default_leg_params,
    foot_counts_from_height,
    foot_height_from_counts,
    foot_planar_coords,
    friction_angle,
    helix_angle,
    leadscrew_torque,
    leg_forward_kinematics,
    rigid_pose_from_pins,
    slide_counts_from_distance,
    slide_distance_from_counts,
    world_feet,
)
from prisquad.model import (
    PAIR_AC,
    PAIR_BD,
    BodyPose,
    RobotGeometry,
    ValidationError,
    standing_state,
)


class TestFootPlanarCoords:
    def test_straight_angle_layout(self):
        # theta = pi puts the front feet directly left/right of the centre
        feet = foot_planar_coords(BodyPose(), theta=math.pi, length=2.0)
        np.testing.assert_allclose(feet.xz[0], [0.0, 1.0], atol=1e-12)  # front-left
        np.testing.assert_allclose(feet.xz[1], [0.0, -1.0], atol=1e-12)  # front-right

    def test_base_stance_front_left(self):
        # oracle: direct trig evaluation of the base-stance geometry
        theta = 2.0 * math.acos(16.5 / 32.5)
        feet = foot_planar_coords(BodyPose(), theta=theta, length=65.0)
        assert feet.xz[0][0] == pytest.approx(16.5, abs=1e-9)
        assert feet.xz[0][1] == pytest.approx(
            32.5 * math.sin(math.acos(16.5 / 32.5)), abs=1e-9
        )
        assert feet.xz[0][1] == pytest.approx(28.0, abs=1e-9)

    def test_quarter_turn_rotates_offsets(self):
        theta, length = 2.0, 60.0
        base = foot_planar_coords(BodyPose(), theta, length)
        turned = foot_planar_coords(BodyPose(heading_phi=math.pi / 2.0), theta, length)
        for i in range(4):
            x, z = base.xz[i]
            np.testing.assert_allclose(turned.xz[i], [-z, x], atol=1e-9)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValidationError):
            foot_planar_coords(BodyPose(), theta=1.0, length=0.0)
        with pytest.raises(ValidationError):
            foot_planar_coords(BodyPose(), theta=0.0, length=10.0)

    @given(
        st.floats(-math.pi, math.pi),
        st.floats(0.1, math.pi - 0.1),
        st.floats(1.0, 100.0),
        st.floats(-50.0, 50.0),
        st.floats(-50.0, 50.0),
    )
    def test_feet_sit_on_the_half_diagonal_circle(self, phi, theta, length, x, z):
        com = BodyPose(x=x, z=z, heading_phi=phi)
        feet = foot_planar_coords(com, theta, length)
        for i in range(4):
            r = math.hypot(feet.xz[i][0] - x, feet.xz[i][1] - z)
            assert r == pytest.approx(length / 2.0, rel=1e-12)
        # diagonal pairs are antipodal through the centre
        np.testing.assert_allclose(feet.xz[0] + feet.xz[2], [2 * x, 2 * z], atol=1e-9)
        np.testing.assert_allclose(feet.xz[1] + feet.xz[3], [2 * x, 2 * z], atol=1e-9)


class TestLegForwardKinematics:
    def test_zero_joints_give_link_offsets(self):
        p = default_leg_params()
        T = leg_forward_kinematics(p, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(T[:3, 3], [p.k1, -p.k3, p.k2], atol=1e-12)
        np.testing.assert_allclose(T[:3, :3], np.eye(3), atol=1e-12)

    def test_vertical_axis_isolation(self):
        p = default_leg_params()
        a = leg_forward_kinematics(p, 0.3, 2.0, 0.0)
        b = leg_forward_kinematics(p, 0.3, 2.0, 5.0)
        assert b[1, 3] - a[1, 3] == pytest.approx(5.0, abs=1e-12)
        assert b[0, 3] == pytest.approx(a[0, 3], abs=1e-12)
        assert b[2, 3] == pytest.approx(a[2, 3], abs=1e-12)

    def test_matches_planar_layout_at_base_stance(self):
        # cross-model consistency: the per-leg chain over all four legs must
        # reproduce the planar layout formula at the matched (theta, L)
        geom = RobotGeometry()
        params = default_leg_params()
        joints = standing_state(geom)
        local = body_frame_feet(joints, params, geom)
        theta, length = base_theta_length(params)
        layout = foot_planar_coords(BodyPose(), theta, length)
        np.testing.assert_allclose(local.xz, layout.xz, atol=1e-9)

    def test_prismatic_axes_orthogonal_by_finite_differences(self):
        p = default_leg_params()
        h = 1e-4
        base = leg_forward_kinematics(p, 0.4, 3.0, 2.0)[:3, 3]
        dd1 = (leg_forward_kinematics(p, 0.4, 3.0 + h, 2.0)[:3, 3] - base) / h
        dd2 = (leg_forward_kinematics(p, 0.4, 3.0, 2.0 + h)[:3, 3] - base) / h
        assert abs(float(dd1 @ dd2)) < 1e-6

    def test_k3_must_exceed_k1(self):
        with pytest.raises(ValidationError):
            DhLegParams(k1=20.0, k2=28.0, k3=19.0)


class TestEncoderConversions:
    def test_one_revolution_moves_one_circumference(self):
        d = slide_distance_from_counts(600, 600, 1.55)
        assert d == pytest.approx(2.0 * math.pi * 1.55, abs=1e-12)
        assert d == pytest.approx(9.7389, abs=1e-4)

    def test_zero_counts_zero_distance(self):
        assert slide_distance_from_counts(0, 600, 1.55) == 0.0

    def test_half_revolution(self):
        assert slide_distance_from_counts(300, 600, 1.55) == pytest.approx(4.8695, abs=1e-4)

    def test_one_turn_advances_one_lead(self):
        assert foot_height_from_counts(600, 600, 8.0) == pytest.approx(8.0, abs=1e-12)
        assert foot_height_from_counts(300, 600, 8.0) == pytest.approx(4.0, abs=1e-12)

    def test_full_vertical_travel_count(self):
        # oracle: travel / lead * counts-per-turn = 130 mm / 8 mm * 600
        counts = 130.0 / 8.0 * 600.0
        assert counts == 9750.0
        assert foot_height_from_counts(9750, 600, 8.0) == pytest.approx(130.0, abs=1e-12)

    def test_round_trips_exact_at_every_count(self):
        for counts in range(0, 20001):
            d = slide_distance_from_counts(counts, 600, 1.55)
            assert slide_counts_from_distance(d, 600, 1.55) == counts
            h = foot_height_from_counts(counts, 600, 8.0)
            assert foot_counts_from_height(h, 600, 8.0) == counts

    def test_rejects_bad_constants(self):
        with pytest.raises(ValidationError):
            slide_distance_from_counts(10, 0, 1.55)
        with pytest.raises(ValidationError):
            foot_height_from_counts(10, 600, 0.0)


class TestLeadscrewTorque:
    def test_zero_angles_zero_torque(self):
        assert leadscrew_torque(245.25, 0.004, 0.0, 0.0) == 0.0

    def test_45_degrees_gives_w_times_r(self):
        w, r = 100.0, 0.01
        assert leadscrew_torque(w, r, math.radians(30.0), math.radians(15.0)) == pytest.approx(
            w * r, abs=1e-12
        )

    def test_reference_leg_actuator_case(self):
        # oracle: direct formula evaluation with the robot's mass on a 8 mm
        # screw (lead 8 mm, ~8 mm mean diameter, mu = 0.15)
        w = 25.0 * 9.81
        helix = helix_angle(8.0, 8.0)
        friction = friction_angle(0.15)
        expected = w * 0.004 * math.tan(helix + friction)
        got = leadscrew_torque(w, 0.004, friction, helix)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.4824, abs=1e-3)

    def test_rejects_self_locking_domain_edge(self):
        with pytest.raises(ValidationError):
            leadscrew_torque(100.0, 0.01, math.radians(60.0), math.radians(45.0))

    @given(
        st.floats(1.0, 500.0),
        st.floats(0.001, 0.05),
        st.floats(0.01, 0.6),
        st.floats(0.01, 0.6),
    )
    def test_monotone_in_every_argument(self, w, r, phi, alpha):
        base = leadscrew_torque(w, r, phi, alpha)
        assert leadscrew_torque(w * 1.1, r, phi, alpha) > base
        assert leadscrew_torque(w, r * 1.1, phi, alpha) > base
        assert leadscrew_torque(w, r, phi + 0.05, alpha) > base
        assert leadscrew_torque(w, r, phi, alpha + 0.05) > base


class TestResolveBodyPose:
    """The pose solve the engine runs: the stance feet's world positions before
    a joint change pinned onto their body-frame positions after it."""

    def setup_method(self):
        self.geom = RobotGeometry()
        self.params = default_leg_params()

    def resolve(self, pose, before, after, stance):
        anchors = world_feet(pose, before, self.params, self.geom).points
        local = body_frame_feet(after, self.params, self.geom).points
        return rigid_pose_from_pins(
            [anchors[leg] for leg in stance], [local[leg] for leg in stance], pose.pitch
        )

    def test_no_joint_change_is_identity(self):
        pose = BodyPose(x=3.0, z=-2.0, heading_phi=0.4)
        joints = standing_state(self.geom)
        out = self.resolve(pose, joints, joints.copy(), PAIR_AC)
        assert out.x == pytest.approx(pose.x, abs=1e-12)
        assert out.z == pytest.approx(pose.z, abs=1e-12)
        assert out.heading_phi == pytest.approx(pose.heading_phi, abs=1e-12)

    def test_stance_slide_motion_advances_the_body(self):
        pose = BodyPose()
        before = standing_state(self.geom)
        after = before.copy()
        after.slide_lower += 5.0  # stance AC carriage moves forward
        out = self.resolve(pose, before, after, PAIR_AC)
        assert out.x == pytest.approx(-5.0, abs=1e-9)
        assert out.z == pytest.approx(0.0, abs=1e-9)
        # stance feet stay put in the world
        w0 = world_feet(pose, before, self.params, self.geom).xz
        w1 = world_feet(out, after, self.params, self.geom).xz
        np.testing.assert_allclose(w0[[0, 2]], w1[[0, 2]], atol=1e-9)
        # swing feet advance by their own slide plus the body motion
        after.slide_upper += 3.0
        out2 = self.resolve(pose, before, after, PAIR_AC)
        w2 = world_feet(out2, after, self.params, self.geom).xz
        np.testing.assert_allclose(w2[[1, 3]] - w0[[1, 3]], [[-2.0, 0.0], [-2.0, 0.0]], atol=1e-9)

    def test_steering_with_lower_stance_rotates_the_heading(self):
        # grounded lower layer: turning the joint rotates the upper layer
        # (and with it the body heading), stance feet unmoved
        pose = BodyPose()
        before = standing_state(self.geom)
        after = before.copy()
        after.steer_alpha = math.radians(10.0)
        out = self.resolve(pose, before, after, PAIR_AC)
        assert math.degrees(out.heading_phi) == pytest.approx(10.0, abs=1e-9)
        w0 = world_feet(pose, before, self.params, self.geom).xz
        w1 = world_feet(out, after, self.params, self.geom).xz
        np.testing.assert_allclose(w0[[0, 2]], w1[[0, 2]], atol=1e-9)

    def test_steering_with_upper_stance_keeps_the_heading(self):
        pose = BodyPose()
        before = standing_state(self.geom)
        before.steer_alpha = math.radians(25.0)
        after = before.copy()
        after.steer_alpha = 0.0
        out = self.resolve(pose, before, after, PAIR_BD)
        assert out.heading_phi == pytest.approx(0.0, abs=1e-9)
        w0 = world_feet(pose, before, self.params, self.geom).xz
        w1 = world_feet(out, after, self.params, self.geom).xz
        np.testing.assert_allclose(w0[[1, 3]], w1[[1, 3]], atol=1e-9)

    def test_deformed_pins_signal_contact_violation(self):
        # a rigid planar motion cannot map pins whose separation changed;
        # that would mean a grounded foot slipping
        anchors = np.array([[0.0, 0.0], [65.0, 0.0]])
        deformed = np.array([[0.0, 0.0], [60.0, 0.0]])
        with pytest.raises(ContactViolation):
            rigid_pose_from_pins(anchors, deformed, 0.0)

    @given(
        st.floats(-8.0, 8.0),
        st.floats(-8.0, 8.0),
        st.floats(-0.5, 0.5),
        st.floats(-math.pi, math.pi),
    )
    def test_stance_feet_never_drift(self, d_lower, d_upper, d_steer, phi):
        pose = BodyPose(x=1.0, z=2.0, heading_phi=phi)
        before = standing_state(self.geom)
        after = before.copy()
        after.slide_lower += d_lower
        after.slide_upper += d_upper
        after.steer_alpha += d_steer
        out = self.resolve(pose, before, after, PAIR_BD)
        w0 = world_feet(pose, before, self.params, self.geom).xz
        w1 = world_feet(out, after, self.params, self.geom).xz
        drift = np.hypot(*(w1[[1, 3]] - w0[[1, 3]]).T)
        assert float(drift.max()) < 1e-9
