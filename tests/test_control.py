"""Control loops: PD/PID/PI primitives and the pure-pursuit tracker,
including the closed-loop convergence regressions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prisquad.control import (
    PidGains,
    PidState,
    envelope_speed,
    pd_step,
    pid_step,
    pure_pursuit_goal,
    pure_pursuit_velocity,
    yaw_pi_step,
)
from prisquad.model import TrajectoryKind, TrajectorySpec, ValidationError
from prisquad.trajectory import make_trajectory


def tri_curve(L=34.0, H=5.0):
    return make_trajectory(TrajectorySpec(TrajectoryKind.TRIANGULAR, L, H))


class TestPdStep:
    def test_pure_proportional(self):
        gains = PidGains(kp=2.0)
        assert pd_step(gains, 3.0, 0.0, 0.1) == 6.0

    def test_pure_derivative(self):
        gains = PidGains(kd=1.0)
        assert pd_step(gains, 1.0, 0.0, 0.5) == 2.0

    def test_clamps_to_output_limit(self):
        gains = PidGains(kp=100.0, output_limit=5.0)
        assert pd_step(gains, 10.0, 0.0, 0.1) == 5.0
        assert pd_step(gains, -10.0, 0.0, 0.1) == -5.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError):
            pd_step(PidGains(kp=1.0), 1.0, 0.0, 0.0)


class TestPidStep:
    def test_integral_accumulates(self):
        gains = PidGains(ki=1.0)
        state = PidState()
        u1, state = pid_step(gains, 1.0, state, 1.0)
        assert u1 == 1.0
        u2, state = pid_step(gains, 1.0, state, 1.0)
        assert u2 == 2.0

    def test_zero_error_is_inert(self):
        gains = PidGains(kp=2.0, ki=1.0, kd=0.5)
        state = PidState()
        u, new_state = pid_step(gains, 0.0, state, 0.1)
        assert u == 0.0
        assert new_state.integral == 0.0

    def test_integral_clamp_prevents_windup(self):
        gains = PidGains(ki=1.0, integral_limit=0.5)
        state = PidState()
        for _ in range(100):
            _, state = pid_step(gains, 1.0, state, 1.0)
        assert state.integral == 0.5

    def test_ki_zero_degrades_to_pd(self):
        gains_pid = PidGains(kp=3.0, ki=0.0, kd=0.7)
        gains_pd = PidGains(kp=3.0, kd=0.7)
        state = PidState(prev_error=0.2)
        u_pid, _ = pid_step(gains_pid, 1.3, state, 0.05)
        u_pd = pd_step(gains_pd, 1.3, 0.2, 0.05)
        assert u_pid == u_pd

    def test_kd_ki_zero_degrades_to_p(self):
        gains = PidGains(kp=3.0)
        u, _ = pid_step(gains, 1.5, PidState(prev_error=99.0), 0.05)
        assert u == 4.5

    @given(st.floats(-1e6, 1e6), st.floats(-100.0, 100.0))
    def test_output_respects_clamp_for_arbitrary_errors(self, error, prev):
        gains = PidGains(kp=5.0, ki=2.0, kd=1.0, output_limit=7.0, integral_limit=3.0)
        u, _ = pid_step(gains, error, PidState(prev_error=prev), 0.01)
        assert -7.0 <= u <= 7.0
        u2 = pd_step(gains, error, prev, 0.01)
        assert -7.0 <= u2 <= 7.0

    def test_speed_loop_settles_within_half_second(self):
        # closed-loop oracle: feedforward + PID trim driving a first-order
        # velocity plant must pull a step error under 5% of setpoint in 0.5 s
        gains = PidGains(kp=0.4, ki=3.0, kd=0.0, output_limit=8.0, integral_limit=4.0)
        dt, tau = 0.01, 0.08
        setpoint = 10.0
        v = 0.0
        state = PidState()
        t_ok = None
        for i in range(200):
            trim, state = pid_step(gains, setpoint - v, state, dt)
            cmd = setpoint + trim
            v += dt / (tau + dt) * (cmd - v)
            if abs(setpoint - v) < 0.05 * setpoint and t_ok is None:
                t_ok = (i + 1) * dt
        assert t_ok is not None and t_ok <= 0.5


class TestYawPi:
    def test_zero_error_zero_command(self):
        u, _ = yaw_pi_step(PidGains(kp=2.0, ki=0.1), 0.0, PidState(), 0.01)
        assert u == 0.0

    def test_wraparound_equivalence(self):
        gains = PidGains(kp=2.0, ki=0.1)
        u_pos, _ = yaw_pi_step(gains, math.radians(359.0), PidState(), 0.01)
        u_neg, _ = yaw_pi_step(gains, math.radians(-1.0), PidState(), 0.01)
        assert u_pos == pytest.approx(u_neg, abs=1e-12)

    def test_step_reference_settles_within_a_degree(self):
        # closed-loop oracle: PI on an integrating joint tracking a 45 deg step
        gains = PidGains(kp=2.5, ki=0.2, output_limit=0.6, integral_limit=0.05)
        dt = 0.01
        target = math.radians(45.0)
        angle = 0.0
        state = PidState()
        for _ in range(800):
            rate, state = yaw_pi_step(gains, target - angle, state, dt)
            angle += rate * dt
        assert abs(math.degrees(target - angle)) < 1.0


class TestPurePursuit:
    def test_goal_on_straight_ground_segment(self):
        # oracle: circle-line intersection from (0, 0.5) with radius 1
        path = [(0.0, 0.0), (30.0, 0.0)]
        goal, phase = pure_pursuit_goal(path, (0.0, 0.5), 0.0, 1.0)
        assert goal[0] == pytest.approx(math.sqrt(0.75), abs=1e-9)
        assert goal[1] == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < phase < 1.0

    def test_on_path_goal_tracks_tangent(self):
        # small lookahead on the path: commanded direction approaches the tangent
        curve = tri_curve()
        pos = (4.0, 4.0 * 5.0 / 17.0)
        goal, _ = pure_pursuit_goal(curve, pos, 0.0, 0.1)
        v = pure_pursuit_velocity(pos, goal, 1.0)
        tangent = np.array([17.0, 5.0])
        tangent = tangent / np.linalg.norm(tangent)
        angle = math.degrees(math.acos(float(np.clip(v @ tangent, -1, 1))))
        assert angle < 2.0

    def test_endpoint_fallback(self):
        path = [(0.0, 0.0), (10.0, 0.0)]
        goal, phase = pure_pursuit_goal(path, (9.9, 0.0), 0.95, 5.0)
        assert tuple(goal) == (10.0, 0.0)
        assert phase == 1.0

    def test_goal_phase_never_runs_backwards(self):
        curve = tri_curve()
        goal1, phase1 = pure_pursuit_goal(curve, (10.0, 2.9), 0.5, 2.0)
        assert phase1 >= 0.5

    def test_velocity_is_scaled_unit_vector(self):
        v = pure_pursuit_velocity((0.0, 0.5), (0.866, 0.0), 1.0)
        assert v[0] == pytest.approx(0.866, abs=1e-3)
        assert v[1] == pytest.approx(-0.5, abs=1e-3)
        v2 = pure_pursuit_velocity((0.0, 0.5), (0.866, 0.0), 2.0)
        np.testing.assert_allclose(v2, 2.0 * v, atol=1e-12)

    def test_goal_equal_to_current_gives_zero(self):
        v = pure_pursuit_velocity((1.0, 1.0), (1.0, 1.0), 3.0)
        assert np.all(v == 0.0)

    def test_rejects_bad_speed_and_lookahead(self):
        with pytest.raises(ValidationError):
            pure_pursuit_velocity((0, 0), (1, 0), 0.0)
        with pytest.raises(ValidationError):
            pure_pursuit_goal([(0, 0), (1, 0)], (0, 0), 0.0, 0.0)


class TestEnvelopeSpeed:
    def test_axis_aligned_directions(self):
        assert envelope_speed(np.array([1.0, 0.0]), 34.0, 10.0) == 34.0
        assert envelope_speed(np.array([0.0, -1.0]), 34.0, 10.0) == 10.0

    def test_diagonal_binds_the_tighter_axis(self):
        v = envelope_speed(np.array([1.0, 1.0]), 34.0, 10.0)
        assert v == pytest.approx(10.0 * math.sqrt(2.0), rel=1e-12)


class TestConvergenceRegression:
    def test_cross_track_error_decays_within_lookahead_budget(self):
        # pursuit + position trim + speed loop from the stock configuration:
        # a 2 cm offset must fall below 0.1 cm within 1.5 lookaheads of travel,
        # monotonically after the first tick
        lookahead = 3.0
        pd = PidGains(kp=6.0, kd=0.0, output_limit=25.0)
        speed_ref = 10.0
        dt = 0.01
        path = [(0.0, 0.0), (60.0, 0.0)]
        pos = np.array([0.0, 2.0])
        prev_err = 0.0
        travelled = 0.0
        errors = [2.0]
        hint = 0.0
        while travelled <= 1.5 * lookahead and pos[0] < 50.0:
            goal, phase = pure_pursuit_goal(path, tuple(pos), hint, lookahead)
            hint = max(hint, phase)
            v = pure_pursuit_velocity(tuple(pos), goal, speed_ref)
            cross = -pos[1]
            v[1] += pd_step(pd, cross, prev_err, dt)
            prev_err = cross
            v[1] = max(-10.0, min(10.0, v[1]))  # vertical axis cap
            step = v * dt
            pos = pos + step
            travelled += float(np.hypot(*step))
            errors.append(abs(float(pos[1])))
        assert errors[-1] < 0.1
        tail = errors[1:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
