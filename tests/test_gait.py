"""Gait state machine, steering sequencer and trajectory selection."""

import math

import pytest
from hypothesis import given, strategies as st

from prisquad.gait import (
    GaitExecutor,
    GaitPhase,
    InfeasibleClimb,
    ObstacleSighting,
    SensorSummary,
    climb_adjust,
    select_trajectory,
    steer_in_place,
)
from prisquad.model import (
    PAIR_AC,
    RobotGeometry,
    TrajectoryKind,
    ValidationError,
    standing_state,
)
from prisquad.trajectory import preset


def clear_summary(**kwargs):
    return SensorSummary(**kwargs)


class TestSelectTrajectory:
    def test_flat_clear_ground_walks_triangular(self):
        out = select_trajectory(clear_summary(), preset("rect1"))
        assert out.kind is TrajectoryKind.TRIANGULAR

    def test_flat_clear_keeps_current_triangular(self):
        current = preset("triangular")
        assert select_trajectory(clear_summary(), current) is current

    def test_climbable_block_picks_tall_rectangle(self):
        summary = clear_summary(obstacle=ObstacleSighting("block", 10.0, 20.0))
        out = select_trajectory(summary, preset("triangular"))
        assert out.kind is TrajectoryKind.RECT1
        assert out.stride_L == 34.0 and out.stride_H == 13.0

    def test_block_beyond_vertical_travel_recommends_halt(self):
        summary = clear_summary(obstacle=ObstacleSighting("block", 14.0, 20.0))
        assert select_trajectory(summary, preset("triangular")) is None

    def test_block_outside_trigger_range_ignored(self):
        summary = clear_summary(obstacle=ObstacleSighting("block", 10.0, 26.0))
        out = select_trajectory(summary, preset("triangular"))
        assert out.kind is TrajectoryKind.TRIANGULAR

    def test_tall_rope_picks_rect1_low_rope_rect2(self):
        tall = clear_summary(obstacle=ObstacleSighting("rope", 8.0, 20.0))
        low = clear_summary(obstacle=ObstacleSighting("rope", 5.0, 20.0))
        assert select_trajectory(tall, preset("triangular")).kind is TrajectoryKind.RECT1
        assert select_trajectory(low, preset("triangular")).kind is TrajectoryKind.RECT2

    def test_pitch_picks_tilted_circular_matched_to_slope(self):
        pitch = math.radians(15.0)
        out = select_trajectory(clear_summary(body_pitch=pitch), preset("triangular"))
        assert out.kind is TrajectoryKind.TILTED_CIRCULAR
        assert out.tilt == pytest.approx(pitch)

    def test_tilted_current_is_kept_for_its_own_pitch(self):
        # no new spec (and no timing curve) is built while the slope holds
        current = preset("tilted_circular", tilt=math.radians(15.0))
        assert select_trajectory(clear_summary(body_pitch=current.tilt), current) is current
        out = select_trajectory(clear_summary(body_pitch=math.radians(20.0)), current)
        assert out.tilt == math.radians(20.0)

    def test_pitch_below_threshold_ignored(self):
        out = select_trajectory(
            clear_summary(body_pitch=math.radians(2.0)), preset("triangular")
        )
        assert out.kind is TrajectoryKind.TRIANGULAR

    def test_obstacle_outranks_pitch(self):
        summary = clear_summary(
            body_pitch=math.radians(10.0),
            obstacle=ObstacleSighting("block", 8.0, 15.0),
        )
        assert select_trajectory(summary, preset("triangular")).kind is TrajectoryKind.RECT1


class TestSteerInPlace:
    def test_zero_angle_needs_no_phases(self):
        assert steer_in_place(0.0) == []

    def test_four_phase_sequence(self):
        theta = math.radians(45.0)
        seq = steer_in_place(theta)
        assert [name for name, _ in seq] == [
            "ground_ac_lift_bd",
            "rotate",
            "ground_bd_lift_ac",
            "rotate",
        ]
        assert seq[1][1] == pytest.approx(theta)
        assert seq[3][1] == pytest.approx(-theta)

    def test_negative_angle_mirrors(self):
        pos = steer_in_place(math.radians(30.0))
        neg = steer_in_place(math.radians(-30.0))
        assert [n for n, _ in pos] == [n for n, _ in neg]
        for (_, a), (_, b) in zip(pos, neg):
            assert b == pytest.approx(-a)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            steer_in_place(math.radians(95.0))


class TestClimbAdjust:
    def test_flat_supports_need_no_offsets(self):
        assert climb_adjust((0.0, 0.0, 0.0, 0.0)) == [0.0, 0.0, 0.0, 0.0]

    def test_front_feet_on_block(self):
        # oracle: height difference between supports maps 1:1 onto retraction
        offsets = climb_adjust((10.0, 10.0, 0.0, 0.0))
        assert offsets == [10.0, 10.0, 0.0, 0.0]

    def test_unreachable_step_signals_infeasible(self):
        with pytest.raises(InfeasibleClimb):
            climb_adjust((14.0, 0.0, 0.0, 0.0))

    @given(st.lists(st.floats(0.0, 13.0), min_size=4, max_size=4))
    def test_offsets_are_relative_to_lowest_support(self, heights):
        offsets = climb_adjust(tuple(heights))
        assert min(offsets) == 0.0
        assert all(o >= 0.0 for o in offsets)


class TestGaitFsm:
    def setup_method(self):
        self.geom = RobotGeometry()
        self.executor = GaitExecutor(self.geom)
        self.executor.config.adaptive = False

    def idle_inputs(self):
        joints = standing_state(self.geom)
        summary = SensorSummary()
        return summary, joints

    def test_idle_stays_idle_without_a_plan(self):
        state = self.executor.new_state()
        summary, joints = self.idle_inputs()
        cmd, state = self.executor.gait_tick(state, summary, joints, 0.01)
        assert state.phase is GaitPhase.IDLE
        assert cmd.slide_lower == 0.0 and cmd.slide_upper == 0.0

    def test_idle_with_plan_starts_first_swing(self):
        state = self.executor.new_state()
        self.executor.start_walk(state, 50.0)
        summary, joints = self.idle_inputs()
        _, state = self.executor.gait_tick(state, summary, joints, 0.01)
        assert state.phase is GaitPhase.SWING_AC
        assert state.pinned_pair != PAIR_AC

    def test_walk_cannot_start_mid_stride(self):
        state = self.executor.new_state()
        self.executor.start_walk(state, 50.0)
        summary, joints = self.idle_inputs()
        _, state = self.executor.gait_tick(state, summary, joints, 0.01)
        with pytest.raises(ValidationError):
            self.executor.start_walk(state, 10.0)

    def test_turn_requires_idle(self):
        state = self.executor.new_state()
        self.executor.start_walk(state, 50.0)
        summary, joints = self.idle_inputs()
        _, state = self.executor.gait_tick(state, summary, joints, 0.01)
        with pytest.raises(ValidationError):
            self.executor.start_turn(state, 0.3)

    def test_limit_override_dominates_commands(self):
        state = self.executor.new_state()
        self.executor.start_walk(state, 50.0)
        joints = standing_state(self.geom)
        # pretend the swing slide already sits on its high stop
        summary = SensorSummary(limit_high=(True,) * 7, limit_low=(False,) * 7)
        cmd, state = self.executor.gait_tick(state, summary, joints, 0.01)
        assert cmd.slide_lower <= 0.0
        assert cmd.slide_upper <= 0.0
        assert all(v <= 0.0 for v in cmd.vert)

    def test_trajectory_switch_needs_two_consecutive_ticks(self):
        executor = GaitExecutor(self.geom)  # adaptive on
        state = executor.new_state()
        executor.start_walk(state, 50.0)
        joints = standing_state(self.geom)
        block = SensorSummary(obstacle=ObstacleSighting("block", 10.0, 20.0))
        clear = SensorSummary()
        # a one-tick sighting does not switch
        _, state = executor.gait_tick(state, block, joints, 0.01)
        _, state = executor.gait_tick(state, clear, joints, 0.01)
        assert state.pending_spec is None
        assert not [e for e in state.events if e["type"] == "trajectory_switch"]
        # two consecutive ticks do, logging exactly one switch event
        _, state = executor.gait_tick(state, block, joints, 0.01)
        _, state = executor.gait_tick(state, block, joints, 0.01)
        assert state.pending_spec is not None
        assert state.pending_spec.kind is TrajectoryKind.RECT1
        switches = [e for e in state.events if e["type"] == "trajectory_switch"]
        assert len(switches) == 1
        # further sighted ticks do not duplicate the event
        _, state = executor.gait_tick(state, block, joints, 0.01)
        switches = [e for e in state.events if e["type"] == "trajectory_switch"]
        assert len(switches) == 1

    def test_unclimbable_block_halts_after_hysteresis(self):
        executor = GaitExecutor(self.geom)
        state = executor.new_state()
        executor.start_walk(state, 50.0)
        joints = standing_state(self.geom)
        tall = SensorSummary(obstacle=ObstacleSighting("block", 14.0, 20.0))
        _, state = executor.gait_tick(state, tall, joints, 0.01)
        assert state.phase is not GaitPhase.HALT
        _, state = executor.gait_tick(state, tall, joints, 0.01)
        assert state.phase is GaitPhase.HALT
        assert state.halt_reason == "infeasible obstacle"
