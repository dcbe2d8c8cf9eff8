"""Gait state machine, steering sequencer and trajectory selection."""

import math

import pytest

from prisquad.gait import (
    GaitExecutor,
    GaitPhase,
    ObstacleSighting,
    SensorSummary,
    select_trajectory,
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

    def test_out_of_range_turn_rejected(self):
        with pytest.raises(ValidationError):
            self.executor.start_turn(self.executor.new_state(), math.radians(95.0))

    def test_zero_angle_turn_does_nothing(self):
        state = self.executor.new_state()
        self.executor.start_turn(state, 0.0)
        assert state.phase is GaitPhase.IDLE
        assert state.events == []

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
