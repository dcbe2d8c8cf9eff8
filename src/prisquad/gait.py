"""Trot gait state machine, turn-in-place steering sequencer and
sensor-driven trajectory selection.

Walking is a sequence of strides.  In each stride one diagonal pair swings
along the active trajectory while the other pair, pinned to the ground,
drags its carriage backwards at the matched rate so the body advances by
half the swing span.  Between strides all four feet are grounded for a short
dwell while the carriages settle onto their exact step targets.

Turning happens in place in four phases, run from the six-step table
``STEER_STEPS``: lift one pair, rotate the steering joint so the free layer
turns, swap the grounded pair, rotate back.  Both rotations servo the
steering joint's angle with the yaw PI loop; the IMU yaw is recorded in the
trace but steers nothing, so a turn's length does not depend on IMU noise.
The net effect is a body heading change with the steering joint returned to
zero and the feet back where they started.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .control import (
    PidGains,
    PidState,
    envelope_speed,
    pd_step,
    pure_pursuit_goal,
    pure_pursuit_velocity,
    pid_step,
    yaw_pi_step,
)
from .model import (
    PAIR_AC,
    PAIR_BD,
    JointState,
    RobotGeometry,
    TrajectoryKind,
    TrajectorySpec,
    ValidationError,
)
from .trajectory import (
    DEFAULT_DWELL_S,
    SLIDE_SPEED_CAP,
    STEER_SPEED_CAP,
    VERT_SPEED_CAP,
    SegmentQueryError,
    StepPlan,
    TrajectoryCurve,
    make_trajectory,
    plan_straight_walk,
    preset,
)


class GaitPhase(str, Enum):
    IDLE = "idle"
    SWING_AC = "swing_ac"
    SWING_BD = "swing_bd"
    STEER_1 = "steer_1"  # ground AC, lift BD
    STEER_2 = "steer_2"  # rotate steering joint, upper layer turns
    STEER_3 = "steer_3"  # swap: ground BD, lift AC
    STEER_4 = "steer_4"  # rotate back, lower layer realigns
    HALT = "halt"


PAIR_BY_NAME = {"AC": PAIR_AC, "BD": PAIR_BD}

# default selector thresholds: obstacle trigger range and body tilt
TRIGGER_RANGE_CM = 25.0
TILT_THRESHOLD_DEG = 3.0

# The turn in place, one row per step: phase, pinned pair, action, argument.
# ``lift`` raises the argument's pair to the lift height and ``lower`` sets it
# down until both feet touch.  ``rotate`` servos the steering joint to the
# argument times the turn angle: the free layer turns, then the grounded upper
# layer holds the heading while the lower layer realigns underneath it.
STEER_STEPS = (
    (GaitPhase.STEER_1, PAIR_AC, "lift", PAIR_BD),
    (GaitPhase.STEER_2, PAIR_AC, "rotate", 1.0),
    (GaitPhase.STEER_3, PAIR_AC, "lower", PAIR_BD),
    (GaitPhase.STEER_3, PAIR_BD, "lift", PAIR_AC),
    (GaitPhase.STEER_4, PAIR_BD, "rotate", 0.0),
    (GaitPhase.STEER_4, PAIR_BD, "lower", PAIR_AC),
)


@dataclass(frozen=True)
class ObstacleSighting:
    kind: str  # "block" or "rope"
    height: float
    range_cm: float


@dataclass
class SensorSummary:
    """Digested sensor inputs consumed by the gait logic."""

    body_pitch: float = 0.0
    obstacle: ObstacleSighting | None = None
    foot_contact: tuple[bool, bool, bool, bool] = (True, True, True, True)
    limit_low: tuple[bool, ...] = (False,) * 7
    limit_high: tuple[bool, ...] = (False,) * 7


@dataclass
class AxisCommands:
    """Velocity commands for the 7 axes (cm/s, steer in rad/s)."""

    slide_lower: float = 0.0
    slide_upper: float = 0.0
    vert: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0, 0.0])
    steer: float = 0.0


@dataclass
class GaitConfig:
    lookahead_cm: float = 3.0
    pd_position: PidGains = field(
        default_factory=lambda: PidGains(kp=6.0, kd=0.0, output_limit=25.0)
    )
    pid_velocity: PidGains = field(
        default_factory=lambda: PidGains(kp=0.4, ki=3.0, kd=0.0, output_limit=8.0, integral_limit=4.0)
    )
    # tight integral clamp: the joint is an integrator already, so windup
    # during the rate-limited approach must stay negligible
    yaw_pi: PidGains = field(
        default_factory=lambda: PidGains(kp=2.5, ki=0.2, output_limit=0.6, integral_limit=0.05)
    )
    slide_speed_cap: float = SLIDE_SPEED_CAP
    vert_speed_cap: float = VERT_SPEED_CAP
    steer_speed_cap: float = STEER_SPEED_CAP
    speed_scale: float = 1.0
    adaptive: bool = True
    trigger_range_cm: float = TRIGGER_RANGE_CM
    tilt_threshold_deg: float = TILT_THRESHOLD_DEG
    switch_hysteresis_ticks: int = 2
    steer_lift_cm: float = 3.0
    steer_tol_rad: float = 0.002
    position_tol_cm: float = 0.05
    settle_tol_cm: float = 0.01


@dataclass
class GaitState:
    """Full mutable gait state: FSM phase plus per-stride tracking context."""

    active_spec: TrajectorySpec
    phase: GaitPhase = GaitPhase.IDLE
    step_index: int = 0
    plan: list[StepPlan] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    halt_reason: str | None = None
    pinned_pair: tuple[int, int] = PAIR_AC

    # stride context
    curve: TrajectoryCurve | None = None
    swing_pair: tuple[int, int] = PAIR_AC
    u_sw0: float = 0.0
    u_st0: float = 0.0
    u_sw_target: float = 0.0
    u_st_target: float = 0.0
    d_start: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0, 0.0])
    phase_hint: float = 0.0
    landing: bool = False
    in_dwell: bool = False
    dwell_remaining: float = 0.0

    # controller memories
    prev_joints: JointState | None = None
    pd_prev_x: float = 0.0
    pd_prev_y: dict = field(default_factory=dict)
    vel_pid: dict = field(default_factory=dict)
    yaw_state: PidState = field(default_factory=PidState)
    # latest shape-lookup errors per swing leg, for the trace
    last_errors: dict = field(default_factory=dict)

    # trajectory selection
    pending_spec: TrajectorySpec | None = None
    streak_key: str | None = None
    streak_count: int = 0

    # steering context
    steer_theta: float = 0.0
    steer_stage: int = 0  # row of STEER_STEPS


def select_trajectory(
    summary: SensorSummary,
    current: TrajectorySpec,
    geom: RobotGeometry | None = None,
    trigger_range_cm: float = TRIGGER_RANGE_CM,
    tilt_threshold_deg: float = TILT_THRESHOLD_DEG,
) -> TrajectorySpec | None:
    """Recommend a swing trajectory for the sensed conditions.

    Priority: a block within trigger range picks the tall rectangular shape
    if it is climbable and recommends a halt (None) if it exceeds the
    vertical travel; ropes pick rectangular-1 above 5 cm and rectangular-2 at
    or below; a tilted body beyond the threshold picks the tilted circular
    shape matched to the pitch; flat clear ground walks triangular.  A
    triangular ``current``, or a tilted one at this pitch, is returned as is.
    """
    geom = geom or RobotGeometry()
    obstacle = summary.obstacle
    if obstacle is not None and obstacle.range_cm <= trigger_range_cm:
        if obstacle.kind == "block":
            if obstacle.height > geom.vertical_travel_max:
                return None
            return preset(TrajectoryKind.RECT1)
        if obstacle.kind == "rope":
            if obstacle.height > 5.0:
                return preset(TrajectoryKind.RECT1)
            return preset(TrajectoryKind.RECT2)
    if abs(summary.body_pitch) >= math.radians(tilt_threshold_deg):
        if current.kind is TrajectoryKind.TILTED_CIRCULAR and current.tilt == summary.body_pitch:
            return current
        return preset(TrajectoryKind.TILTED_CIRCULAR, tilt=summary.body_pitch)
    if current.kind is not TrajectoryKind.TRIANGULAR:
        return preset(TrajectoryKind.TRIANGULAR)
    return current


class GaitExecutor:
    """Owns the gait configuration and advances a :class:`GaitState` per tick."""

    def __init__(
        self,
        geom: RobotGeometry | None = None,
        config: GaitConfig | None = None,
    ):
        self.geom = geom or RobotGeometry()
        self.config = config or GaitConfig()
        self._mid = self.geom.slide_travel_max / 2.0

    # -- mission entry points -------------------------------------------------

    def new_state(self, spec: TrajectorySpec | None = None) -> GaitState:
        return GaitState(active_spec=spec or preset(TrajectoryKind.TRIANGULAR))

    def start_walk(
        self, state: GaitState, distance: float, spec: TrajectorySpec | None = None
    ) -> None:
        if state.phase not in (GaitPhase.IDLE, GaitPhase.HALT):
            raise ValidationError("walk can only start from idle")
        if spec is not None:
            state.active_spec = spec
        state.plan = plan_straight_walk(distance, state.active_spec)
        state.step_index = 0

    def start_turn(self, state: GaitState, theta: float) -> None:
        """Begin a turn in place by ``theta``; a zero angle does nothing."""
        if state.phase is not GaitPhase.IDLE:
            raise ValidationError("turning requires the gait to be idle")
        limit = self.geom.steer_travel_max
        if abs(theta) > limit:
            raise ValidationError(f"turn angle {theta:g} exceeds steering travel {limit:g}")
        if theta == 0.0:
            return
        state.steer_theta = theta
        state.phase = GaitPhase.STEER_1
        state.steer_stage = 0
        state.events.append({"type": "turn_start", "theta_deg": math.degrees(theta)})

    # -- helpers ---------------------------------------------------------------

    def _u(self, joints: JointState, pair: tuple[int, int]) -> float:
        return joints.slide_for_pair(pair) - self._mid

    def _servo(self, err: float, cap: float, dt: float) -> float:
        """Velocity that closes a position error in one tick, capped."""
        return max(-cap, min(cap, err / dt))

    def _touched_down(self, contact, joints: JointState, leg: int) -> bool:
        """A landing leg is down when it touches terrain or runs out of reach;
        a fully extended hovering foot takes weight at the next stance swap."""
        return contact[leg] or joints.d_vert[leg] <= 0.06

    def _begin_stride(self, state: GaitState, joints: JointState) -> None:
        if state.pending_spec is not None:
            state.active_spec = state.pending_spec
            state.pending_spec = None
        step = state.plan[state.step_index]
        swing = PAIR_BY_NAME[step.swing_pair]
        stance = PAIR_BD if swing == PAIR_AC else PAIR_AC
        span = step.stride_span_cm
        spec = replace(state.active_spec, stride_L=span)
        state.curve = make_trajectory(spec, self.geom)
        state.swing_pair = swing
        state.pinned_pair = stance
        state.u_sw0 = self._u(joints, swing)
        state.u_st0 = self._u(joints, stance)
        state.u_sw_target = state.u_sw0 + step.advance_cm
        state.u_st_target = state.u_st0 - step.advance_cm
        state.d_start = list(joints.d_vert)
        state.phase_hint = 0.0
        state.landing = False
        state.in_dwell = False
        state.pd_prev_x = 0.0
        state.pd_prev_y = {leg: 0.0 for leg in swing}
        state.phase = GaitPhase.SWING_AC if swing == PAIR_AC else GaitPhase.SWING_BD
        state.events.append(
            {
                "type": "step_start",
                "index": state.step_index,
                "pair": step.swing_pair,
                "span_cm": span,
                "trajectory": state.active_spec.kind.value,
                "tilt_rad": state.active_spec.tilt,
            }
        )

    def _update_selector(self, state: GaitState, summary: SensorSummary) -> None:
        cfg = self.config
        if not cfg.adaptive:
            return
        # the spec the next stride will use; the selector keeps it when it
        # still fits, so a steady slope builds no new tilted spec per tick
        target = state.pending_spec or state.active_spec
        recommended = select_trajectory(
            summary,
            target,
            self.geom,
            trigger_range_cm=cfg.trigger_range_cm,
            tilt_threshold_deg=cfg.tilt_threshold_deg,
        )
        key = "halt" if recommended is None else recommended.kind.value
        if key == state.streak_key:
            state.streak_count += 1
        else:
            state.streak_key = key
            state.streak_count = 1
        if state.streak_count < cfg.switch_hysteresis_ticks:
            return
        if key == "halt":  # the engine records the halt and its event
            state.phase = GaitPhase.HALT
            state.halt_reason = "infeasible obstacle"
            return
        if recommended.kind is not target.kind:
            state.events.append(
                {
                    "type": "trajectory_switch",
                    "from": target.kind.value,
                    "to": recommended.kind.value,
                }
            )
            state.pending_spec = recommended
        elif (
            recommended.kind is TrajectoryKind.TILTED_CIRCULAR
            and abs(recommended.tilt - target.tilt) > math.radians(0.5)
        ):
            # track the slope without logging a switch
            state.pending_spec = recommended

    def _shape_errors(self, state: GaitState, pos: tuple[float, float]) -> tuple[float, float]:
        """Best-effort per-axis trajectory errors at the current goal segment."""
        curve = state.curve
        tilt = curve.tilt
        if tilt != 0.0:
            c, s = math.cos(-tilt), math.sin(-tilt)
            qx = c * pos[0] - s * pos[1]
            qy = s * pos[0] + c * pos[1]
        else:
            qx, qy = pos
        seg = self._segment_at_phase(curve, state.phase_hint)
        ex = ey = 0.0
        try:
            ex = seg.x_at_y(qy) - qx
        except SegmentQueryError:
            pass
        try:
            ey = seg.y_at_x(qx) - qy
        except SegmentQueryError:
            pass
        if tilt != 0.0:
            c, s = math.cos(tilt), math.sin(tilt)
            return (c * ex - s * ey, s * ex + c * ey)
        return (ex, ey)

    @staticmethod
    def _segment_at_phase(curve: TrajectoryCurve, phase: float):
        """Analytic segment under a swing phase (sample indices map evenly)."""
        segments = curve.swing_segments
        n = len(curve.swing_xy)
        per = (n - 1) / len(segments)
        idx = min(int(min(max(phase, 0.0), 1.0) * (n - 1)), n - 2)
        return segments[min(int(idx / per), len(segments) - 1)]

    def _vel_pid(self, state: GaitState, axis: str, v_des: float, v_meas: float, dt: float) -> float:
        """Feedforward plus PID trim on a measured axis velocity."""
        st = state.vel_pid.get(axis, PidState())
        trim, st = pid_step(self.config.pid_velocity, v_des - v_meas, st, dt)
        state.vel_pid[axis] = st
        return v_des + trim

    # -- tick ------------------------------------------------------------------

    def gait_tick(
        self,
        state: GaitState,
        sensors: SensorSummary,
        joints: JointState,
        dt: float,
    ) -> tuple[AxisCommands, GaitState]:
        """Advance the gait by one tick and emit axis velocity commands."""
        if dt <= 0:
            raise ValidationError("dt must be > 0")
        cfg = self.config
        cmd = AxisCommands()
        prev = state.prev_joints

        if state.phase is GaitPhase.HALT:
            state.prev_joints = joints.copy()
            return cmd, state

        if state.phase is GaitPhase.IDLE:
            if state.plan and state.step_index < len(state.plan):
                self._begin_stride(state, joints)
            else:
                state.prev_joints = joints.copy()
                return cmd, state

        if state.phase in (GaitPhase.SWING_AC, GaitPhase.SWING_BD):
            self._update_selector(state, sensors)
            if state.phase is GaitPhase.HALT:
                state.prev_joints = joints.copy()
                return cmd, state
            self._walk_tick(state, sensors, joints, dt, prev, cmd)
        else:  # a steering phase
            self._steer_tick(state, sensors, joints, dt, cmd)

        self._apply_limit_overrides(sensors, cmd)
        self._clamp(cmd)
        state.prev_joints = joints.copy()
        return cmd, state

    # -- walking ---------------------------------------------------------------

    def _walk_tick(self, state, sensors, joints, dt, prev, cmd) -> None:
        cfg = self.config
        swing = state.swing_pair
        stance = state.pinned_pair
        u_sw = self._u(joints, swing)
        u_st = self._u(joints, stance)

        if state.in_dwell:
            # all four feet down; settle carriages exactly onto the step targets
            state.last_errors = {}
            cmd_sw = self._servo(state.u_sw_target - u_sw, cfg.slide_speed_cap, dt)
            cmd_st = self._servo(state.u_st_target - u_st, cfg.slide_speed_cap, dt)
            self._set_slides(cmd, swing, cmd_sw, stance, cmd_st)
            state.dwell_remaining -= dt
            settled = (
                abs(state.u_sw_target - u_sw) <= cfg.settle_tol_cm
                and abs(state.u_st_target - u_st) <= cfg.settle_tol_cm
            )
            if state.dwell_remaining <= 0.0 and settled:
                state.in_dwell = False
                if state.step_index < len(state.plan):
                    self._begin_stride(state, joints)
                else:
                    state.plan = []
                    state.phase = GaitPhase.IDLE
                    state.events.append({"type": "walk_complete"})
            return

        span = state.plan[state.step_index].stride_span_cm
        x_rel = (u_sw - state.u_sw0) + (state.u_st0 - u_st)
        y_rel = {leg: joints.d_vert[leg] - state.d_start[leg] for leg in swing}
        # the higher foot drives the pursuit; each leg still tracks the curve
        # height with its own vertical axis
        y_lead = max(y_rel.values())
        pos = (x_rel, y_lead)

        contact = sensors.foot_contact
        if not state.landing:
            goal, gphase = pure_pursuit_goal(state.curve, pos, state.phase_hint, cfg.lookahead_cm)
            state.phase_hint = max(state.phase_hint, gphase)
            ceiling = max(joints.d_vert[leg] for leg in swing) >= self.geom.vertical_travel_max - 0.06
            if ceiling and goal[1] > y_lead:
                # the curve is vertically out of reach; march the goal forward
                # so the stride continues under the travel ceiling
                march = 2.0 * cfg.slide_speed_cap * dt / max(state.curve.swing_arc_length, 1e-6)
                state.phase_hint = min(1.0, state.phase_hint + march)
                goal, gphase = pure_pursuit_goal(
                    state.curve, pos, state.phase_hint, cfg.lookahead_cm
                )
                state.phase_hint = max(state.phase_hint, gphase)
            # the stride ends in a landing descent once x progress is done
            # (feet may sit above or below the curve endpoint on terrain
            # steps, so endpoint proximity alone cannot be required)
            near_end = (
                state.phase_hint >= 1.0 - 1e-9
                and x_rel >= span - max(cfg.lookahead_cm, 2.0 * cfg.position_tol_cm)
            )
            # feet stopped by ground contact late in the stride end it early
            # (raised landings never reach the curve's zero-height endpoint)
            grounded_early = (
                all(self._touched_down(contact, joints, leg) for leg in swing)
                and x_rel >= span / 2.0
            )
            # a foot on terrain with only the endpoint left to chase means the
            # shape cannot be tracked further; shape trims would otherwise
            # fight the pursuit to a standoff short of the landing window
            wedged = state.phase_hint >= 1.0 - 1e-9 and any(contact[leg] for leg in swing)
            if near_end or grounded_early or wedged:
                state.landing = True

        self._climb_pump(state, sensors, joints, dt, cmd)
        if state.landing:
            # home the carriages onto the stride targets and descend to contact
            cmd_sw = self._servo(state.u_sw_target - u_sw, cfg.slide_speed_cap, dt)
            cmd_st = self._servo(state.u_st_target - u_st, cfg.slide_speed_cap, dt)
            self._set_slides(cmd, swing, cmd_sw, stance, cmd_st)
            for leg in swing:
                if not self._touched_down(contact, joints, leg):
                    cmd.vert[leg] = -cfg.vert_speed_cap
            done = (
                all(self._touched_down(contact, joints, leg) for leg in swing)
                and abs(state.u_sw_target - u_sw) <= cfg.position_tol_cm
                and abs(state.u_st_target - u_st) <= cfg.position_tol_cm
            )
            if done:
                state.step_index += 1
                state.in_dwell = True
                state.dwell_remaining = DEFAULT_DWELL_S[state.active_spec.kind]
                state.events.append({"type": "step_complete", "index": state.step_index - 1})
            return

        # pure pursuit along the swing curve at the per-axis speed envelope
        direction = (goal[0] - pos[0], goal[1] - pos[1])
        speed = envelope_speed(direction, 2.0 * cfg.slide_speed_cap, cfg.vert_speed_cap)
        speed *= cfg.speed_scale
        if speed > 0.0:
            vx_ref, vy_ref = pure_pursuit_velocity(pos, goal, speed).tolist()
        else:
            vx_ref = vy_ref = 0.0
        ex, _ = self._shape_errors(state, pos)
        trim_x = pd_step(cfg.pd_position, ex, state.pd_prev_x, dt)
        state.pd_prev_x = ex
        vx = vx_ref + trim_x

        # split the ground-frame x rate between the two carriages; the stance
        # carriage carries a sync trim so the body advances by exactly half
        u_st_ref = state.u_st0 - x_rel / 2.0
        sync = cfg.pd_position.kp * (u_st_ref - u_st)
        v_sw_des = vx / 2.0
        v_st_des = -vx / 2.0 + sync

        if prev is not None:
            v_sw_meas = (self._u(joints, swing) - self._u(prev, swing)) / dt
            v_st_meas = (self._u(joints, stance) - self._u(prev, stance)) / dt
        else:
            v_sw_meas = v_st_meas = 0.0
        v_sw = self._vel_pid(state, "slide_swing", v_sw_des, v_sw_meas, dt)
        v_st = self._vel_pid(state, "slide_stance", v_st_des, v_st_meas, dt)
        self._set_slides(cmd, swing, v_sw, stance, v_st)

        state.last_errors = {}
        for leg in swing:
            _, ey = self._shape_errors(state, (x_rel, y_rel[leg]))
            state.last_errors[leg] = (ex, ey)
            trim_y = pd_step(cfg.pd_position, ey, state.pd_prev_y.get(leg, 0.0), dt)
            state.pd_prev_y[leg] = ey
            vy = vy_ref + trim_y
            if prev is not None:
                v_meas = (joints.d_vert[leg] - prev.d_vert[leg]) / dt
            else:
                v_meas = 0.0
            v_leg = self._vel_pid(state, f"vert_{leg}", vy, v_meas, dt)
            if contact[leg] and v_leg < 0.0:
                v_leg = 0.0
            cmd.vert[leg] = v_leg

    def _set_slides(self, cmd, swing_pair, v_swing, stance_pair, v_stance) -> None:
        if swing_pair == PAIR_AC:
            cmd.slide_lower = v_swing
            cmd.slide_upper = v_stance
        else:
            cmd.slide_upper = v_swing
            cmd.slide_lower = v_stance

    def _climb_pump(
        self, state: GaitState, sensors: SensorSummary, joints: JointState, dt: float, cmd
    ) -> None:
        """Restore vertical travel on slopes while a pair swings.

        Climbing leaves every landed foot retracted, so on a sustained
        nose-up pitch both stance legs extend at the same rate (the body
        rises without pitching further); descending does the opposite to bank
        reach for the next step down.  The rate is limited by the leg with
        the least room, which makes the pump a no-op on flat ground and keeps
        a block-climbing stance level.
        """
        if abs(sensors.body_pitch) < math.radians(self.config.tilt_threshold_deg):
            return
        stance = state.pinned_pair
        if sensors.body_pitch > 0:
            room = min(joints.d_vert[leg] for leg in stance)
            direction = -1.0
        else:
            travel = self.geom.vertical_travel_max - 0.5
            room = min(travel - joints.d_vert[leg] for leg in stance)
            direction = 1.0
        if room <= 1e-6:
            return
        v = direction * min(self.config.vert_speed_cap, room / dt)
        for leg in stance:
            cmd.vert[leg] = v

    # -- steering ----------------------------------------------------------------

    def _steer_tick(self, state, sensors, joints, dt, cmd) -> None:
        """Run the current row of ``STEER_STEPS``; a finished row hands over to the next."""
        cfg = self.config
        _phase, pinned, action, arg = STEER_STEPS[state.steer_stage]
        state.pinned_pair = pinned
        if action == "rotate":
            error = arg * state.steer_theta - joints.steer_alpha
            cmd.steer, state.yaw_state = yaw_pi_step(cfg.yaw_pi, error, state.yaw_state, dt)
            # a joint parked on its end-of-travel switch can get no closer
            parked = (error > 0 and sensors.limit_high[6]) or (error < 0 and sensors.limit_low[6])
            done = abs(error) <= cfg.steer_tol_rad or parked
        elif action == "lift":
            lift = cfg.steer_lift_cm
            done = True
            for leg in arg:
                if joints.d_vert[leg] < lift - cfg.settle_tol_cm:
                    cmd.vert[leg] = self._servo(lift - joints.d_vert[leg], cfg.vert_speed_cap, dt)
                    done = False
        else:  # lower until both feet touch
            contact = sensors.foot_contact
            done = all(contact[leg] for leg in arg)
            for leg in arg:
                if not contact[leg]:
                    cmd.vert[leg] = -cfg.vert_speed_cap
        if not done:
            return
        state.steer_stage += 1
        state.yaw_state = PidState()
        if state.steer_stage < len(STEER_STEPS):
            state.phase = STEER_STEPS[state.steer_stage][0]
            return
        state.steer_stage = 0
        state.phase = GaitPhase.IDLE
        state.events.append({"type": "turn_complete", "theta_deg": math.degrees(state.steer_theta)})

    # -- safety overrides ---------------------------------------------------------

    def _apply_limit_overrides(self, sensors: SensorSummary, cmd: AxisCommands) -> None:
        """End-of-travel switches dominate every controller on the same axis."""
        low, high = sensors.limit_low, sensors.limit_high
        if low[0] and cmd.slide_lower < 0 or high[0] and cmd.slide_lower > 0:
            cmd.slide_lower = 0.0
        if low[1] and cmd.slide_upper < 0 or high[1] and cmd.slide_upper > 0:
            cmd.slide_upper = 0.0
        for i in range(4):
            if low[2 + i] and cmd.vert[i] < 0 or high[2 + i] and cmd.vert[i] > 0:
                cmd.vert[i] = 0.0
        if low[6] and cmd.steer < 0 or high[6] and cmd.steer > 0:
            cmd.steer = 0.0

    def _clamp(self, cmd: AxisCommands) -> None:
        """The one clamp of every axis command to the speed caps."""
        cap_s = self.config.slide_speed_cap
        cap_v = self.config.vert_speed_cap
        cmd.slide_lower = max(-cap_s, min(cap_s, cmd.slide_lower))
        cmd.slide_upper = max(-cap_s, min(cap_s, cmd.slide_upper))
        cmd.vert = [max(-cap_v, min(cap_v, v)) for v in cmd.vert]
        cmd.steer = max(-self.config.steer_speed_cap, min(self.config.steer_speed_cap, cmd.steer))
