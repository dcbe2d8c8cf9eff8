"""Inner control loops: PD position, PID velocity, PI yaw, and the
pure-pursuit tracker that turns a reference trajectory into foot velocity
commands.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import ValidationError, wrap_angle
from .trajectory import TrajectoryCurve


@dataclass(frozen=True)
class PidGains:
    """Gains and saturation limits of one loop (units per loop)."""

    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    output_limit: float = math.inf
    integral_limit: float = math.inf

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValidationError("gains must be >= 0")
        if self.output_limit <= 0 or self.integral_limit <= 0:
            raise ValidationError("limits must be > 0")


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0
    prev_error: float = 0.0


def _clamp(value: float, limit: float) -> float:
    return max(-limit, min(limit, value))


def pd_step(gains: PidGains, error: float, prev_error: float, dt: float) -> float:
    """One proportional-derivative update with a backward-difference derivative."""
    if dt <= 0:
        raise ValidationError("dt must be > 0")
    raw = gains.kp * error + gains.kd * (error - prev_error) / dt
    return _clamp(raw, gains.output_limit)


def pid_step(
    gains: PidGains, error: float, state: PidState, dt: float
) -> tuple[float, PidState]:
    """One parallel PID update.

    The integral accumulates error * dt and is clamped to the integral limit
    (anti-windup); the output is clamped to the output limit.  Returns the
    command and the successor state.
    """
    if dt <= 0:
        raise ValidationError("dt must be > 0")
    integral = _clamp(state.integral + error * dt, gains.integral_limit)
    raw = (
        gains.kp * error
        + gains.ki * integral
        + gains.kd * (error - state.prev_error) / dt
    )
    return _clamp(raw, gains.output_limit), PidState(integral=integral, prev_error=error)


def yaw_pi_step(
    gains: PidGains, yaw_error: float, state: PidState, dt: float
) -> tuple[float, PidState]:
    """PI step for the steering loop with wrap-aware error handling."""
    error = wrap_angle(yaw_error)
    if dt <= 0:
        raise ValidationError("dt must be > 0")
    integral = _clamp(state.integral + error * dt, gains.integral_limit)
    raw = gains.kp * error + gains.ki * integral
    return _clamp(raw, gains.output_limit), PidState(integral=integral, prev_error=error)


def _float_polyline(reference) -> tuple[Sequence[tuple[float, float]], Sequence[float]]:
    """A path's points and cumulative arc lengths as Python floats: the views a
    curve built once, or those of a point sequence."""
    if isinstance(reference, TrajectoryCurve):
        return reference.swing_xy, reference.swing_cumlen
    path = [(float(x), float(y)) for x, y in reference]
    cumlen = [0.0]
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        cumlen.append(cumlen[-1] + math.hypot(bx - ax, by - ay))
    return path, cumlen


def pure_pursuit_goal(
    reference,
    current: tuple[float, float],
    phase_hint: float,
    lookahead: float,
) -> tuple[tuple[float, float], float]:
    """Goal point a fixed distance ahead on the reference path.

    Walks the path polyline forward from ``phase_hint`` (a fraction of total
    path length) and returns the first point whose distance from ``current``
    equals ``lookahead``, found by circle-segment intersection.  If the
    remaining path lies entirely within the lookahead circle the path end
    point is returned.  The result is ``(goal_xy, goal_phase)``, with the goal
    a float tuple.
    """
    if lookahead <= 0:
        raise ValidationError("lookahead must be > 0")
    path, cumlen = _float_polyline(reference)
    total = cumlen[-1]
    if total <= 0:
        return path[-1], 1.0
    start_len = min(max(phase_hint, 0.0), 1.0) * total
    i0 = min(max(bisect_right(cumlen, start_len) - 1, 0), len(path) - 2)
    for i in range(i0, len(path) - 1):
        if i > i0:
            a, seg_start = path[i], cumlen[i]
        else:
            a, seg_start = _interp(path, cumlen, i, start_len), start_len
        hit = _circle_segment_exit(current, lookahead, a, path[i + 1])
        if hit is not None:
            goal, t = hit
            return goal, (seg_start + t * (cumlen[i + 1] - seg_start)) / total
    return path[-1], 1.0


def _interp(
    path: Sequence[tuple[float, float]], cumlen: Sequence[float], i: int, arc: float
) -> tuple[float, float]:
    span = cumlen[i + 1] - cumlen[i]
    t = 0.0 if span <= 0 else (arc - cumlen[i]) / span
    (ax, ay), (bx, by) = path[i], path[i + 1]
    return (ax + t * (bx - ax), ay + t * (by - ay))


def _circle_segment_exit(
    center: tuple[float, float], radius: float, a: tuple[float, float], b: tuple[float, float]
):
    """First point along segment a->b at exactly ``radius`` from ``center``,
    searching only where the path leaves the circle."""
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    fx, fy = ax - center[0], ay - center[1]
    aa = dx * dx + dy * dy
    if aa == 0.0:
        return None
    bb = 2.0 * (fx * dx + fy * dy)
    cc = fx * fx + fy * fy - radius * radius
    disc = bb * bb - 4.0 * aa * cc
    if disc < 0:
        return None
    sq = math.sqrt(disc)
    for t in ((-bb - sq) / (2.0 * aa), (-bb + sq) / (2.0 * aa)):
        if 0.0 <= t <= 1.0:
            # keep only crossings heading outward (distance increasing)
            if bb + 2.0 * aa * t >= 0.0:
                return (ax + t * dx, ay + t * dy), t
    return None


def pure_pursuit_velocity(
    current: tuple[float, float], goal: tuple[float, float], speed_ref: float
) -> np.ndarray:
    """Velocity of magnitude ``speed_ref`` pointing from the foot at the goal."""
    if speed_ref <= 0:
        raise ValidationError("speed_ref must be > 0")
    dx, dy = goal[0] - current[0], goal[1] - current[1]
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return np.zeros(2)
    return np.array((speed_ref * dx / norm, speed_ref * dy / norm))


def envelope_speed(direction: np.ndarray, vx_cap: float, vy_cap: float) -> float:
    """Largest speed along ``direction`` that keeps both axes inside their caps."""
    dx, dy = direction
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return 0.0
    limits = []
    if abs(dx) > 1e-12:
        limits.append(vx_cap * norm / abs(dx))
    if abs(dy) > 1e-12:
        limits.append(vy_cap * norm / abs(dy))
    return min(limits)
