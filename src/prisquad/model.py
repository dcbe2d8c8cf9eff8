"""Core domain types: robot geometry, joint state, poses, trajectory specs
and the obstacle world.

Conventions used throughout the package:

* The ground is the x-z plane, heights are y (up).  Lengths are centimetres,
  angles radians, time seconds.
* A heading ``phi`` has forward unit vector ``(cos(phi), sin(phi))`` in (x, z).
* Legs are labelled A (front-left), B (front-right), C (rear-right),
  D (rear-left).  A and C share one sliding carriage on the lower body layer,
  B and D share the other on the upper layer, so there are exactly 7 actuated
  coordinates: four vertical leg extensions, two slide positions and one
  inter-layer steering angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

LEGS = ("A", "B", "C", "D")

# index tuples into per-leg arrays
PAIR_AC = (0, 2)
PAIR_BD = (1, 3)

# per-leg sign of the longitudinal (front/rear) and lateral (left/right) offsets
LEG_LONG_SIGN = (+1.0, +1.0, -1.0, -1.0)
LEG_LAT_SIGN = (+1.0, -1.0, -1.0, +1.0)


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.atan2(math.sin(angle), math.cos(angle))
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


class ValidationError(ValueError):
    """Raised when a domain object violates its invariants."""


@dataclass
class RobotGeometry:
    """Fixed dimensional constants of the robot (centimetres unless noted)."""

    body_length: float = 50.0
    leg_spacing_longitudinal: float = 33.0
    leg_spacing_longitudinal_extended: float = 69.0
    leg_spacing_lateral: float = 56.0
    overall_height: float = 50.0
    slide_travel_max: float = 34.0
    vertical_travel_max: float = 13.0
    mass_kg: float = 25.0
    com_height: float = 22.0
    pulley_radius: float = 1.55
    leadscrew_starts: int = 4
    leadscrew_pitch_mm: float = 2.0
    encoder_cpr: int = 600
    # contact patch per foot: (length along travel, width), used only for the
    # support-polygon stability margin
    foot_contact: tuple[float, float] = (20.0, 10.0)
    steer_travel_max: float = math.pi / 2.0

    @property
    def leadscrew_lead_mm(self) -> float:
        """Axial travel per screw revolution = thread starts x pitch."""
        return self.leadscrew_starts * self.leadscrew_pitch_mm

    @property
    def diagonal_length(self) -> float:
        """Distance between diagonally opposite feet in the base stance."""
        return math.hypot(self.leg_spacing_longitudinal, self.leg_spacing_lateral)

    def validate(self) -> None:
        positive = {
            "body_length": self.body_length,
            "leg_spacing_longitudinal": self.leg_spacing_longitudinal,
            "leg_spacing_lateral": self.leg_spacing_lateral,
            "overall_height": self.overall_height,
            "slide_travel_max": self.slide_travel_max,
            "vertical_travel_max": self.vertical_travel_max,
            "mass_kg": self.mass_kg,
            "com_height": self.com_height,
            "pulley_radius": self.pulley_radius,
            "leadscrew_pitch_mm": self.leadscrew_pitch_mm,
            "encoder_cpr": self.encoder_cpr,
            "steer_travel_max": self.steer_travel_max,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValidationError(f"geometry.{name} must be > 0, got {value}")
        if self.vertical_travel_max > 13.0:
            raise ValidationError("vertical travel is limited to 13 cm")
        if self.slide_travel_max > 34.0:
            raise ValidationError("slide travel is limited to 34 cm")
        if self.foot_contact[0] <= 0 or self.foot_contact[1] <= 0:
            raise ValidationError("foot contact rectangle must have positive dims")
        if self.leadscrew_starts < 1:
            raise ValidationError("lead screw needs at least one thread start")

    def to_dict(self) -> dict:
        return {
            "body_length_cm": self.body_length,
            "leg_spacing_longitudinal_cm": self.leg_spacing_longitudinal,
            "leg_spacing_longitudinal_extended_cm": self.leg_spacing_longitudinal_extended,
            "leg_spacing_lateral_cm": self.leg_spacing_lateral,
            "overall_height_cm": self.overall_height,
            "slide_travel_max_cm": self.slide_travel_max,
            "vertical_travel_max_cm": self.vertical_travel_max,
            "mass_kg": self.mass_kg,
            "com_height_cm": self.com_height,
            "pulley_radius_cm": self.pulley_radius,
            "leadscrew_starts": self.leadscrew_starts,
            "leadscrew_pitch_mm": self.leadscrew_pitch_mm,
            "encoder_cpr": self.encoder_cpr,
            "foot_contact_cm": list(self.foot_contact),
            "steer_travel_max_rad": self.steer_travel_max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RobotGeometry":
        geom = cls(
            body_length=data["body_length_cm"],
            leg_spacing_longitudinal=data["leg_spacing_longitudinal_cm"],
            leg_spacing_longitudinal_extended=data["leg_spacing_longitudinal_extended_cm"],
            leg_spacing_lateral=data["leg_spacing_lateral_cm"],
            overall_height=data["overall_height_cm"],
            slide_travel_max=data["slide_travel_max_cm"],
            vertical_travel_max=data["vertical_travel_max_cm"],
            mass_kg=data["mass_kg"],
            com_height=data["com_height_cm"],
            pulley_radius=data["pulley_radius_cm"],
            leadscrew_starts=data["leadscrew_starts"],
            leadscrew_pitch_mm=data["leadscrew_pitch_mm"],
            encoder_cpr=data["encoder_cpr"],
            foot_contact=tuple(data["foot_contact_cm"]),
            steer_travel_max=data["steer_travel_max_rad"],
        )
        geom.validate()
        return geom


def default_geometry() -> RobotGeometry:
    """Geometry constants of the reference build."""
    geom = RobotGeometry()
    geom.validate()
    return geom


@dataclass
class JointState:
    """The 7 actuated coordinates.

    Diagonal coupling is structural: legs A and C share ``slide_lower``, legs
    B and D share ``slide_upper``.  There is deliberately no per-leg slide
    coordinate.  ``d_vert`` measures foot lift from full extension, so 0 means
    the foot is at its lowest point.  Slides are absolute carriage positions
    in [0, slide_travel_max].
    """

    d_vert: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0, 0.0])
    slide_lower: float = 0.0
    slide_upper: float = 0.0
    steer_alpha: float = 0.0

    def copy(self) -> "JointState":
        return JointState(list(self.d_vert), self.slide_lower, self.slide_upper, self.steer_alpha)

    def slide_for_pair(self, pair: tuple[int, int]) -> float:
        return self.slide_lower if pair == PAIR_AC else self.slide_upper


def standing_state(geom: RobotGeometry) -> JointState:
    """All feet down, both carriages centred, layers aligned."""
    mid = geom.slide_travel_max / 2.0
    return JointState(slide_lower=mid, slide_upper=mid)


def validate_joint_state(state: JointState, geom: RobotGeometry) -> list[str]:
    """Check every coordinate against its travel limits.

    Returns a list of violation messages; empty when the state is valid.
    Never raises.
    """
    violations = []
    for i, d in enumerate(state.d_vert):
        if d < 0.0 or d > geom.vertical_travel_max:
            violations.append(
                f"d_vert[{LEGS[i]}]={d:g} outside [0, {geom.vertical_travel_max:g}]"
            )
    for name, value in (("slide_lower", state.slide_lower), ("slide_upper", state.slide_upper)):
        if value < 0.0 or value > geom.slide_travel_max:
            violations.append(f"{name}={value:g} outside [0, {geom.slide_travel_max:g}]")
    if abs(state.steer_alpha) > geom.steer_travel_max:
        violations.append(
            f"steer_alpha={state.steer_alpha:g} outside +/-{geom.steer_travel_max:g}"
        )
    return violations


@dataclass
class BodyPose:
    """Planar body pose: position of the body centre, heading and pitch.

    ``heading_phi`` is the world heading of the upper body layer (where the
    IMU and electronics platform sit).  Pitch is nonzero on slopes and is
    derived kinematically from the terrain under the stance feet.
    """

    x: float = 0.0
    z: float = 0.0
    heading_phi: float = 0.0
    pitch: float = 0.0

    def __post_init__(self) -> None:
        self.heading_phi = wrap_angle(self.heading_phi)

    def forward(self) -> tuple[float, float]:
        return (math.cos(self.heading_phi), math.sin(self.heading_phi))


class TrajectoryKind(str, Enum):
    RECT1 = "rect1"
    RECT2 = "rect2"
    CIRCULAR = "circular"
    TRIANGULAR = "triangular"
    TILTED_CIRCULAR = "tilted_circular"


@dataclass(frozen=True)
class TrajectorySpec:
    """A closed-loop swing-foot trajectory: shape, stride span L, lift H."""

    kind: TrajectoryKind
    stride_L: float
    stride_H: float
    tilt: float = 0.0

    def validate(self, geom: RobotGeometry | None = None) -> None:
        g = geom or RobotGeometry()
        if not 0.0 < self.stride_L <= g.slide_travel_max:
            raise ValidationError(
                f"stride_L={self.stride_L:g} outside (0, {g.slide_travel_max:g}]"
            )
        if not 0.0 < self.stride_H <= g.vertical_travel_max:
            raise ValidationError(
                f"stride_H={self.stride_H:g} outside (0, {g.vertical_travel_max:g}]"
            )
        if self.kind is not TrajectoryKind.TILTED_CIRCULAR and self.tilt != 0.0:
            raise ValidationError("tilt is only meaningful for tilted_circular")


@dataclass(frozen=True)
class Box:
    """Cuboid obstacle, footprint centred at (x, z)."""

    x: float
    z: float
    width: float  # lateral extent (z)
    depth: float  # extent along x
    height: float


@dataclass(frozen=True)
class Rope:
    """A rope stretched across the path at a fixed height, centred at (x, z)."""

    x: float
    z: float
    span: float
    height: float


@dataclass(frozen=True)
class Ramp:
    """Full-width incline starting at x_start; length is the horizontal run."""

    x_start: float
    incline_deg: float
    length: float

    @property
    def incline_rad(self) -> float:
        return math.radians(self.incline_deg)


@dataclass(frozen=True)
class WorldModel:
    """Flat ground plus extruded-footprint obstacles.

    The world never changes during a run, so the obstacles are split by kind
    once, at construction; each kind keeps the order of ``obstacles``.
    """

    obstacles: tuple = ()
    _boxes: tuple[Box, ...] = field(init=False, repr=False, compare=False)
    _ropes: tuple[Rope, ...] = field(init=False, repr=False, compare=False)
    _ramps: tuple[Ramp, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        obstacles = tuple(self.obstacles)
        object.__setattr__(self, "obstacles", obstacles)
        for name, kind in (("_boxes", Box), ("_ropes", Rope), ("_ramps", Ramp)):
            object.__setattr__(self, name, tuple(o for o in obstacles if isinstance(o, kind)))

    def validate(self) -> None:
        for obs in self.obstacles:
            if isinstance(obs, (Box, Rope)) and obs.height < 0:
                raise ValidationError(f"obstacle height must be >= 0: {obs}")
            if isinstance(obs, Ramp) and not 0.0 <= obs.incline_deg < 90.0:
                raise ValidationError(f"ramp incline must be in [0, 90): {obs}")

    def boxes(self) -> tuple[Box, ...]:
        return self._boxes

    def ropes(self) -> tuple[Rope, ...]:
        return self._ropes

    def terrain_height(self, x: float, z: float) -> float:
        """Walkable surface height at a planar point.

        Boxes raise the terrain over their footprint; ramps raise it along
        their run (and keep the top level beyond the end).  Ropes are not
        walkable terrain.
        """
        y = 0.0
        for box in self._boxes:
            if abs(x - box.x) <= box.depth / 2.0 and abs(z - box.z) <= box.width / 2.0:
                y = max(y, box.height)
        for ramp in self._ramps:
            if x >= ramp.x_start:
                run = min(x - ramp.x_start, ramp.length)
                y = max(y, run * math.tan(ramp.incline_rad))
        return y

    def terrain_gradient_x(self, x: float, z: float) -> float:
        """Local walkable slope d(height)/dx at a planar point.

        Box tops and flat ground are locally level (the step edge is a
        discontinuity, not a slope); only ramp surfaces have a gradient.
        """
        for box in self._boxes:
            if abs(x - box.x) <= box.depth / 2.0 and abs(z - box.z) <= box.width / 2.0:
                return 0.0
        grad = 0.0
        for ramp in self._ramps:
            if ramp.x_start <= x <= ramp.x_start + ramp.length:
                grad = max(grad, math.tan(ramp.incline_rad))
        return grad
