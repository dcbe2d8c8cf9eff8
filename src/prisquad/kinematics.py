"""Closed-form kinematics: foot layout, per-leg forward kinematics, encoder
conversions, lead-screw torque and the stance-pinned body-pose solver.

A single leg is a revolute-prismatic-prismatic chain: a rotation ``alpha``
about the central vertical axis (the inter-layer steering joint), a horizontal
slide ``d1`` along the layer rails and a vertical extension ``d2`` driven by
the lead screw.  The two prismatic directions are orthogonal by construction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    LEG_LAT_SIGN,
    LEG_LONG_SIGN,
    PAIR_AC,
    BodyPose,
    JointState,
    RobotGeometry,
    ValidationError,
    wrap_angle,
)


class ContactViolation(RuntimeError):
    """A stance foot could not be kept pinned to the ground."""


@dataclass(frozen=True)
class DhLegParams:
    """Fixed link offsets of one leg chain (cm).

    ``k1`` is the longitudinal offset of the carriage centre, ``k2`` the
    lateral rail offset, ``k3`` the vertical drop from the body centre to a
    fully extended foot.  ``k3 > k1`` must hold.
    """

    k1: float = 16.5
    k2: float = 28.0
    k3: float = 22.0

    def __post_init__(self) -> None:
        if self.k1 <= 0 or self.k2 <= 0 or self.k3 <= 0:
            raise ValidationError("leg link offsets must all be positive")
        if self.k3 <= self.k1:
            raise ValidationError(f"k3 must exceed k1 (got k3={self.k3}, k1={self.k1})")


def default_leg_params() -> DhLegParams:
    return DhLegParams()


@dataclass(frozen=True)
class FootPositions:
    """Per-leg foot coordinates, order A, B, C, D.

    ``points`` holds each foot's planar position as an ``(x, z)`` float tuple
    and ``heights`` its height y.  The numpy views ``xz`` (shape (4, 2)) and
    ``y`` (shape (4,)) are built from them on each access.
    """

    points: tuple[tuple[float, float], ...]
    heights: tuple[float, ...]

    @property
    def xz(self) -> np.ndarray:
        return np.array(self.points)

    @property
    def y(self) -> np.ndarray:
        return np.array(self.heights)


def rot2(angle: float, x: float, z: float) -> tuple[float, float]:
    """Rotate a planar vector counter-clockwise."""
    c, s = math.cos(angle), math.sin(angle)
    return (c * x - s * z, s * x + c * z)


def foot_planar_coords(com: BodyPose, theta: float, length: float) -> FootPositions:
    """Planar foot layout around the body centre.

    ``length`` is the distance between diagonally opposite feet and ``theta``
    the angle subtended at the centre by the two front legs.  The front feet
    sit half a diagonal ahead at headings ``phi +/- theta/2`` (left leg +,
    right leg -); each rear foot is antipodal to its diagonal partner, so
    diagonal pairs are separated by exactly ``length``.
    """
    if length <= 0.0:
        raise ValidationError(f"diagonal length must be > 0, got {length}")
    if not 0.0 < theta <= math.pi:
        raise ValidationError(f"theta must be in (0, pi], got {theta}")
    half = length / 2.0
    ax, az = rot2(com.heading_phi + theta / 2.0, half, 0.0)
    bx, bz = rot2(com.heading_phi - theta / 2.0, half, 0.0)
    points = (
        (com.x + ax, com.z + az),  # A front-left
        (com.x + bx, com.z + bz),  # B front-right
        (com.x - ax, com.z - az),  # C rear-right
        (com.x - bx, com.z - bz),  # D rear-left
    )
    return FootPositions(points, (0.0, 0.0, 0.0, 0.0))


def base_theta_length(params: DhLegParams) -> tuple[float, float]:
    """(theta, diagonal length) matching the leg link offsets."""
    return 2.0 * math.atan2(params.k2, params.k1), 2.0 * math.hypot(params.k1, params.k2)


def leg_forward_kinematics(
    params: DhLegParams, alpha: float, d1: float, d2: float
) -> np.ndarray:
    """Homogeneous transform of one foot in the body frame.

    Chain: rotate ``alpha`` about the vertical axis, slide ``d1`` along the
    (rotated) rail from the longitudinal offset ``k1``, then lift the foot by
    ``d2`` from its lowest point ``k3`` below the body centre.  Coordinates
    are (x, y, z) with y up.
    """
    px, pz = rot2(alpha, params.k1 + d1, params.k2)
    py = -params.k3 + d2
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array(
        [
            [c, 0.0, -s, px],
            [0.0, 1.0, 0.0, py],
            [s, 0.0, c, pz],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def body_frame_feet(
    joints: JointState, params: DhLegParams, geom: RobotGeometry
) -> FootPositions:
    """All four feet in the body (upper-layer) frame.

    Legs B and D ride the upper layer directly; legs A and C belong to the
    lower layer, which sits at ``-steer_alpha`` relative to the upper one.
    Slide coordinates are measured from the travel origin, so the carriage
    centre offset is ``slide - travel/2``.
    """
    mid = geom.slide_travel_max / 2.0
    u_low = joints.slide_lower - mid
    u_up = joints.slide_upper - mid
    points = []
    for i in range(4):
        lower_layer = i in PAIR_AC
        lx = LEG_LONG_SIGN[i] * params.k1 + (u_low if lower_layer else u_up)
        lz = LEG_LAT_SIGN[i] * params.k2
        points.append(rot2(-joints.steer_alpha, lx, lz) if lower_layer else (lx, lz))
    return FootPositions(tuple(points), tuple(-params.k3 + d for d in joints.d_vert))


def world_feet(
    pose: BodyPose, joints: JointState, params: DhLegParams, geom: RobotGeometry,
    local: FootPositions | None = None,
) -> FootPositions:
    """Feet in the world frame (heights still relative to the body centre).
    ``local`` is ``body_frame_feet(joints, params, geom)`` if the caller has it."""
    if local is None:
        local = body_frame_feet(joints, params, geom)
    c, s = math.cos(pose.heading_phi), math.sin(pose.heading_phi)
    points = tuple((pose.x + c * x - s * z, pose.z + s * x + c * z) for x, z in local.points)
    return FootPositions(points, local.heights)


# --- encoder conversions ---------------------------------------------------


def slide_distance_from_counts(counts: int, cpr: int, pulley_radius: float) -> float:
    """Carriage travel for a belt pulley encoder reading: counts/cpr * 2*pi*R."""
    if cpr <= 0 or pulley_radius <= 0:
        raise ValidationError("cpr and pulley radius must be positive")
    return counts / cpr * 2.0 * math.pi * pulley_radius


def slide_counts_from_distance(distance: float, cpr: int, pulley_radius: float) -> int:
    """Exact inverse of :func:`slide_distance_from_counts` at integer counts."""
    if cpr <= 0 or pulley_radius <= 0:
        raise ValidationError("cpr and pulley radius must be positive")
    return round(distance / (2.0 * math.pi * pulley_radius) * cpr)


def foot_height_from_counts(counts: int, cpt: int, lead_mm: float) -> float:
    """Foot lift in millimetres for a lead-screw encoder reading."""
    if cpt <= 0 or lead_mm <= 0:
        raise ValidationError("cpt and lead must be positive")
    return counts / cpt * lead_mm


def foot_counts_from_height(height_mm: float, cpt: int, lead_mm: float) -> int:
    """Exact inverse of :func:`foot_height_from_counts` at integer counts."""
    if cpt <= 0 or lead_mm <= 0:
        raise ValidationError("cpt and lead must be positive")
    return round(height_mm / lead_mm * cpt)


# --- lead screw ------------------------------------------------------------


def leadscrew_torque(
    weight_n: float, radius_m: float, friction_angle: float, helix_angle: float
) -> float:
    """Torque needed to raise a load on a lead screw: W * R * tan(phi + alpha).

    Valid only below the self-locking singularity phi + alpha < pi/2.
    """
    if weight_n < 0 or radius_m < 0 or friction_angle < 0 or helix_angle < 0:
        raise ValidationError("torque inputs must be non-negative")
    total = friction_angle + helix_angle
    if total >= math.pi / 2.0:
        raise ValidationError("friction + helix angle must stay below pi/2")
    return weight_n * radius_m * math.tan(total)


def helix_angle(lead_mm: float, mean_diameter_mm: float) -> float:
    """Thread helix angle from lead and mean thread diameter."""
    if lead_mm <= 0 or mean_diameter_mm <= 0:
        raise ValidationError("lead and diameter must be positive")
    return math.atan(lead_mm / (math.pi * mean_diameter_mm))


def friction_angle(mu: float) -> float:
    """Friction angle of a thread pair with friction coefficient mu."""
    if mu < 0:
        raise ValidationError("friction coefficient must be >= 0")
    return math.atan(mu)


# --- stance-pinned pose resolution ------------------------------------------


def rigid_pose_from_pins(
    anchors: Sequence[tuple[float, float]], local: Sequence[tuple[float, float]], pitch: float
) -> BodyPose:
    """Solve the planar pose that maps two body-frame ``(x, z)`` points onto
    two world anchors exactly.

    Raises :class:`ContactViolation` if no rigid planar motion achieves it,
    which would mean a pinned foot has to slip.
    """
    (ax0, az0), (ax1, az1) = anchors
    (bx0, bz0), (bx1, bz1) = local
    heading = math.atan2(az1 - az0, ax1 - ax0) - math.atan2(bz1 - bz0, bx1 - bx0)
    c, s = math.cos(heading), math.sin(heading)
    tx = ax0 - (c * bx0 - s * bz0)
    tz = az0 - (s * bx0 + c * bz0)
    # residual on the second pin; nonzero only if the pinned pair deformed
    rx = tx + c * bx1 - s * bz1 - ax1
    rz = tz + s * bx1 + c * bz1 - az1
    if math.hypot(rx, rz) > 1e-9:
        raise ContactViolation(
            f"stance feet cannot stay pinned (residual {math.hypot(rx, rz):.3g} cm)"
        )
    return BodyPose(x=tx, z=tz, heading_phi=wrap_angle(heading), pitch=pitch)

