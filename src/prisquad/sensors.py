"""Deterministic sensor models reading from the simulated world: encoders,
IMU, ultrasonic rangefinders, limit switches and a sweeping 2D lidar.

Every read is a pure function of (world, pose, joints) plus an optional
seeded random generator, so identical seeds give identical sensor frames.
Noise is off by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import (
    foot_counts_from_height,
    foot_height_from_counts,
    slide_counts_from_distance,
    slide_distance_from_counts,
)
from .model import BodyPose, Box, JointState, Rope, RobotGeometry, ValidationError, WorldModel

AXIS_NAMES = ("slide_lower", "slide_upper", "vert_a", "vert_b", "vert_c", "vert_d", "steer")

ULTRASONIC_MIN_CM = 2.0
ULTRASONIC_MAX_CM = 400.0


@dataclass(frozen=True)
class UltrasonicMount:
    """Forward-facing rangefinder mount in the body frame; its beam is a single ray."""

    offset_x: float = 16.5
    offset_z: float = 0.0
    height: float = 8.0


@dataclass(frozen=True)
class LidarConfig:
    """Sweeping 2D lidar: angular grid, sector and mount."""

    angular_resolution_deg: float = 0.15
    sector_deg: tuple[float, float] = (-90.0, 90.0)
    max_range_cm: float = 400.0
    mount_offset: tuple[float, float] = (0.0, 0.0)
    mount_height: float = 35.0
    range_quantization_cm: float = 0.0

    def __post_init__(self) -> None:
        if self.angular_resolution_deg <= 0:
            raise ValidationError("lidar angular resolution must be > 0")
        if self.sector_deg[0] >= self.sector_deg[1]:
            raise ValidationError("lidar sector start must precede its end")
        if self.max_range_cm <= 0:
            raise ValidationError("lidar max range must be > 0")

    def beam_azimuths_deg(self) -> np.ndarray:
        start, end = self.sector_deg
        width = end - start
        n = int(math.floor(width / self.angular_resolution_deg + 1e-9)) + 1
        return start + np.arange(n) * self.angular_resolution_deg


# --- encoders ---------------------------------------------------------------


def read_encoders(joints: JointState, geom: RobotGeometry) -> tuple[int, ...]:
    """Quantized encoder counts for all 7 axes.

    Order: slide_lower, slide_upper, vert A..D, steer.  Slides and verticals
    use the belt-pulley and lead-screw conversions; the steering axis counts
    whole-circle fractions of the encoder resolution.
    """
    counts = [
        slide_counts_from_distance(joints.slide_lower, geom.encoder_cpr, geom.pulley_radius),
        slide_counts_from_distance(joints.slide_upper, geom.encoder_cpr, geom.pulley_radius),
    ]
    for d in joints.d_vert:
        counts.append(foot_counts_from_height(d * 10.0, geom.encoder_cpr, geom.leadscrew_lead_mm))
    counts.append(round(joints.steer_alpha / (2.0 * math.pi) * geom.encoder_cpr))
    return tuple(counts)


def joints_from_encoders(counts: tuple[int, ...], geom: RobotGeometry) -> JointState:
    """Reconstruct joint coordinates from encoder counts (within quantization)."""
    slide_lower = slide_distance_from_counts(counts[0], geom.encoder_cpr, geom.pulley_radius)
    slide_upper = slide_distance_from_counts(counts[1], geom.encoder_cpr, geom.pulley_radius)
    d_vert = [
        foot_height_from_counts(counts[2 + i], geom.encoder_cpr, geom.leadscrew_lead_mm) / 10.0
        for i in range(4)
    ]
    steer = counts[6] / geom.encoder_cpr * 2.0 * math.pi
    return JointState(d_vert=d_vert, slide_lower=slide_lower, slide_upper=slide_upper,
                      steer_alpha=steer)


# --- IMU --------------------------------------------------------------------


def read_imu(
    pose: BodyPose, noise_sigma_deg: float = 0.0, rng: np.random.Generator | None = None
) -> tuple[float, float]:
    """(yaw, pitch) in radians, optionally with zero-mean Gaussian noise."""
    if noise_sigma_deg < 0:
        raise ValidationError("noise sigma must be >= 0")
    yaw, pitch = pose.heading_phi, pose.pitch
    if noise_sigma_deg > 0.0:
        if rng is None:
            raise ValidationError("a seeded generator is required for noisy reads")
        sigma = math.radians(noise_sigma_deg)
        yaw += rng.normal(0.0, sigma)
        pitch += rng.normal(0.0, sigma)
    return yaw, pitch


# --- raycasting -------------------------------------------------------------


def _ray_box_distance(ox: float, oz: float, dx: float, dz: float, box: Box) -> float | None:
    """Distance along a planar ray to the footprint of a box, if hit."""
    half_d, half_w = box.depth / 2.0, box.width / 2.0
    tmin, tmax = 0.0, math.inf
    for origin, direction, lo, hi in (
        (ox, dx, box.x - half_d, box.x + half_d),
        (oz, dz, box.z - half_w, box.z + half_w),
    ):
        if abs(direction) < 1e-12:
            if not lo <= origin <= hi:
                return None
            continue
        t1 = (lo - origin) / direction
        t2 = (hi - origin) / direction
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
        if tmin > tmax:
            return None
    return tmin if tmax >= 0 else None


def _ray_rope_distance(ox: float, oz: float, dx: float, dz: float, rope: Rope) -> float | None:
    """Distance along a planar ray to a rope's span line, if crossed."""
    if abs(dx) < 1e-12:
        return None
    t = (rope.x - ox) / dx
    if t < 0:
        return None
    z_hit = oz + t * dz
    if abs(z_hit - rope.z) > rope.span / 2.0:
        return None
    return t


def read_ultrasonic(
    pose: BodyPose, world: WorldModel, mount: UltrasonicMount
) -> float | None:
    """Range to the nearest obstacle along the heading, or None for no echo.

    The beam is a planar ray at the mount height: boxes answer when they are at
    least that tall, ropes when they hang within a couple of centimetres of
    the beam height.  Ramps return no echo (grazing incidence).  Readings
    clamp to the 2..400 cm envelope of the sensor.
    """
    c, s = math.cos(pose.heading_phi), math.sin(pose.heading_phi)
    ox = pose.x + c * mount.offset_x - s * mount.offset_z
    oz = pose.z + s * mount.offset_x + c * mount.offset_z
    best = math.inf
    for box in world.boxes():
        if box.height < mount.height:
            continue
        t = _ray_box_distance(ox, oz, c, s, box)
        if t is not None and t < best:
            best = t
    for rope in world.ropes():
        if abs(rope.height - mount.height) > 2.0:
            continue
        t = _ray_rope_distance(ox, oz, c, s, rope)
        if t is not None and t < best:
            best = t
    if best > ULTRASONIC_MAX_CM:
        return None
    return max(best, ULTRASONIC_MIN_CM)


def lidar_scan(
    pose: BodyPose, world: WorldModel, cfg: LidarConfig, sweep_index: int = 0
) -> list[tuple[float, float]]:
    """One lidar sweep: (azimuth_rad, range_cm) per beam.

    Beams sit at exact multiples of the angular resolution across the sector,
    measured in the body frame.  Odd sweeps run in reverse order (the sweep
    alternates direction and is re-homed by limit switches).  Beams that hit
    nothing report the maximum range.  Only obstacles at least as tall as the
    lidar mount are visible to it.
    """
    azimuths = cfg.beam_azimuths_deg()
    if sweep_index % 2 == 1:
        azimuths = azimuths[::-1]
    boxes = [b for b in world.boxes() if b.height >= cfg.mount_height]
    c, s = math.cos(pose.heading_phi), math.sin(pose.heading_phi)
    ox = pose.x + c * cfg.mount_offset[0] - s * cfg.mount_offset[1]
    oz = pose.z + s * cfg.mount_offset[0] + c * cfg.mount_offset[1]
    scan = []
    for az_deg in azimuths:
        az = math.radians(az_deg)
        world_angle = pose.heading_phi + az
        dx, dz = math.cos(world_angle), math.sin(world_angle)
        best = cfg.max_range_cm
        for box in boxes:
            t = _ray_box_distance(ox, oz, dx, dz, box)
            if t is not None and t < best:
                best = t
        if cfg.range_quantization_cm > 0:
            best = round(best / cfg.range_quantization_cm) * cfg.range_quantization_cm
        scan.append((az, best))
    return scan


def lidar_to_global(
    scan: list[tuple[float, float]], pose: BodyPose, cfg: LidarConfig | None = None
) -> np.ndarray:
    """Project scan returns into world coordinates.

    Each return becomes a point at its range along its azimuth from the mount,
    then the whole cloud is rotated by the yaw and translated by the body
    position.
    """
    mount = cfg.mount_offset if cfg is not None else (0.0, 0.0)
    pts = np.empty((len(scan), 2))
    for i, (az, rng_cm) in enumerate(scan):
        lx = mount[0] + rng_cm * math.cos(az)
        lz = mount[1] + rng_cm * math.sin(az)
        c, s = math.cos(pose.heading_phi), math.sin(pose.heading_phi)
        pts[i] = (pose.x + c * lx - s * lz, pose.z + s * lx + c * lz)
    return pts


# --- limit switches ---------------------------------------------------------

LIMIT_EPS_CM = 0.05
LIMIT_EPS_RAD = 0.01


def read_limit_switches(
    joints: JointState, geom: RobotGeometry
) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """(low, high) end-of-travel flags for the 7 axes, in encoder axis order."""
    coords = [
        (joints.slide_lower, 0.0, geom.slide_travel_max, LIMIT_EPS_CM),
        (joints.slide_upper, 0.0, geom.slide_travel_max, LIMIT_EPS_CM),
    ]
    for d in joints.d_vert:
        coords.append((d, 0.0, geom.vertical_travel_max, LIMIT_EPS_CM))
    coords.append((joints.steer_alpha, -geom.steer_travel_max, geom.steer_travel_max, LIMIT_EPS_RAD))
    low = tuple(value <= lo + eps for value, lo, hi, eps in coords)
    high = tuple(value >= hi - eps for value, lo, hi, eps in coords)
    return low, high


def lidar_scan_to_csv(
    scan: list[tuple[float, float]], pose: BodyPose, cfg: LidarConfig
) -> str:
    """CSV export: azimuth_deg, range_cm, x_global, z_global per beam."""
    pts = lidar_to_global(scan, pose, cfg)
    lines = ["azimuth_deg,range_cm,x_global,z_global"]
    for (az, rng_cm), (gx, gz) in zip(scan, pts):
        lines.append(f"{math.degrees(az):.4f},{rng_cm:.4f},{gx:.4f},{gz:.4f}")
    return "\n".join(lines) + "\n"
