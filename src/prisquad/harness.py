"""Fixed-timestep simulation engine: scenario loading, actuator models,
contact and stability checking, mission execution, trace and summary output.

One simulation instance is strictly single-threaded and deterministic: the
same scenario and seed always produce byte-identical traces.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import sensors as sensormod
from .gait import (
    GaitConfig,
    GaitExecutor,
    GaitPhase,
    ObstacleSighting,
    SensorSummary,
)
from .kinematics import (
    ContactViolation,
    DhLegParams,
    FootPositions,
    body_frame_feet,
    rigid_pose_from_pins,
    world_feet,
)
from .model import (
    PAIR_AC,
    PAIR_BD,
    BodyPose,
    Box,
    Ramp,
    RobotGeometry,
    Rope,
    TrajectoryKind,
    ValidationError,
    WorldModel,
    standing_state,
    wrap_angle,
)
from .trajectory import make_trajectory, preset, walk_step_count

# contact must register before the end-of-travel switch can freeze a
# descending leg 0.05 cm short of the ground
CONTACT_EPS_CM = 0.1
DEFAULT_FRICTION_MU = 0.42  # static grip of the rubber foot pads
# version of the trace record layout, reported in every summary; traces
# without it in their summary are version 1 (which carried sensors.lidar_beams)
TRACE_SCHEMA = 2


class ScenarioError(ValueError):
    """A scenario document violates the schema."""


# --- stability ----------------------------------------------------------------


def convex_hull(points: Iterable[Sequence[float]]) -> list[tuple[float, float]]:
    """Convex hull of planar points via monotone chain.

    Returns the hull's vertices as ``(x, z)`` float tuples, counter-clockwise
    with no repeated endpoint; two or fewer distinct points come back sorted.
    """
    pts = sorted({(float(x), float(z)) for x, z in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def signed_distance_to_hull(point: tuple[float, float], hull: Sequence[tuple[float, float]]) -> float:
    """Signed distance to a convex polygon given as counter-clockwise
    ``(x, z)`` vertices: positive inside, negative outside."""
    px, pz = point
    n = len(hull)
    if n == 0:
        return -math.inf
    if n == 1:
        return -math.hypot(px - hull[0][0], pz - hull[0][1])
    inside = True
    min_edge = math.inf
    for i in range(n):
        ax, az = hull[i]
        bx, bz = hull[(i + 1) % n] if n > 2 else hull[1 - i]
        ex, ez = bx - ax, bz - az
        # left-of test against CCW edges
        cross = ex * (pz - az) - ez * (px - ax)
        if n > 2 and cross < 0:
            inside = False
        seg_len2 = ex * ex + ez * ez
        if seg_len2 > 0:
            t = max(0.0, min(1.0, ((px - ax) * ex + (pz - az) * ez) / seg_len2))
            dist = math.hypot(px - (ax + t * ex), pz - (az + t * ez))
        else:
            dist = math.hypot(px - ax, pz - az)
        min_edge = min(min_edge, dist)
    return min_edge if inside and n > 2 else -min_edge


def foot_contact_corners(
    center: Sequence[float], heading: float, dims: tuple[float, float]
) -> list[tuple[float, float]]:
    """World corners of one foot's contact rectangle (length along heading),
    as four ``(x, z)`` tuples."""
    half_l, half_w = dims[0] / 2.0, dims[1] / 2.0
    c, s = math.cos(heading), math.sin(heading)
    return [
        (center[0] + c * dx - s * dz, center[1] + s * dx + c * dz)
        for dx, dz in ((half_l, half_w), (half_l, -half_w), (-half_l, -half_w), (-half_l, half_w))
    ]


def shared_heading_margin(
    centres: Sequence[Sequence[float]],
    heading: float,
    com_xz: tuple[float, float],
    contact_dims: tuple[float, float],
) -> float:
    """Closed-form stability margin over contact rectangles of one heading.

    The support polygon is then hull(centres) plus the rectangle (a Minkowski
    sum), whose edge normals are among the rectangle's two axes and the
    normals of each pair of centres.  Along each such unit normal n the
    polygon reaches ``max(n . c_i) + extent(n)`` on one side and
    ``-min(n . c_i) + extent(n)`` on the other, measured from the body
    centre; the least of these is the margin.  A non-negative result is the
    exact distance to the boundary, a negative one only bounds the distance
    outside.
    """
    half_l, half_w = contact_dims[0] / 2.0, contact_dims[1] / 2.0
    c, s = math.cos(heading), math.sin(heading)
    px, pz = com_xz
    # the centres in the rectangle's (u, w) frame, relative to the body centre
    us, ws = [], []
    for x, z in centres:
        dx, dz = x - px, z - pz
        us.append(c * dx + s * dz)
        ws.append(c * dz - s * dx)
    margin = min(min(max(us), -min(us)) + half_l, min(max(ws), -min(ws)) + half_w)
    n = len(us)
    for i in range(n - 1):
        ui, wi = us[i], ws[i]
        for j in range(i + 1, n):
            du, dw = us[j] - ui, ws[j] - wi
            length = math.hypot(du, dw)
            if length == 0.0:
                continue
            # offsets along the pair's normal, scaled by -length; i and j share one
            hi = lo = ui * dw - wi * du
            for k in range(n):
                if k != i and k != j:
                    offset = us[k] * dw - ws[k] * du
                    if offset > hi:
                        hi = offset
                    elif offset < lo:
                        lo = offset
            pair = ((hi if hi < -lo else -lo) + half_l * abs(dw) + half_w * abs(du)) / length
            if pair < margin:
                margin = pair
    return margin


def check_stability(
    foot_xz: Sequence[Sequence[float]],
    stance: tuple[int, ...],
    com_xz: tuple[float, float],
    contact_dims: tuple[float, float],
    foot_headings: tuple[float, float, float, float] | None = None,
) -> tuple[bool, float]:
    """Quasi-static stability of the body over the grounded feet.

    ``foot_xz`` holds each leg's planar ``(x, z)`` position.  The margin is
    the signed distance from the body centre's ground projection to the
    convex hull of the stance feet's contact rectangles; the pose is stable
    when the margin is non-negative.  At walking speeds the zero-moment point
    coincides with this projection.  When every stance rectangle has the same
    heading the margin has a closed form (:func:`shared_heading_margin`); the
    hull of the corners is built only for mixed headings or a body centre
    outside the polygon.
    """
    if len(stance) < 2:
        return False, -math.inf
    if foot_headings is None:
        foot_headings = (0.0,) * len(foot_xz)
    heading = foot_headings[stance[0]]
    centres = []
    for leg in stance:
        if foot_headings[leg] != heading:
            break
        centres.append(foot_xz[leg])
    else:  # one shared heading
        margin = shared_heading_margin(centres, heading, com_xz, contact_dims)
        if margin >= 0.0:
            return True, margin
    corners = []
    for leg in stance:
        corners += foot_contact_corners(foot_xz[leg], foot_headings[leg], contact_dims)
    margin = signed_distance_to_hull(com_xz, convex_hull(corners))
    return margin >= 0.0, margin


# --- scenario schema ------------------------------------------------------------


@dataclass
class ActuatorModel:
    """Optional first-order response of the velocity actuators.  The commands
    reach them already clamped to the gait's speed caps."""

    time_constant_s: float = 0.0


@dataclass
class SensorSetup:
    imu_noise_deg: float = 0.0
    ultrasonic_mounts: tuple = (
        sensormod.UltrasonicMount(offset_x=16.5, offset_z=10.0, height=8.0),
        sensormod.UltrasonicMount(offset_x=16.5, offset_z=-10.0, height=8.0),
    )


@dataclass
class Scenario:
    geometry: RobotGeometry = field(default_factory=RobotGeometry)
    leg_params: DhLegParams = field(default_factory=DhLegParams)
    world: WorldModel = field(default_factory=WorldModel)
    gait: GaitConfig = field(default_factory=GaitConfig)
    sensors: SensorSetup = field(default_factory=SensorSetup)
    actuators: ActuatorModel = field(default_factory=ActuatorModel)
    mission: list[dict] = field(default_factory=list)
    dt: float = 0.01
    seed: int = 0
    friction_mu: float = DEFAULT_FRICTION_MU
    max_sim_time_s: float = 300.0
    trace_path: str | None = None
    summary_path: str | None = None

    @property
    def max_ticks(self) -> int:  # every walk step takes at least one tick
        return int(self.max_sim_time_s / self.dt)


# The scenario format is one table, SCENARIO_SCHEMA, of the nodes below.  Each
# node's ``default`` is REQUIRED, OPTIONAL (an absent key keeps the default of
# the dataclass it fills) or a value the checked document gets in its place.
REQUIRED, OPTIONAL = object(), object()


@dataclass(frozen=True)
class Num:
    """A finite number (an integer when ``integer``) in an interval like ``(0, 0.1]``."""

    interval: str = "(-inf, inf)"
    default: object = OPTIONAL
    integer: bool = False


@dataclass(frozen=True)
class Scalar:
    """A value of ``kind`` (``bool`` or ``str``), one of ``choices`` when given."""

    kind: type
    choices: tuple = ()
    default: object = OPTIONAL


@dataclass(frozen=True)
class ListOf:
    item: object
    length: str = "[0, inf)"
    default: object = OPTIONAL


@dataclass(frozen=True)
class Obj:
    """An object with the keys in ``fields``.  When ``tagged``, ``fields`` maps each
    value of the object's ``type`` key to the keys of that variant."""

    fields: dict
    default: object = OPTIONAL
    tagged: bool = False


TRAJECTORY_NAMES = tuple(kind.value for kind in TrajectoryKind)

_GAINS = Obj({
    "kp": Num("[0, inf)"), "ki": Num("[0, inf)"), "kd": Num("[0, inf)"),
    "output_limit": Num("(0, inf)"), "integral_limit": Num("(0, inf)"),
})

SCENARIO_SCHEMA = Obj({
    "schema_version": Num("[1, 1]", REQUIRED, integer=True),
    "geometry": Obj({
        "pulley_radius_cm": Num("(0, inf)"),
        "foot_contact_cm": ListOf(Num("(0, inf)"), "[2, 2]"),
        "dh_k1_cm": Num("(0, inf)"), "dh_k2_cm": Num("(0, inf)"), "dh_k3_cm": Num("(0, inf)"),
    }),
    "world": Obj({"obstacles": ListOf(Obj(tagged=True, fields={
        "box": {
            "x_cm": Num(default=REQUIRED), "z_cm": Num(default=0.0),
            "width_cm": Num("(0, inf)", REQUIRED), "depth_cm": Num("(0, inf)", REQUIRED),
            "height_cm": Num("[0, inf)", REQUIRED),
        },
        "rope": {
            "x_cm": Num(default=REQUIRED), "z_cm": Num(default=0.0),
            "span_cm": Num("(0, inf)", REQUIRED), "height_cm": Num("[0, inf)", REQUIRED),
        },
        "ramp": {
            "x_start_cm": Num(default=REQUIRED), "incline_deg": Num("[0, 90)", REQUIRED),
            "length_cm": Num("(0, inf)", REQUIRED),
        },
    }))}),
    "controllers": Obj({  # every key names a GaitConfig field
        "lookahead_cm": Num("(0, inf)"),
        "pd_position": _GAINS, "pid_velocity": _GAINS, "yaw_pi": _GAINS,
        "speed_scale": Num("(0, inf)"),
        "trigger_range_cm": Num("[0, inf)"),
        "tilt_threshold_deg": Num("[0, 90)"),
        "switch_hysteresis_ticks": Num("[0, inf)", integer=True),
    }),
    "sensors": Obj({"imu_noise_deg": Num("[0, inf)"), "ultrasonic_height_cm": Num("[0, inf)")}),
    "actuators": Obj({  # the speed keys set GaitConfig's speed caps
        "slide_max_speed_cm_s": Num("(0, inf)"), "vert_max_speed_cm_s": Num("(0, inf)"),
        "steer_max_speed_rad_s": Num("(0, inf)"), "time_constant_s": Num("[0, inf)"),
    }),
    "mission": ListOf(Obj(tagged=True, fields={
        "walk": {
            "distance_cm": Num("(0, inf)", REQUIRED),
            "trajectory": Scalar(str, TRAJECTORY_NAMES, "triangular"),
            "adaptive": Scalar(bool, default=True),
            # load_scenario checks the stride overrides against the geometry
            "stride_L_cm": Num("(0, inf)", None), "stride_H_cm": Num("(0, inf)", None),
        },
        "turn": {"angle_deg": Num(default=REQUIRED)},
        "auto_navigate": {
            "goal_xz_cm": ListOf(Num(), "[2, 2]", REQUIRED), "tolerance_cm": Num("(0, inf)", 5.0),
        },
    }), "[1, inf)", REQUIRED),
    "dt": Num("(0, 0.1]"),
    "seed": Num("[0, inf)", integer=True),
    "friction_mu": Num("[0, inf)"),
    "output": Obj({"trace_jsonl": Scalar(str), "summary_json": Scalar(str)}),
})


def _within(value: float, interval: str) -> bool:
    """Whether ``value`` lies in an interval written like ``(0, 0.1]``."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    return above and (value < hi if interval[-1] == ")" else value <= hi)


def _expected(path: str, expected, value) -> ScenarioError:
    return ScenarioError(f"{path}: expected {expected}, got {reprlib.repr(value)}")


def _walk(node, value, path: str):
    """Check ``value`` against a schema node; return it with defaults filled in."""
    if isinstance(node, Num):
        try:  # NaN fails every interval; an int beyond the float range overflows
            ok = (
                isinstance(value, int if node.integer else (int, float))
                and not isinstance(value, bool)
                and _within(value if node.integer else float(value), node.interval)
            )
        except OverflowError:
            ok = False
        if not ok:
            kind = "an integer" if node.integer else "a finite number"
            raise _expected(path, f"{kind} in {node.interval}", value)
        return value if node.integer else float(value)
    if isinstance(node, Scalar):
        if not isinstance(value, node.kind) or (node.choices and value not in node.choices):
            expected = f"one of {list(node.choices)}" if node.choices else node.kind.__name__
            raise _expected(path, expected, value)
        return value
    if isinstance(node, ListOf):
        if not isinstance(value, list) or not _within(len(value), node.length):
            raise _expected(path, f"a list of length {node.length}", value)
        return [_walk(node.item, item, f"{path}[{i}]") for i, item in enumerate(value)]
    if not isinstance(value, dict):
        raise _expected(path, "an object", value)
    fields = node.fields
    if node.tagged:
        tag = value.get("type")
        if not isinstance(tag, str) or tag not in fields:  # str first: a tag may be unhashable
            raise _expected(f"{path}.type", f"one of {list(fields)}", tag)
        fields = {"type": Scalar(str), **fields[tag]}
    for key in value:
        if key not in fields:
            raise ScenarioError(f"{path}.{key}: unknown key")
    checked = {}
    for key, sub in fields.items():
        if key in value:
            checked[key] = _walk(sub, value[key], f"{path}.{key}")
        elif sub.default is REQUIRED:
            raise ScenarioError(f"{path}.{key}: required key is missing")
        elif sub.default is not OPTIONAL:
            checked[key] = sub.default
    return checked


def _present(section: dict, **keys: str) -> dict:
    """``{attr: section[key]}`` for each ``attr=key`` whose key is in ``section``."""
    return {attr: section[key] for attr, key in keys.items() if key in section}


_OBSTACLE_TYPES = {"box": Box, "rope": Rope, "ramp": Ramp}


def load_scenario(document: dict | str | Path) -> Scenario:
    """Check a scenario document (a dict, or the path of a JSON file) against
    ``SCENARIO_SCHEMA`` and build it.

    Every violation, unknown keys included, raises ``ScenarioError`` naming its
    JSON path, so that experiment files stay reproducible across versions.
    """
    if isinstance(document, (str, Path)):
        document = json.loads(Path(document).read_text())
    doc = _walk(SCENARIO_SCHEMA, document, "$")
    geo, ctl, sen, act, out = (
        doc.get(key, {}) for key in ("geometry", "controllers", "sensors", "actuators", "output")
    )
    geometry = replace(RobotGeometry(), **_present(geo, pulley_radius="pulley_radius_cm"))
    if "foot_contact_cm" in geo:
        geometry = replace(geometry, foot_contact=tuple(geo["foot_contact_cm"]))
    try:
        leg_params = DhLegParams(**_present(geo, k1="dh_k1_cm", k2="dh_k2_cm", k3="dh_k3_cm"))
    except ValidationError as exc:
        raise ScenarioError(f"$.geometry: {exc}") from None
    world = WorldModel([
        _OBSTACLE_TYPES[obs.pop("type")](**{key.removesuffix("_cm"): v for key, v in obs.items()})
        for obs in doc.get("world", {}).get("obstacles", [])
    ])
    actuators = ActuatorModel(**_present(act, time_constant_s="time_constant_s"))
    gait = GaitConfig(**_present(
        act, slide_speed_cap="slide_max_speed_cm_s", vert_speed_cap="vert_max_speed_cm_s",
        steer_speed_cap="steer_max_speed_rad_s",
    ))
    for key, value in ctl.items():
        if isinstance(value, dict):  # a gain section overrides single gains
            value = replace(getattr(gait, key), **value)
        setattr(gait, key, value)
    sensors = SensorSetup(**_present(sen, imu_noise_deg="imu_noise_deg"))
    if "ultrasonic_height_cm" in sen:
        sensors.ultrasonic_mounts = tuple(
            replace(m, height=sen["ultrasonic_height_cm"]) for m in sensors.ultrasonic_mounts
        )
    scenario = Scenario(
        geometry=geometry, leg_params=leg_params, world=world, gait=gait,
        sensors=sensors, actuators=actuators, mission=doc["mission"],
        **_present(doc, dt="dt", seed="seed", friction_mu="friction_mu"),
        trace_path=out.get("trace_jsonl"), summary_path=out.get("summary_json"),
    )
    for i, cmd in enumerate(doc["mission"]):
        if cmd["type"] == "walk":
            try:
                spec = preset(cmd["trajectory"], cmd["stride_L_cm"], cmd["stride_H_cm"])
                spec.validate(geometry)
                steps = walk_step_count(cmd["distance_cm"], spec.stride_L)
            except ValidationError as exc:
                raise ScenarioError(f"$.mission[{i}]: {exc}") from None
            if steps > scenario.max_ticks:
                raise ScenarioError(
                    f"$.mission[{i}]: a {cmd['distance_cm']:g} cm walk takes more steps"
                    f" than the {scenario.max_ticks} ticks a run may last"
                )
    return scenario


# --- simulation engine -----------------------------------------------------------


@dataclass(frozen=True)
class FootSnapshot:
    """Foot geometry of one pose, joint state and pinned pair, legs A..D."""

    xz: tuple[tuple[float, float], ...]  # world planar positions
    y: tuple[float, ...]  # world heights
    terrain: tuple[float, ...]  # terrain height under each foot
    u: tuple[float, ...]  # offset along the heading from the body centre
    height: float  # support plane over the pinned pair: body centre height ...
    slope: float  # ... and pitch slope
    contacts: tuple[bool, ...]


class SimEngine:
    """Advances the world one fixed timestep at a time."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.geom = scenario.geometry
        self.legs = scenario.leg_params
        self.world = scenario.world
        self.dt = scenario.dt
        self.rng = np.random.default_rng(scenario.seed)
        self.executor = GaitExecutor(self.geom, scenario.gait)
        self.joints = standing_state(self.geom)
        self.pose = BodyPose()
        self.state = self.executor.new_state()
        self.tick_index = 0  # simulated time is tick_index * dt
        self.trace: list[dict] = []
        self.halt: dict | None = None
        self._axis_velocity = (0.0,) * len(sensormod.AXIS_NAMES)
        self.anchor_pair = self.state.pinned_pair
        self.feet = self._snapshot()
        self.anchor_world = [self.feet.xz[leg] for leg in self.anchor_pair]

    def _snapshot(self, local: FootPositions | None = None) -> FootSnapshot:
        """Foot geometry of the current pose, joints and pinned pair.

        The body rides parallel to the local walkable slope under its pinned
        stance feet (flat over block steps, inclined on ramps); its height is
        the least-squares fit of that line through the stance contacts, each
        at terrain + k3 - d_vert.  Pinned feet sit exactly on the terrain; the
        free feet hang from that plane by their extension.  ``local`` is the
        body-frame feet of the current joints when the caller already has them.
        """
        pose, d_vert, k3, pair = self.pose, self.joints.d_vert, self.legs.k3, self.anchor_pair
        if local is None:
            local = body_frame_feet(self.joints, self.legs, self.geom)
        xz = world_feet(pose, self.joints, self.legs, self.geom, local).points
        fwd = pose.forward()
        u = tuple((px - pose.x) * fwd[0] + (pz - pose.z) * fwd[1] for px, pz in xz)
        terrain = tuple(self.world.terrain_height(px, pz) for px, pz in xz)
        slope = sum(self.world.terrain_gradient_x(*xz[leg]) * fwd[0] for leg in pair) / len(pair)
        height = sum(terrain[leg] + k3 - d_vert[leg] - slope * u[leg] for leg in pair) / len(pair)
        y = tuple(
            terrain[leg] if leg in pair else height + slope * u[leg] - k3 + d_vert[leg]
            for leg in range(4)
        )
        contacts = tuple(y[leg] <= terrain[leg] + CONTACT_EPS_CM for leg in range(4))
        return FootSnapshot(xz, y, terrain, u, height, slope, contacts)

    # -- perception -----------------------------------------------------------------

    def _nearest_obstacle(self, foot_xz: tuple[tuple[float, float], ...]) -> ObstacleSighting | None:
        """Idealized classification of the nearest block or rope ahead.

        An obstacle stays sighted while the robot straddles it (any foot over
        a box footprint, or a rope between the feet), so the gait keeps its
        climbing trajectory until the whole robot is past.
        """
        c, s = math.cos(self.pose.heading_phi), math.sin(self.pose.heading_phi)
        mounts = self.sc.sensors.ultrasonic_mounts
        reach = max(m.offset_x for m in mounts)  # ropes are ranged from the foremost mount
        best: tuple[float, str, float] | None = None
        for box in self.world.boxes():
            if box.height <= 1.0:
                continue
            straddling = any(
                abs(foot_xz[leg][0] - box.x) <= box.depth / 2.0 + 1.0
                and abs(foot_xz[leg][1] - box.z) <= box.width / 2.0 + 1.0
                for leg in range(4)
            )
            if straddling:
                if best is None or 1.0 < best[0]:
                    best = (1.0, "block", box.height)
                continue
            for mount in mounts:
                ox = self.pose.x + c * mount.offset_x - s * mount.offset_z
                oz = self.pose.z + s * mount.offset_x + c * mount.offset_z
                t = sensormod._ray_box_distance(ox, oz, c, s, box)
                if t is not None and t > 0.0 and (best is None or t < best[0]):
                    best = (t, "block", box.height)
        for rope in self.world.ropes():
            d_along = (rope.x - self.pose.x) * c + (rope.z - self.pose.z) * s
            if d_along < -45.0:
                continue
            rng = max(d_along - reach, 0.5)
            if best is None or rng < best[0]:
                best = (rng, "rope", rope.height)
        if best is None:
            return None
        return ObstacleSighting(kind=best[1], height=best[2], range_cm=best[0])

    # -- stepping -------------------------------------------------------------------

    def _apply_actuators(self, cmd) -> None:
        """Move each axis at its commanded velocity (the gait has clamped it to
        the caps), within its travel; velocities are in ``AXIS_NAMES`` order."""
        v = (cmd.slide_lower, cmd.slide_upper, *cmd.vert, cmd.steer)
        tau = self.sc.actuators.time_constant_s
        if tau > 0.0:
            alpha = self.dt / (tau + self.dt)
            v = tuple(prev + alpha * (new - prev) for prev, new in zip(self._axis_velocity, v))
        self._axis_velocity = v
        j = self.joints
        j.slide_lower = min(max(j.slide_lower + v[0] * self.dt, 0.0), self.geom.slide_travel_max)
        j.slide_upper = min(max(j.slide_upper + v[1] * self.dt, 0.0), self.geom.slide_travel_max)
        for i in range(4):
            j.d_vert[i] = min(max(j.d_vert[i] + v[2 + i] * self.dt, 0.0), self.geom.vertical_travel_max)
        j.steer_alpha = min(
            max(j.steer_alpha + v[6] * self.dt, -self.geom.steer_travel_max),
            self.geom.steer_travel_max,
        )

    def _resolve_pose(self) -> FootSnapshot:
        """Planar pose from the pinned stance feet, then pitch from terrain."""
        local = body_frame_feet(self.joints, self.legs, self.geom)
        try:
            self.pose = rigid_pose_from_pins(
                self.anchor_world, [local.points[leg] for leg in self.anchor_pair], self.pose.pitch
            )
        except ContactViolation:
            self._record_halt("contact violation")  # the body keeps its previous pose
        feet = self._snapshot(local)
        self.pose.pitch = math.atan(feet.slope)
        return feet

    def _record_halt(self, reason: str, event: bool = True) -> None:
        """Halt the run at the current tick; the first reason wins.  A halt
        found inside a tick, the gait's included, is also a ``halt`` event in
        that tick's record, at the same time as ``summary["halt"]``; this is
        the one writer of halt events.  ``event=False`` is for halts between
        ticks, which have no record to carry one."""
        if self.halt is None:
            self.halt = {"t": round(self.tick_index * self.dt, 9), "reason": reason}
            self.state.phase = GaitPhase.HALT
            self.state.halt_reason = reason
            if event:
                self.state.events.append({"type": "halt", "reason": reason})

    def step(self) -> dict:
        """Advance one tick: sense, decide, actuate, resolve, check, record."""
        # the snapshot taken at the end of the previous tick still holds:
        # nothing between two steps moves the pose, the joints or the pinned pair
        feet = self.feet
        sens = self.sc.sensors
        yaw, pitch = sensormod.read_imu(self.pose, sens.imu_noise_deg, self.rng)
        ultrasonic = [sensormod.read_ultrasonic(self.pose, self.world, m) for m in sens.ultrasonic_mounts]
        limit_low, limit_high = sensormod.read_limit_switches(self.joints, self.geom)
        summary = SensorSummary(
            body_pitch=pitch,
            obstacle=self._nearest_obstacle(feet.xz),
            foot_contact=feet.contacts,
            limit_low=limit_low,
            limit_high=limit_high,
        )

        prev_pinned = self.state.pinned_pair
        cmd, self.state = self.executor.gait_tick(self.state, summary, self.joints, self.dt)
        if self.state.phase is GaitPhase.HALT:
            self._record_halt(self.state.halt_reason)
        if self.state.pinned_pair != prev_pinned:
            self.anchor_pair = self.state.pinned_pair
            self.anchor_world = [feet.xz[leg] for leg in self.anchor_pair]

        self._apply_actuators(cmd)
        feet = self._resolve_pose()
        # pin a descending swing foot exactly onto the terrain it just reached
        snapped = False
        for leg in range(4):
            if leg not in self.state.pinned_pair and feet.y[leg] < feet.terrain[leg]:
                self.joints.d_vert[leg] = min(
                    max(feet.terrain[leg] - (feet.height + feet.slope * feet.u[leg]) + self.legs.k3, 0.0),
                    self.geom.vertical_travel_max,
                )
                snapped = True
        if snapped:
            feet = self._snapshot()
        self.feet = feet

        grounded = tuple(leg for leg in range(4) if feet.contacts[leg])
        stance_for_margin = grounded if len(grounded) >= 2 else self.state.pinned_pair
        lower_heading = wrap_angle(self.pose.heading_phi - self.joints.steer_alpha)
        headings = (
            lower_heading,
            self.pose.heading_phi,
            lower_heading,
            self.pose.heading_phi,
        )
        stable, margin = check_stability(
            feet.xz,
            stance_for_margin,
            (self.pose.x, self.pose.z),
            self.geom.foot_contact,
            headings,
        )
        if not stable:
            self._record_halt("instability")
        if abs(math.tan(self.pose.pitch)) > self.sc.friction_mu:
            self._record_halt("slip")

        t = round(self.tick_index * self.dt, 9)
        events = list(self.state.events)
        self.state.events.clear()
        for ev in events:
            ev["t"] = t

        stance_label = "ALL" if len(grounded) == 4 else (
            "AC" if set(grounded) == set(PAIR_AC) else "BD" if set(grounded) == set(PAIR_BD) else "PARTIAL"
        )
        record = {
            "t": t,
            "x": self.pose.x,
            "z": self.pose.z,
            "heading": self.pose.heading_phi,
            "pitch": self.pose.pitch,
            "joints": {
                "slide_lower": self.joints.slide_lower,
                "slide_upper": self.joints.slide_upper,
                "vert": list(self.joints.d_vert),
                "steer": self.joints.steer_alpha,
            },
            "feet": [[x, y, z] for (x, z), y in zip(feet.xz, feet.y)],
            "stance": stance_label,
            "trajectory": self.state.active_spec.kind.value,
            "phase": self.state.phase.value,
            "step_index": self.state.step_index,
            "tracking_errors": [
                list(self.state.last_errors[i]) if i in self.state.last_errors else None
                for i in range(4)
            ],
            "margin": margin,
            "sensors": {
                "yaw": yaw,
                "pitch": pitch,
                "ultrasonic": ultrasonic,
                "limits": sum(1 << i for i, f in enumerate(limit_low + limit_high) if f),
            },
            "events": events,
        }
        self.trace.append(record)
        self.tick_index += 1
        return record

    # -- mission --------------------------------------------------------------------

    def run_mission(self) -> dict:
        commands_out = []
        ok = True
        for command in self.sc.mission:
            result = self._run_command(command)
            commands_out.append(result)
            if not result["success"]:
                ok = False
                break
        return {"mission_success": ok and self.halt is None, "commands": commands_out}

    def _run_until_idle(self) -> None:
        while self.state.phase not in (GaitPhase.IDLE, GaitPhase.HALT):
            if self.tick_index >= self.sc.max_ticks:
                self._record_halt("timeout", event=False)
                return
            self.step()

    def _run_command(self, command: dict) -> dict:
        if command["type"] == "walk":
            start = (self.pose.x, self.pose.z)
            spec = preset(
                command["trajectory"],
                stride_L=command.get("stride_L_cm"),
                stride_H=command.get("stride_H_cm"),
            )
            try:  # load_scenario's bound, for the walks auto_navigate plans at run time
                steps = walk_step_count(command["distance_cm"], spec.stride_L)
            except ValidationError:  # too many steps to count
                steps = math.inf
            if steps > self.sc.max_ticks:
                self._record_halt("walk too long", event=False)
                return {"type": "walk", "requested_cm": command["distance_cm"], "travelled_cm": 0.0,
                        "success": False}
            self.executor.config.adaptive = command["adaptive"]
            self.executor.start_walk(self.state, command["distance_cm"], spec)
            self.step()
            self._run_until_idle()
            travelled = math.hypot(self.pose.x - start[0], self.pose.z - start[1])
            success = self.halt is None and abs(travelled - command["distance_cm"]) <= 1.0
            return {
                "type": "walk",
                "requested_cm": command["distance_cm"],
                "travelled_cm": travelled,
                "success": success,
            }
        if command["type"] == "turn":
            theta = math.radians(command["angle_deg"])
            target = wrap_angle(self.pose.heading_phi + theta)
            # angles beyond the steering travel take several in-place turns;
            # the actually-turned amount is measured per segment so a segment
            # parked on the end switch gets corrected by the next one
            limit = self.geom.steer_travel_max
            turned_total = 0.0
            for _ in range(6):
                remaining = theta - turned_total
                if abs(remaining) <= math.radians(0.25) or self.halt is not None:
                    break
                segment = max(-limit, min(limit, remaining))
                heading_before = self.pose.heading_phi
                self.executor.start_turn(self.state, segment)
                self.step()
                self._run_until_idle()
                turned_total += wrap_angle(self.pose.heading_phi - heading_before)
            error_deg = math.degrees(wrap_angle(target - self.pose.heading_phi))
            success = self.halt is None and abs(error_deg) <= 1.0
            return {
                "type": "turn",
                "requested_deg": command["angle_deg"],
                "heading_error_deg": error_deg,
                "success": success,
            }
        if command["type"] == "auto_navigate":
            goal = command["goal_xz_cm"]
            tol = command["tolerance_cm"]
            for _ in range(5):
                dx, dz = goal[0] - self.pose.x, goal[1] - self.pose.z
                dist = math.hypot(dx, dz)
                if dist <= tol:
                    break
                bearing = math.atan2(dz, dx)
                dh = wrap_angle(bearing - self.pose.heading_phi)
                if abs(dh) > math.radians(1.0):
                    result = self._run_command({"type": "turn", "angle_deg": math.degrees(dh)})
                    if not result["success"]:
                        return {"type": "auto_navigate", "success": False, "goal_xz_cm": goal}
                result = self._run_command(
                    {"type": "walk", "distance_cm": dist, "trajectory": "triangular", "adaptive": True}
                )
                if not result["success"]:
                    return {"type": "auto_navigate", "success": False, "goal_xz_cm": goal}
            dist = math.hypot(goal[0] - self.pose.x, goal[1] - self.pose.z)
            return {"type": "auto_navigate", "success": dist <= tol, "goal_xz_cm": goal,
                    "distance_to_goal_cm": dist}
        raise ScenarioError(f"unknown mission command {command['type']!r}")


def run_simulation(scenario: Scenario) -> tuple[list[dict], dict]:
    """Execute a scenario's mission and return (trace, summary).

    When the scenario names output paths the trace and summary are also
    written there.
    """
    engine = SimEngine(scenario)
    mission_result = engine.run_mission()
    summary = summarize(engine.trace, scenario.dt)
    summary.update(mission_result)
    summary["halt"] = engine.halt
    summary["seed"] = scenario.seed
    summary["dt"] = scenario.dt
    if scenario.trace_path:
        emit_trace(engine.trace, scenario.trace_path)
    if scenario.summary_path:
        Path(scenario.summary_path).write_text(json.dumps(summary, indent=2) + "\n")
    return engine.trace, summary


# --- outputs ---------------------------------------------------------------------


def summarize(trace: list[dict], dt: float) -> dict:
    """Aggregate a trace of ``dt``-second ticks: distance, speed, heading,
    events, stability."""
    if not trace:
        return {
            "trace_schema": TRACE_SCHEMA,
            "ticks": 0,
            "duration_s": 0.0,
            "distance_cm": 0.0,
            "avg_speed_cm_s": 0.0,
            "final_heading_deg": 0.0,
            "stability_violations": 0,
            "min_margin_cm": None,
            "switch_events": [],
            "halts": [],
        }
    first, last = trace[0], trace[-1]
    duration = len(trace) * dt
    distance = math.hypot(last["x"] - first["x"], last["z"] - first["z"])
    switches = []
    halts = []
    violations = 0
    min_margin = math.inf
    for rec in trace:
        if rec["margin"] < 0:
            violations += 1
        min_margin = min(min_margin, rec["margin"])
        for ev in rec.get("events", []):
            if ev["type"] == "trajectory_switch":
                switches.append(ev)
            elif ev["type"] == "halt":
                halts.append(ev)
    return {
        "trace_schema": TRACE_SCHEMA,
        "ticks": len(trace),
        "duration_s": duration,
        "distance_cm": distance,
        "avg_speed_cm_s": distance / duration if duration > 0 else 0.0,
        "final_heading_deg": math.degrees(last["heading"]),
        "stability_violations": violations,
        "min_margin_cm": min_margin,
        "switch_events": switches,
        "halts": halts,
    }


def emit_trace(trace: list[dict], path: str | Path) -> None:
    """Write a trace as JSON Lines, one tick per line."""
    p = Path(path)
    try:
        with p.open("w") as fh:
            for record in trace:
                fh.write(json.dumps(record, separators=(",", ":")))
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {p}: {exc}") from exc


PAIR_FRONT_LEG = {"AC": 0, "BD": 1}


def _finite(value) -> bool:
    """A finite JSON number: not a bool, NaN, infinity or an int beyond the float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _trace_record_fault(record) -> str | None:
    """What keeps ``record`` from being a trace line ``trace2svg`` can read, or None."""
    if not (isinstance(record, dict) and isinstance(record.get("events"), list)):
        return "expected an object with 'feet' and a list 'events'"
    feet = record.get("feet")
    if not (isinstance(feet, list) and len(feet) in (0, 4) and all(
            isinstance(foot, list) and len(foot) == 3 and all(map(_finite, foot)) for foot in feet)):
        return "expected 'feet' to be four [x, y, z] triples of finite numbers, or none"
    for ev in record["events"]:
        if not (isinstance(ev, dict) and isinstance(ev.get("type"), str)):
            return "expected every event to be an object with a string 'type'"
        if ev["type"] == "step_start" and not (
                ev.get("pair") in ("AC", "BD") and _finite(ev.get("span_cm"))
                and ev.get("trajectory") in TRAJECTORY_NAMES and _finite(ev.get("tilt_rad", 0.0))):
            return ("expected a step_start with 'pair' AC or BD, a finite 'span_cm', a known"
                    " 'trajectory' and a finite 'tilt_rad' if present")
    return None


def load_trace(path: str | Path) -> list[dict]:
    """Read a JSONL trace.  Raises ``ValidationError`` naming the line of the
    first record ``trace2svg`` could not read (see ``_trace_record_fault``)."""
    p = Path(path)
    try:
        lines = p.read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read trace from {p}: {exc}") from exc
    trace = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            record = json.loads(line)
            fault = _trace_record_fault(record)
            if fault is not None:
                raise ValidationError(f"{p} line {number}: {fault}, got {reprlib.repr(record)}")
            trace.append(record)
    return trace


def trace2svg(trace: list[dict], path: str | Path) -> None:
    """Plot swing-foot paths (world x vs height) with reference curves overlaid."""
    if not trace:
        raise ValidationError("cannot plot an empty trace")
    strides: list[dict] = []
    current: dict | None = None
    for rec in trace:
        for ev in rec.get("events", []):
            if ev["type"] == "step_start":
                current = {
                    "pair": ev["pair"],
                    "span": ev["span_cm"],
                    "trajectory": ev["trajectory"],
                    "tilt": ev.get("tilt_rad", 0.0),
                    "points": [],
                }
                strides.append(current)
            elif ev["type"] == "step_complete":
                current = None
        if current is not None and rec["feet"]:  # a record without feet has no point to plot
            leg = PAIR_FRONT_LEG[current["pair"]]
            fx, fy, _fz = rec["feet"][leg]
            current["points"].append((fx, fy))

    xs = [p[0] for s in strides for p in s["points"]] or [0.0]
    ys = [p[1] for s in strides for p in s["points"]] or [0.0]
    x_lo, x_hi = min(xs) - 2, max(xs) + 2
    y_lo, y_hi = min(0.0, min(ys)) - 2, max(ys) + 4
    scale = 6.0
    width = (x_hi - x_lo) * scale
    height = (y_hi - y_lo) * scale

    def sx(x: float) -> float:
        return (x - x_lo) * scale

    def sy(y: float) -> float:
        return height - (y - y_lo) * scale

    def poly(points, color, dash="") -> str:
        coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in points)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline points="{coords}" fill="none" stroke="{color}"'
            f' stroke-width="1.2"{dash_attr}/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<line x1="0" y1="{sy(0):.2f}" x2="{width:.2f}" y2="{sy(0):.2f}" stroke="#888" stroke-width="0.8"/>',
    ]
    for stride in strides:
        pts = stride["points"]
        if len(pts) < 2:
            continue
        x0, y0 = pts[0]
        spec = preset(stride["trajectory"], stride_L=stride["span"], tilt=stride["tilt"])
        try:
            curve = make_trajectory(spec)
            ref = [(x0 + px, y0 + py) for px, py in curve.swing_points]
            parts.append(poly(ref, "#c44", dash="3,3"))
        except ValidationError:
            pass
        parts.append(poly(pts, "#26c"))
    parts.append("</svg>")
    p = Path(path)
    try:
        p.write_text("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {p}: {exc}") from exc

