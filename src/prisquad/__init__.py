"""Deterministic kinematic simulator and control library for a desk-scale
prismatic-joint quadruped: trot gait trajectories, pure-pursuit foot
tracking, turn-in-place steering, sensor models and quasi-static stability
checking.
"""

from .model import (
    BodyPose,
    JointState,
    RobotGeometry,
    TrajectoryKind,
    TrajectorySpec,
    WorldModel,
    default_geometry,
    validate_joint_state,
)
from .kinematics import (
    DhLegParams,
    default_leg_params,
    foot_planar_coords,
    leg_forward_kinematics,
    leadscrew_torque,
)
from .trajectory import make_trajectory, plan_straight_walk, preset, stride_timing
from .gait import GaitExecutor, SensorSummary, select_trajectory
from .harness import check_stability, load_scenario, run_simulation

__all__ = [
    "BodyPose",
    "DhLegParams",
    "GaitExecutor",
    "JointState",
    "RobotGeometry",
    "SensorSummary",
    "TrajectoryKind",
    "TrajectorySpec",
    "WorldModel",
    "check_stability",
    "default_geometry",
    "default_leg_params",
    "foot_planar_coords",
    "leadscrew_torque",
    "leg_forward_kinematics",
    "load_scenario",
    "make_trajectory",
    "plan_straight_walk",
    "preset",
    "run_simulation",
    "select_trajectory",
    "stride_timing",
    "validate_joint_state",
]

__version__ = "0.1.0"
