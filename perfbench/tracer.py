"""In-memory span recorder for the traced pass.

Each public function in ``LAYERS`` is replaced, under every name the package
looks it up by, with a wrapper that records one span per call: layer id,
parent span, start and end in ``perf_counter_ns``.  Spans stay in compact
arrays while the pass runs and are aggregated (and written to disk) only
after it ends.  A span's self time is its duration minus the durations of
its direct children, so the self times of all spans add up to the time
covered by the top-level spans.

The program is single-threaded and has no queues, so a layer never waits:
busy time and call counts are the whole story.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (layer name, module under prisquad, attribute or Class.method, metrics).
# Metric kinds: calls_per_tick, self_us (self microseconds per tick),
# calls (per pass), ms (self milliseconds per pass) and beams_per_tick
# (summed len() of the returned scans per tick).
LAYERS = (
    ("kinematics.world_feet", "kinematics", "world_feet", ("calls_per_tick", "self_us")),
    ("kinematics.body_frame_feet", "kinematics", "body_frame_feet", ("calls_per_tick", "self_us")),
    ("kinematics.rigid_pose_from_pins", "kinematics", "rigid_pose_from_pins", ("self_us",)),
    ("model.terrain_height", "model", "WorldModel.terrain_height", ("calls_per_tick", "self_us")),
    ("model.terrain_gradient_x", "model", "WorldModel.terrain_gradient_x", ("calls_per_tick", "self_us")),
    ("harness.check_stability", "harness", "check_stability", ("self_us",)),
    ("harness.convex_hull", "harness", "convex_hull", ("self_us",)),
    ("harness.signed_distance_to_hull", "harness", "signed_distance_to_hull", ("self_us",)),
    ("sensors.lidar_scan", "sensors", "lidar_scan", ("self_us", "beams_per_tick")),
    ("sensors.read_encoders", "sensors", "read_encoders", ("self_us",)),
    ("sensors.read_limit_switches", "sensors", "read_limit_switches", ("self_us",)),
    ("sensors.read_ultrasonic", "sensors", "read_ultrasonic", ("self_us",)),
    ("sensors.read_imu", "sensors", "read_imu", ("self_us",)),
    ("gait.gait_tick", "gait", "GaitExecutor.gait_tick", ("self_us",)),
    ("gait.select_trajectory", "gait", "select_trajectory", ("calls_per_tick",)),
    ("control.yaw_pi_step", "control", "yaw_pi_step", ("calls_per_tick",)),
    ("control.pure_pursuit_goal", "control", "pure_pursuit_goal", ("calls_per_tick", "self_us")),
    ("control.pid_step", "control", "pid_step", ("calls_per_tick",)),
    ("trajectory.make_trajectory", "trajectory", "make_trajectory", ("calls", "self_us")),
    ("trajectory.plan_straight_walk", "trajectory", "plan_straight_walk", ("calls",)),
    ("harness.step", "harness", "SimEngine.step", ("self_us",)),
    ("harness.emit_trace", "harness", "emit_trace", ("ms",)),
    ("harness.summarize", "harness", "summarize", ("ms",)),
    ("harness.load_scenario", "harness", "load_scenario", ("ms",)),
    ("harness.run_simulation", "harness", "run_simulation", ("self_us",)),
    ("cli.main", "cli", "main", ("self_us",)),
)


class Tracer:
    """Wraps every layer function and records one span per call."""

    def __init__(self) -> None:
        self.names = [layer for layer, *_ in LAYERS]
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.items = [0] * len(LAYERS)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap each layer function wherever a prisquad module binds it."""
        modules = [m for name, m in sys.modules.items() if name == "prisquad" or name.startswith("prisquad.")]
        for lid, (_layer, module, attr, kinds) in enumerate(LAYERS):
            owner = importlib.import_module(f"prisquad.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(lid, original, "beams_per_tick" in kinds))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(lid, original, "beams_per_tick" in kinds)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def reset(self) -> None:
        """Drop recorded spans (in place: the wrappers hold these arrays)."""
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        self.items[:] = [0] * len(LAYERS)

    def _patch(self, owner: object, key: str, wrapper: object) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, lid: int, fn, count_items: bool):
        layer, parent, start, end, stack, items = (
            self.layer, self.parent, self.start, self.end, self._stack, self.items,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(lid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_items:
                items[lid] += len(result)
            return result

        return traced

    def aggregate(self) -> dict:
        """Per-layer calls and self nanoseconds, and the top-level covered time."""
        n = len(LAYERS)
        lay = np.frombuffer(self.layer, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = par >= 0
        child_ns = np.bincount(par[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child_ns
        return {
            "calls": np.bincount(lay, minlength=n).tolist(),
            "self_ns": np.bincount(lay, weights=self_ns, minlength=n).tolist(),
            "items": list(self.items),
            "top_ns": float(dur[~nested].sum()),
            "spans": len(lay),
        }

    def write(self, path: Path) -> None:
        """Save the recorded spans and the layer names as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def layer_metrics(agg: dict, ticks: int) -> dict[str, float]:
    """Normalise one pass's aggregate into the per-layer metric values."""
    out = {}
    for lid, (layer, _module, _attr, kinds) in enumerate(LAYERS):
        calls, self_ns, items = agg["calls"][lid], agg["self_ns"][lid], agg["items"][lid]
        for kind in kinds:
            if kind == "calls_per_tick":
                out[f"{layer}.calls_per_tick"] = calls / ticks
            elif kind == "self_us":
                out[f"{layer}.self_us"] = self_ns / 1e3 / ticks
            elif kind == "calls":
                out[f"{layer}.calls"] = calls
            elif kind == "ms":
                out[f"{layer}.ms"] = self_ns / 1e6
            else:
                out[f"{layer}.beams_per_tick"] = items / ticks
    return out
