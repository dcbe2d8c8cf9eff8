"""Simulation harness: stability margins, scenario schema, traces, summaries
and the CLI surface."""

import copy
import dataclasses
import hashlib
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from prisquad import gait, harness, kinematics, trajectory
from prisquad.cli import bundled_scenario_path, main
from prisquad.kinematics import ContactViolation
from prisquad.harness import (
    ScenarioError,
    check_stability,
    convex_hull,
    emit_trace,
    load_scenario,
    load_trace,
    run_simulation,
    signed_distance_to_hull,
    summarize,
    trace2svg,
)

# sha256 of each bundled scenario's trace as emit_trace writes it (trace_schema 2)
TRACE_SHA256 = {
    "block10": "3675feb7bfaeb45637cfde219ed316dbbaa225da1d4fd74a3113895266335502",
    "block14": "fc5e3169008269a90b4bf967135f43e27fd207e1aade9bc1b3153e2388e61ea3",
    "flat": "0c427294af98fab4b65f114e74db28ecc9ec7907192d6db45539bc8dc24f670e",
    "ramp20": "fb5456eb0a5612f264bc42fd948b42c543777afdc486c09f083a1e90eda11383",
    "ramp25": "b25edd2d91c28abdfeffdbe1596fa4efbf883914c3a9d32023eb0409c63ebfe6",
    "rope12to5": "c3205d01555a7fe546937dd3e73c5e0e6acfa8d23795530bdec75cdda07e00fb",
    "tensteps": "0c427294af98fab4b65f114e74db28ecc9ec7907192d6db45539bc8dc24f670e",
    "turn45": "2a967eab37bcb06f7bd8a4ca9859d1d9259368d58bf588c4d2405d7c0d3fe9b3",
}
NOISY = {"sensors": {"imu_noise_deg": 0.5}, "seed": 0}
# each row: bundled scenario, document overrides, trace sha256
DIGEST_ROWS = [pytest.param(name, {}, digest, id=name) for name, digest in sorted(TRACE_SHA256.items())] + [
    pytest.param("ramp20", NOISY, "a8c48f836e086a6da77e2c9cf030b47bb9cddffbc87ba576ec4888486a431d0b",
                 id="ramp20-imu0.5"),
]

# each row: a digest scenario's tick count, the (type, t) of every trace event,
# its halt and its minimum margin.  The rows hold behaviour, not bytes: a digest
# re-recorded for a round-off change must leave every row as it is.
BEHAVIOUR_ORACLE = json.loads(Path(__file__).with_name("behaviour_oracle.json").read_text())

BASE_FEET = np.array([[16.5, 28.0], [16.5, -28.0], [-16.5, -28.0], [-16.5, 28.0]])
FOOT_DIMS = (20.0, 10.0)


def count_calls(monkeypatch, name, *modules):
    """Wrap the function ``name`` in each module with one shared call counter."""
    calls = [0]
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "mission": [{"type": "walk", "distance_cm": 34.0, "trajectory": "triangular",
                     "adaptive": False}],
    }
    doc.update(overrides)
    return doc


def walk(**fields):
    return {"type": "walk", "distance_cm": 34.0, **fields}


# every key the scenario format accepts, each set to a valid value
FULL_DOC = {
    "schema_version": 1,
    "geometry": {"pulley_radius_cm": 1.6, "foot_contact_cm": [18.0, 9.0],
                 "dh_k1_cm": 16.5, "dh_k2_cm": 28.0, "dh_k3_cm": 23.0},
    "world": {"obstacles": [
        {"type": "box", "x_cm": 90.0, "z_cm": 0.0, "width_cm": 120.0, "depth_cm": 30.0,
         "height_cm": 10.0},
        {"type": "rope", "x_cm": 55.0, "z_cm": 1.0, "span_cm": 150.0, "height_cm": 12.0},
        {"type": "ramp", "x_start_cm": 60.0, "incline_deg": 20.0, "length_cm": 300.0},
    ]},
    "controllers": {
        "lookahead_cm": 4.0,
        "pd_position": {"kp": 5.0, "ki": 0.1, "kd": 0.2, "output_limit": 20.0,
                        "integral_limit": 2.0},
        "pid_velocity": {"kp": 0.5}, "yaw_pi": {"ki": 0.3}, "speed_scale": 0.9,
        "trigger_range_cm": 20.0, "tilt_threshold_deg": 4.0, "switch_hysteresis_ticks": 3,
    },
    "sensors": {"imu_noise_deg": 0.1, "ultrasonic_height_cm": 7.0},
    "actuators": {"slide_max_speed_cm_s": 15.0, "vert_max_speed_cm_s": 9.0,
                  "steer_max_speed_rad_s": 0.5, "time_constant_s": 0.02},
    "mission": [
        walk(trajectory="rect2", adaptive=True, stride_L_cm=30.0, stride_H_cm=4.0),
        {"type": "turn", "angle_deg": 45.0},
        {"type": "auto_navigate", "goal_xz_cm": [60.0, 60.0], "tolerance_cm": 6.0},
    ],
    "dt": 0.02, "seed": 7, "friction_mu": 0.5,
    "output": {"trace_jsonl": "t.jsonl", "summary_json": "s.json"},
}

BUNDLED_DOCS = [
    json.loads(path.read_text())
    for path in sorted(bundled_scenario_path("flat").parent.glob("*.json"))
]

MUTANT_VALUES = [None, True, "10", "", [], {}, [1.0, 2.0], {"type": "box"}, math.nan,
                 math.inf, -math.inf, -1.0, 0, 0.5, 1e9, 10**400]


def json_paths(node, prefix=()):
    """Every key path and list index path below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


@st.composite
def single_field_mutants(draw):
    """A bundled (or the full) scenario with one field dropped, added or replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(BUNDLED_DOCS + [FULL_DOC])))
    *parents, last = draw(st.sampled_from(list(json_paths(doc))))
    holder = doc
    for key in parents:
        holder = holder[key]
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "drop" and isinstance(holder, dict):
        del holder[last]
    elif action == "add" and isinstance(holder, dict):
        holder["bogus"] = 1.0
    else:
        holder[last] = copy.deepcopy(draw(st.sampled_from(MUTANT_VALUES)))
    return doc


class TestConvexHull:
    def test_square_hull(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        hull = convex_hull(pts)
        assert len(hull) == 4

    def test_signed_distance_inside_and_outside(self):
        hull = convex_hull(np.array([[0, 0], [4, 0], [4, 4], [0, 4]]))
        assert signed_distance_to_hull((2, 2), hull) == pytest.approx(2.0)
        assert signed_distance_to_hull((5, 2), hull) == pytest.approx(-1.0)

    @settings(max_examples=50)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
    def test_margin_is_lipschitz_in_the_query_point(self, x, z, delta, angle):
        hull = convex_hull(np.array([[0, 0], [4, 0], [4, 4], [0, 4]]))
        d0 = signed_distance_to_hull((x, z), hull)
        x2 = x + delta * math.cos(angle)
        z2 = z + delta * math.sin(angle)
        d1 = signed_distance_to_hull((x2, z2), hull)
        assert abs(d1 - d0) <= delta + 1e-9


class TestCheckStability:
    def test_base_stance_diagonal_is_stable(self):
        stable, margin = check_stability(BASE_FEET, (0, 2), (0.0, 0.0), FOOT_DIMS)
        assert stable
        assert margin > 0.0

    def test_far_displaced_body_is_unstable(self):
        stable, margin = check_stability(BASE_FEET, (0, 2), (100.0, 0.0), FOOT_DIMS)
        assert not stable
        assert margin < 0.0

    def test_four_feet_down_has_wide_margin(self):
        _, margin2 = check_stability(BASE_FEET, (0, 2), (0.0, 0.0), FOOT_DIMS)
        _, margin4 = check_stability(BASE_FEET, (0, 1, 2, 3), (0.0, 0.0), FOOT_DIMS)
        assert margin4 > margin2

    def test_single_foot_is_never_stable(self):
        stable, margin = check_stability(BASE_FEET, (0,), (16.5, 28.0), FOOT_DIMS)
        assert not stable

    def test_margin_matches_strip_half_width_at_centre(self):
        # oracle: rectangle extent along the diagonal's normal direction
        n = np.array([-56.0, 33.0]) / 65.0
        expected = abs(n[0]) * FOOT_DIMS[0] / 2 + abs(n[1]) * FOOT_DIMS[1] / 2
        _, margin = check_stability(BASE_FEET, (0, 2), (0.0, 0.0), FOOT_DIMS)
        assert margin == pytest.approx(expected, abs=1e-9)


def hull_margin(feet, stance, com, dims, headings):
    """The general oracle: signed distance to the hull of every stance corner."""
    corners = [c for leg in stance for c in harness.foot_contact_corners(feet[leg], headings[leg], dims)]
    return signed_distance_to_hull(com, convex_hull(corners))


@st.composite
def stances(draw):
    """2 to 4 stance feet in a 4-foot layout, contact dims and each foot's heading."""
    coord = st.floats(-40.0, 40.0)
    n = draw(st.integers(2, 4))
    feet = [(draw(coord), draw(coord)) for _ in range(4)]
    dims = (draw(st.floats(1.0, 30.0)), draw(st.floats(1.0, 30.0)))
    heading = draw(st.floats(-math.pi, math.pi))
    return feet, tuple(range(n)), dims, heading


class TestClosedFormMargin:
    @settings(max_examples=300)
    @given(stances(), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_agrees_with_the_hull_with_the_body_inside(self, stance_draw, weights):
        feet, stance, dims, heading = stance_draw
        w = [weights[leg] + 1e-3 for leg in stance]  # a convex combination: inside
        com = tuple(sum(wi * feet[leg][k] for wi, leg in zip(w, stance)) / sum(w) for k in (0, 1))
        stable, margin = check_stability(feet, stance, com, dims, (heading,) * 4)
        assert stable
        assert margin == pytest.approx(hull_margin(feet, stance, com, dims, (heading,) * 4), abs=1e-9)

    @settings(max_examples=300)
    @given(stances(), st.floats(0.0, 2.0 * math.pi), st.floats(100.0, 300.0))
    def test_agrees_with_the_hull_with_the_body_outside(self, stance_draw, bearing, reach):
        feet, stance, dims, heading = stance_draw
        com = (reach * math.cos(bearing), reach * math.sin(bearing))  # beyond every corner
        stable, margin = check_stability(feet, stance, com, dims, (heading,) * 4)
        assert not stable
        assert margin == pytest.approx(hull_margin(feet, stance, com, dims, (heading,) * 4), abs=1e-9)

    @settings(max_examples=200)
    @given(stances(), st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
           st.floats(-80.0, 80.0), st.floats(-80.0, 80.0))
    def test_mixed_headings_take_the_hull_value(self, stance_draw, headings, x, z):
        feet, stance, dims, _ = stance_draw
        assume(len({headings[leg] for leg in stance}) > 1)
        _, margin = check_stability(feet, stance, (x, z), dims, tuple(headings))
        assert margin == hull_margin(feet, stance, (x, z), dims, headings)

    def test_diagonal_pair_margin_is_the_strip_half_width(self):
        n = (-56.0 / 65.0, 33.0 / 65.0)  # unit normal of the A-C diagonal
        expected = abs(n[0]) * FOOT_DIMS[0] / 2 + abs(n[1]) * FOOT_DIMS[1] / 2
        centres = [BASE_FEET[0], BASE_FEET[2]]
        assert harness.shared_heading_margin(centres, 0.0, (0.0, 0.0), FOOT_DIMS) == pytest.approx(
            expected, abs=1e-12)


class TestLoadScenario:
    def test_minimal_document_fills_defaults(self):
        sc = load_scenario(minimal_doc())
        assert sc.dt == 0.01
        assert sc.seed == 0
        assert sc.geometry.leg_spacing_lateral == 56.0
        assert sc.gait.lookahead_cm == 3.0

    def test_oversized_dt_rejected(self):
        with pytest.raises(ScenarioError, match="dt"):
            load_scenario(minimal_doc(dt=0.5))

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ScenarioError, match=re.escape("$.controllers")):
            load_scenario(minimal_doc(controllers={"bogus": 1}))
        with pytest.raises(ScenarioError, match=re.escape("$")):
            load_scenario(minimal_doc(extra_section={}))
        with pytest.raises(ScenarioError, match=re.escape("$.sensors")):
            load_scenario(minimal_doc(sensors={"lidar_enabled": False}))

    def test_empty_mission_rejected(self):
        with pytest.raises(ScenarioError, match="mission"):
            load_scenario({"schema_version": 1, "mission": []})

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(minimal_doc(schema_version=2))

    def test_bundled_block_scenario_has_its_obstacle(self):
        sc = load_scenario(bundled_scenario_path("block10"))
        boxes = sc.world.boxes()
        assert len(boxes) == 1
        assert boxes[0].height == 10.0

    def test_a_scenario_speed_cap_reaches_the_actuators(self):
        sc = load_scenario(minimal_doc(actuators={"slide_max_speed_cm_s": 15.0}))
        trace, summary = run_simulation(sc)
        assert summary["mission_success"]
        slides = [(rec["joints"]["slide_lower"], rec["joints"]["slide_upper"]) for rec in trace]
        moves = [abs(b - a) for prev, cur in zip(slides, slides[1:]) for a, b in zip(prev, cur)]
        assert max(moves) <= 15.0 * sc.dt + 1e-9
        assert max(moves) > 14.0 * sc.dt  # the cap binds

    def test_controller_overrides_apply(self):
        doc = minimal_doc(controllers={"lookahead_cm": 4.5, "pd_position": {"kp": 9.0}})
        sc = load_scenario(doc)
        assert sc.gait.lookahead_cm == 4.5
        assert sc.gait.pd_position.kp == 9.0

    def test_mission_walk_requires_positive_distance(self):
        with pytest.raises(ScenarioError, match="distance"):
            load_scenario(minimal_doc(mission=[{"type": "walk", "distance_cm": -1.0}]))

    def test_walk_longer_than_the_run_is_rejected_without_planning(self):
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match=r"^\$\.mission\[1\]: .*ticks"):
            load_scenario(minimal_doc(mission=[walk(), walk(distance_cm=1e9)]))
        assert time.perf_counter() - start < 1.0

    def test_every_key_loads(self):
        sc = load_scenario(FULL_DOC)
        assert sc.geometry.foot_contact == (18.0, 9.0)
        assert sc.leg_params.k3 == 23.0
        assert [type(o).__name__ for o in sc.world.obstacles] == ["Box", "Rope", "Ramp"]
        assert sc.gait.pd_position.integral_limit == 2.0
        assert sc.gait.pid_velocity.ki == 3.0  # a gain section keeps the gains it omits
        assert sc.gait.switch_hysteresis_ticks == 3
        assert (sc.gait.slide_speed_cap, sc.gait.vert_speed_cap, sc.gait.steer_speed_cap) == (
            15.0, 9.0, 0.5)
        assert sc.actuators.time_constant_s == 0.02
        assert {m.height for m in sc.sensors.ultrasonic_mounts} == {7.0}
        assert sc.mission[0] == {"type": "walk", "distance_cm": 34.0, "trajectory": "rect2",
                                 "adaptive": True, "stride_L_cm": 30.0, "stride_H_cm": 4.0}
        assert (sc.dt, sc.seed, sc.friction_mu, sc.summary_path) == (0.02, 7, 0.5, "s.json")

    def test_a_string_is_always_a_file_path(self):
        with pytest.raises(OSError):
            load_scenario(json.dumps(minimal_doc()))

    @pytest.mark.parametrize("overrides, path", [
        ({"world": {"obstacles": [{"type": "box", "x_cm": 90.0, "depth_cm": 30.0,
                                   "height_cm": 10.0}]}}, "$.world.obstacles[0].width_cm"),
        ({"mission": [walk(distance_cm="10")]}, "$.mission[0].distance_cm"),
        ({"mission": [walk(distance_cm=math.nan)]}, "$.mission[0].distance_cm"),
        ({"mission": [walk(distance_cm=math.inf)]}, "$.mission[0].distance_cm"),
        ({"mission": {"type": "turn", "angle_deg": 45.0}}, "$.mission"),
        ({"world": {"obstacles": [[90.0, 0.0]]}}, "$.world.obstacles[0]"),
        ({"mission": [walk(trajectory="zigzag")]}, "$.mission[0].trajectory"),
        ({"mission": [walk(stride_L_cm=50.0)]}, "$.mission[0]"),
        ({"mission": [{"type": "turn", "angle_deg": math.nan}]}, "$.mission[0].angle_deg"),
        ({"friction_mu": -1.0}, "$.friction_mu"),
    ])
    def test_malformed_inputs_name_their_path(self, overrides, path):
        with pytest.raises(ScenarioError) as info:
            load_scenario(minimal_doc(**overrides))
        assert str(info.value).startswith(path + ":")

    @settings(max_examples=200, deadline=None)
    @given(single_field_mutants())
    def test_single_field_mutants_load_or_name_their_path(self, doc):
        try:
            load_scenario(doc)
        except ScenarioError as exc:
            assert str(exc).startswith("$")


class TestTraceOutputs:
    def test_trace_lines_are_parseable_and_on_the_time_grid(self, tmp_path):
        sc = load_scenario(minimal_doc())
        trace, _ = run_simulation(sc)
        path = tmp_path / "trace.jsonl"
        emit_trace(trace[:3], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert records[0]["t"] == 0.0
        assert records[1]["t"] == pytest.approx(0.01)
        assert records[2]["t"] == pytest.approx(0.02)

    def test_time_grid_strictly_increasing(self):
        sc = load_scenario(minimal_doc())
        trace, _ = run_simulation(sc)
        ts = [rec["t"] for rec in trace]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_summary_of_flat_walk_has_no_switches(self):
        sc = load_scenario(bundled_scenario_path("flat"))
        trace, summary = run_simulation(sc)
        assert summarize(trace, sc.dt)["switch_events"] == []
        assert summary["mission_success"]

    def test_a_one_tick_run_lasts_one_tick(self):
        # the first tick on a steep low-friction ramp slips
        doc = {
            "schema_version": 1,
            "world": {"obstacles": [
                {"type": "ramp", "x_start_cm": -200.0, "incline_deg": 20.0, "length_cm": 300.0}]},
            "mission": [{"type": "walk", "distance_cm": 51.0, "trajectory": "triangular",
                         "adaptive": True}],
            "friction_mu": 0.1,
        }
        trace, summary = run_simulation(load_scenario(doc))
        assert len(trace) == 1
        assert summary["halt"] == {"t": 0.0, "reason": "slip"}
        assert summary["duration_s"] == 0.01

    def test_load_trace_round_trip(self, tmp_path):
        sc = load_scenario(minimal_doc())
        trace, _ = run_simulation(sc)
        path = tmp_path / "trace.jsonl"
        emit_trace(trace, path)
        assert load_trace(path) == json.loads(json.dumps(trace))

    def test_missing_trace_path_raises_with_context(self, tmp_path):
        with pytest.raises(OSError, match="nope"):
            load_trace(tmp_path / "nope.jsonl")

    def test_foot_geometry_is_computed_about_once_per_tick(self, monkeypatch):
        calls = 0
        original = harness.world_feet

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "world_feet", counting)
        trace, _ = run_simulation(load_scenario(bundled_scenario_path("block10")))
        assert calls / len(trace) < 2.0

    def test_body_frame_feet_are_computed_about_once_per_tick(self, monkeypatch):
        # _snapshot reuses the body-frame feet _resolve_pose solved the pose with
        calls = count_calls(monkeypatch, "body_frame_feet", kinematics, harness)
        trace, _ = run_simulation(load_scenario(bundled_scenario_path("block10")))
        assert calls[0] / len(trace) <= 1.1

    @pytest.mark.parametrize("imu_noise_deg", [0.0, 0.5])
    def test_ramp_strides_build_a_bounded_number_of_curves(self, imu_noise_deg, monkeypatch):
        # the selector asks for a tilted spec on every tick on the ramp, and
        # under noise every pitch reading differs; only each stride builds a curve
        calls = count_calls(monkeypatch, "make_trajectory", trajectory, gait)
        doc = json.loads(bundled_scenario_path("ramp20").read_text())
        doc.update(sensors={"imu_noise_deg": imu_noise_deg}, seed=0)
        trace, _ = run_simulation(load_scenario(doc))
        strides = sum(ev["type"] == "step_start" for rec in trace for ev in rec["events"])
        assert strides > 0
        assert calls[0] <= strides

    @pytest.mark.parametrize("name, overrides, digest", DIGEST_ROWS)
    def test_bundled_traces_match_the_reference_digest(self, name, overrides, digest, tmp_path):
        doc = json.loads(bundled_scenario_path(name).read_text())
        doc.update(overrides)
        trace, _ = run_simulation(load_scenario(doc))
        path = tmp_path / "trace.jsonl"
        emit_trace(trace, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("row", [pytest.param(row, id=row["id"]) for row in BEHAVIOUR_ORACLE])
    def test_bundled_runs_match_the_behaviour_oracle(self, row):
        doc = json.loads(bundled_scenario_path(row["scenario"]).read_text())
        doc.update(row["overrides"])
        trace, summary = run_simulation(load_scenario(doc))
        assert len(trace) == row["ticks"]
        assert [[ev["type"], ev["t"]] for rec in trace for ev in rec["events"]] == row["events"]
        assert summary["halt"] == row["halt"]
        assert summary["min_margin_cm"] == pytest.approx(row["min_margin_cm"], abs=1e-9)

    def test_no_numpy_scalar_reaches_the_engine_or_the_trace(self):
        engine = harness.SimEngine(load_scenario(bundled_scenario_path("rope12to5")))
        engine.run_mission()

        def leaves(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        state = [dataclasses.asdict(engine.pose), dataclasses.asdict(engine.joints),
                 dataclasses.asdict(engine.feet)]
        kinds = {type(v) for v in leaves(state + engine.trace)}
        assert kinds <= {float, int, bool, str, type(None)}

    @pytest.mark.parametrize("name, reason", [("block14", "infeasible obstacle"), ("ramp25", "slip")])
    def test_a_halt_inside_a_tick_is_one_event_at_the_summary_time(self, name, reason):
        trace, summary = run_simulation(load_scenario(bundled_scenario_path(name)))
        assert summary["halt"]["reason"] == reason
        assert summary["halts"] == [{"type": "halt", **summary["halt"]}]
        (record,) = [rec for rec in trace if any(ev["type"] == "halt" for ev in rec["events"])]
        assert record["t"] == summary["halt"]["t"]
        assert trace[-1] is record  # the run ends on the halt tick

    def test_halt_time_is_a_whole_number_of_ticks(self):
        sc = load_scenario(minimal_doc(mission=[walk(distance_cm=300.0, adaptive=False)]))
        sc.max_sim_time_s = 7.0
        _trace, summary = run_simulation(sc)
        assert summary["halt"] == {"t": 7.0, "reason": "timeout"}


class TestContainedFailures:
    @staticmethod
    def failing_pose_solve(monkeypatch, on_call):
        calls = 0
        original = harness.rigid_pose_from_pins

        def solve(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == on_call:
                raise ContactViolation("stance feet cannot stay pinned (residual 1 cm)")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "rigid_pose_from_pins", solve)

    def test_pose_solve_failure_is_a_recorded_halt(self, monkeypatch):
        self.failing_pose_solve(monkeypatch, on_call=50)
        trace, summary = run_simulation(load_scenario(minimal_doc()))
        assert summary["halt"] == {"t": 0.49, "reason": "contact violation"}
        assert not summary["mission_success"]
        assert len(trace) == 50
        # the failed tick keeps the pose of the tick before it
        assert (trace[-1]["x"], trace[-1]["z"]) == (trace[-2]["x"], trace[-2]["z"])

    def test_pose_solve_failure_is_a_trace_event(self, monkeypatch):
        self.failing_pose_solve(monkeypatch, on_call=50)
        trace, summary = run_simulation(load_scenario(minimal_doc()))
        assert trace[-1]["events"][-1] == {"type": "halt", "reason": "contact violation", "t": 0.49}
        assert summary["halts"] == [trace[-1]["events"][-1]]

    def test_pose_solve_failure_exits_2(self, monkeypatch, tmp_path, capsys):
        self.failing_pose_solve(monkeypatch, on_call=50)
        rc = main(["run", "--scenario", str(bundled_scenario_path("flat")),
                   "--summary", str(tmp_path / "s.json")])
        assert rc == 2
        assert json.loads((tmp_path / "s.json").read_text())["halt"]["reason"] == "contact violation"
        assert "Traceback" not in capsys.readouterr().err


class TestDeterminism:
    def test_identical_seeds_give_byte_identical_traces(self):
        doc = minimal_doc(seed=5, sensors={"imu_noise_deg": 0.3})
        blobs = []
        for _ in range(2):
            trace, _ = run_simulation(load_scenario(doc))
            blobs.append("\n".join(json.dumps(r, separators=(",", ":")) for r in trace))
        assert blobs[0] == blobs[1]

    def test_different_seeds_differ_under_noise(self):
        def digest(seed):
            doc = minimal_doc(seed=seed, sensors={"imu_noise_deg": 0.3})
            trace, _ = run_simulation(load_scenario(doc))
            return "\n".join(json.dumps(r["sensors"], separators=(",", ":")) for r in trace)

        assert digest(1) != digest(2)


class TestTraceToSvg:
    def test_single_rect1_stride_renders_its_rectangle(self, tmp_path):
        doc = minimal_doc(mission=[{"type": "walk", "distance_cm": 34.0,
                                    "trajectory": "rect1", "adaptive": False}])
        trace, _ = run_simulation(load_scenario(doc))
        out = tmp_path / "plot.svg"
        trace2svg(trace, out)
        svg = out.read_text()
        assert svg.startswith("<svg")
        polylines = re.findall(r'<polyline points="([^"]+)"', svg)
        assert len(polylines) >= 2  # foot path plus reference overlay
        # the foot path (solid stroke) bounding box matches the stride shape
        foot_paths = re.findall(r'<polyline points="([^"]+)" fill="none" stroke="#26c"', svg)
        pts = []
        for path in foot_paths:
            pts += [tuple(map(float, p.split(","))) for p in path.split()]
        xs = [p[0] for p in pts]
        assert max(xs) - min(xs) > 0.0

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(Exception):
            trace2svg([], tmp_path / "x.svg")


def record(*events, feet=[[0, 0, 0]] * 4):
    """One trace line as JSON text."""
    return json.dumps({"feet": feet, "events": list(events)})


def step_start(**fields):
    """A step_start event; ``fields`` replace its well-formed ones."""
    return {"type": "step_start", "pair": "AC", "span_cm": 34, "trajectory": "triangular", **fields}


class TestCli:
    def test_run_exit_codes(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(bundled_scenario_path("flat")),
                   "--summary", str(tmp_path / "s.json")])
        assert rc == 0
        rc = main(["run", "--scenario", str(bundled_scenario_path("block14")),
                   "--summary", str(tmp_path / "s14.json")])
        assert rc == 2
        summary = json.loads((tmp_path / "s14.json").read_text())
        assert summary["halt"]["reason"] == "infeasible obstacle"

    def test_run_missing_file_is_an_error(self, capsys):
        assert main(["run", "--scenario", "/nonexistent.json"]) == 1

    def test_steer_subcommand(self, capsys):
        rc = main(["steer", "--angle", "30"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["final_heading_deg"] == pytest.approx(30.0, abs=1.0)

    def test_zero_tick_steer_prints_strict_json(self, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["steer", "--angle", "0"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["ticks"] == 0
        assert out["min_margin_cm"] is None
        assert out["trace_schema"] == 2

    def test_removed_lidar_key_is_an_input_error(self, tmp_path, capsys):
        doc = minimal_doc(sensors={"lidar": {"angular_resolution_deg": 0}})
        path = tmp_path / "lidar.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "{list_json}", "--seed", "3"],
        ["compare-trajectories", "--L", "50"],
        ["compare-trajectories", "--H", "0"],
        ["steer", "--angle", "nan"],
        ["run", "--scenario", "{block14}", "--trace", "{missing}/t.jsonl"],
        ["run", "--scenario", "{block14}", "--summary", "{missing}/s.json"],
        ["steer", "--angle", "10", "--trace", "{missing}/x.jsonl"],
    ])
    def test_input_and_output_errors_exit_1(self, argv, tmp_path, capsys):
        list_json = tmp_path / "list.json"
        list_json.write_text("[1, 2]")
        names = {"list_json": list_json, "block14": bundled_scenario_path("block14"),
                 "missing": tmp_path / "missing"}
        assert main([arg.format(**names) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text, line", [
        ("[1, 2]\n", 1),
        ('{"t": 0.0, "events": []}\n', 1),
        ('{"t": 0.0, "feet": [], "events": []}\n\n{"feet": [], "events": 3}\n', 3),
        ('{"feet": 1, "events": [{"type": "step_start"}]}\n', 1),
        (f'{record()}\n{record(step_start(pair="XY"))}\n', 2),
        (f'{record(step_start(trajectory="foo"))}\n{record()}\n', 1),
        (f'{record(step_start(span_cm="34"))}\n{record()}\n', 1),
        (f'{record(7)}\n', 1),
        (f'{record(step_start())}\n{record(feet=[1, 2, 3, 4])}\n', 2),
    ])
    def test_trace2svg_on_json_that_is_not_a_trace(self, text, line, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(text)
        assert main(["trace2svg", "--in", str(path), "--out", str(tmp_path / "p.svg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line {line}:" in err

    def test_trace2svg_subcommand(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        rc = main(["run", "--scenario", str(bundled_scenario_path("flat")),
                   "--trace", str(trace_path), "--summary", str(tmp_path / "s.json")])
        assert rc == 0
        rc = main(["trace2svg", "--in", str(trace_path), "--out", str(tmp_path / "p.svg")])
        assert rc == 0
        assert (tmp_path / "p.svg").read_text().startswith("<svg")


class TestNoisePresets:
    def test_behaviors_hold_under_imu_noise(self):
        # the bundled scenarios run noiseless by default; with a noise preset
        # the behavioral outcomes must not change
        expectations = {
            "turn45": ("mission_success", True),
            "block10": ("mission_success", True),
            "ramp25": ("mission_success", False),
        }
        for name, (key, expected) in expectations.items():
            doc = json.loads(bundled_scenario_path(name).read_text())
            doc["sensors"] = {"imu_noise_deg": 0.5}
            _trace, summary = run_simulation(load_scenario(doc))
            assert summary[key] is expected, name
        doc = json.loads(bundled_scenario_path("turn45").read_text())
        doc["sensors"] = {"imu_noise_deg": 0.5}
        _trace, summary = run_simulation(load_scenario(doc))
        assert abs(summary["final_heading_deg"] - 45.0) <= 1.0


class TestTurnBoundaries:
    def test_turn_at_the_full_steering_travel(self):
        # 90 degrees parks the joint on its end-of-travel switch; the turn
        # still completes within the heading tolerance and walking can resume
        doc = {
            "schema_version": 1,
            "mission": [
                {"type": "turn", "angle_deg": 90.0},
                {"type": "walk", "distance_cm": 51.0, "trajectory": "triangular",
                 "adaptive": False},
            ],
        }
        trace, summary = run_simulation(load_scenario(doc))
        assert summary["mission_success"]
        assert abs(summary["final_heading_deg"] - 90.0) <= 1.0
        assert trace[-1]["z"] == pytest.approx(51.0, abs=1.5)

    def test_negative_turn_mirrors(self):
        doc = {"schema_version": 1, "mission": [{"type": "turn", "angle_deg": -45.0}]}
        _trace, summary = run_simulation(load_scenario(doc))
        assert summary["mission_success"]
        assert abs(summary["final_heading_deg"] + 45.0) <= 1.0

    def test_turns_beyond_the_travel_run_in_segments(self):
        for angle in (135.0, 180.0, -135.0):
            doc = {"schema_version": 1, "mission": [{"type": "turn", "angle_deg": angle}]}
            trace, summary = run_simulation(load_scenario(doc))
            assert summary["mission_success"], angle
            err = (summary["final_heading_deg"] - angle + 180.0) % 360.0 - 180.0
            assert abs(err) <= 1.0, angle
            drift = math.hypot(trace[-1]["x"] - trace[0]["x"], trace[-1]["z"] - trace[0]["z"])
            assert drift < 1.0


def turn45_run(imu_noise_deg: float, seed: int) -> tuple[list[dict], dict]:
    doc = json.loads(bundled_scenario_path("turn45").read_text())
    doc.update(sensors={"imu_noise_deg": imu_noise_deg}, seed=seed)
    return run_simulation(load_scenario(doc))


class TestNoisyTurns:
    @pytest.fixture(scope="class")
    def noiseless_ticks(self):
        return len(turn45_run(0.0, 0)[0])

    # the rotations servo the steering joint, so IMU noise cannot stall them
    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("imu_noise_deg", [0.25, 0.5, 1.0])
    def test_noisy_turn_lands_in_about_the_noiseless_time(self, imu_noise_deg, seed, noiseless_ticks):
        trace, summary = turn45_run(imu_noise_deg, seed)
        assert summary["mission_success"]
        assert abs(summary["final_heading_deg"] - 45.0) <= 1.0
        assert len(trace) <= 1.5 * noiseless_ticks


class TestTerrainTransitionRegressions:
    def test_ramp_base_mid_stride_landing_does_not_wedge(self):
        # one swing foot lands on the incline before its partner reaches the
        # flat: the stride must still finish instead of fighting the shape
        doc = {
            "schema_version": 1,
            "world": {"obstacles": [
                {"type": "ramp", "x_start_cm": 50.3, "incline_deg": 18.0, "length_cm": 400.0}
            ]},
            "mission": [{"type": "walk", "distance_cm": 100.0, "trajectory": "triangular",
                         "adaptive": True}],
        }
        _trace, summary = run_simulation(load_scenario(doc))
        assert summary["mission_success"]
        assert summary["stability_violations"] == 0


class TestStanceConservation:
    def test_stance_feet_hold_their_world_positions_through_each_phase(self):
        # a grounded diagonal pair must not creep while it carries the body
        trace, _ = run_simulation(load_scenario(bundled_scenario_path("flat")))
        pair_legs = {"AC": (0, 2), "BD": (1, 3)}
        anchor = None
        label = None
        worst = 0.0
        for rec in trace:
            if rec["stance"] not in pair_legs:
                anchor, label = None, None
                continue
            if rec["stance"] != label:
                label = rec["stance"]
                anchor = [rec["feet"][leg][:] for leg in pair_legs[label]]
                continue
            for (ax, _ay, az), leg in zip(anchor, pair_legs[label]):
                fx, _fy, fz = rec["feet"][leg]
                worst = max(worst, math.hypot(fx - ax, fz - az))
        assert worst < 1e-9


class TestAutoNavigate:
    def test_reaches_a_goal_requiring_a_turn(self):
        doc = {
            "schema_version": 1,
            "mission": [
                {"type": "auto_navigate", "goal_xz_cm": [60.0, 60.0], "tolerance_cm": 6.0}
            ],
        }
        trace, summary = run_simulation(load_scenario(doc))
        assert summary["mission_success"]
        assert summary["commands"][0]["distance_to_goal_cm"] <= 6.0

    def test_goal_beyond_the_run_halts_before_planning(self, monkeypatch):
        # the walk load_scenario would reject, planned at run time
        calls = count_calls(monkeypatch, "plan_straight_walk", gait)
        sc = load_scenario(minimal_doc(mission=[{"type": "auto_navigate", "goal_xz_cm": [2000, 0]}]))
        sc.max_sim_time_s = 1.0
        trace, summary = run_simulation(sc)
        assert summary["halt"] == {"t": 0.0, "reason": "walk too long"}
        assert not summary["mission_success"]
        assert trace == []
        assert calls[0] == 0


class TestTrotInvariant:
    def test_flat_ground_grounded_sets_are_diagonal_or_all(self):
        for name in ("flat", "turn45", "rope12to5"):
            trace, _ = run_simulation(load_scenario(bundled_scenario_path(name)))
            labels = {rec["stance"] for rec in trace}
            assert labels <= {"AC", "BD", "ALL"}, name

    def test_uneven_terrain_never_drops_below_a_diagonal(self):
        # staggered touch-downs on steps and slopes may ground three feet,
        # but the grounded set always contains a full diagonal pair
        diagonals = ({0, 2}, {1, 3})
        for name in ("block10", "ramp20"):
            sc = load_scenario(bundled_scenario_path(name))
            trace, _ = run_simulation(sc)
            for rec in trace:
                grounded = {
                    i
                    for i, (fx, fy, fz) in enumerate(rec["feet"])
                    if fy <= sc.world.terrain_height(fx, fz) + 0.1
                }
                assert any(d <= grounded for d in diagonals), (name, grounded)


class TestWalkOverrides:
    def test_walk_accepts_stride_overrides(self):
        doc = minimal_doc(
            mission=[{
                "type": "walk", "distance_cm": 30.0, "trajectory": "triangular",
                "adaptive": False, "stride_L_cm": 20.0, "stride_H_cm": 4.0,
            }]
        )
        trace, summary = run_simulation(load_scenario(doc))
        assert summary["mission_success"]
        spans = [
            ev["span_cm"]
            for rec in trace
            for ev in rec.get("events", [])
            if ev["type"] == "step_start"
        ]
        # interior strides span the overridden length
        assert max(spans) == pytest.approx(20.0)

    def test_lidar_csv_export(self):
        from prisquad.model import BodyPose, Box, WorldModel
        from prisquad.sensors import LidarConfig, lidar_scan, lidar_scan_to_csv

        cfg = LidarConfig(angular_resolution_deg=10.0, sector_deg=(-20.0, 20.0))
        world = WorldModel(obstacles=[Box(x=60.0, z=0.0, width=100.0, depth=10.0, height=60.0)])
        scan = lidar_scan(BodyPose(), world, cfg)
        csv = lidar_scan_to_csv(scan, BodyPose(), cfg)
        lines = csv.strip().splitlines()
        assert lines[0] == "azimuth_deg,range_cm,x_global,z_global"
        assert len(lines) == len(scan) + 1
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(-20.0)

    def test_scenario_output_paths_are_honored(self, tmp_path):
        doc = minimal_doc(
            output={
                "trace_jsonl": str(tmp_path / "out.jsonl"),
                "summary_json": str(tmp_path / "out.json"),
            }
        )
        run_simulation(load_scenario(doc))
        assert (tmp_path / "out.jsonl").exists()
        written = json.loads((tmp_path / "out.json").read_text())
        assert written["mission_success"]

    def test_trace_records_per_swing_foot_tracking_errors(self):
        trace, _ = run_simulation(load_scenario(minimal_doc()))
        mid = trace[len(trace) // 3]
        errs = mid["tracking_errors"]
        assert len(errs) == 4
        swing = [e for e in errs if e is not None]
        if mid["stance"] in ("AC", "BD"):
            assert len(swing) == 2
            assert all(len(e) == 2 for e in swing)

    def test_cli_seed_and_dt_overrides(self, tmp_path, capsys):
        rc = main([
            "run", "--scenario", str(bundled_scenario_path("flat")),
            "--summary", str(tmp_path / "s.json"), "--seed", "9", "--dt", "0.02",
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["seed"] == 9
        assert summary["dt"] == 0.02
