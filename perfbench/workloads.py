"""The benchmark's three workloads: their inputs, one pass of each, and the
outcome check of every operation (one mission run).

Scenario documents are built from the seed without importing prisquad, so a
fresh process can time the import itself.  A pass runs its missions back to
back with no real-time pacing; the next mission starts when the previous one
ends.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# paper rows: stride time (s) and walking speed (cm/s) per trajectory shape
PAPER_STRIDES = {
    "rect1": (3.6, 4.37),
    "rect2": (2.0, 8.05),
    "circular": (1.27, 12.44),
    "triangular": (1.0, 15.30),
}
SPEED_TOLERANCE = 0.15
STRIDE_DISTANCE_CM = 153.0

# obstacle_course missions and the halt each must end in (None: success)
COURSE = {
    "block10": None,
    "block14": "infeasible obstacle",
    "rope12to5": None,
    "ramp20": None,
    "ramp25": "slip",
}

TURN_DEG = 45.0
TURN_TOLERANCE_DEG = 1.0
IMU_NOISE_DEG = 0.5
# The noisy turn settles only after five consecutive raw yaw readings fall
# within 0.11 deg, so its length is close to exponential in the noise draw
# (1.3k to 28k ticks over scenario seeds 0-19).  Holding the draw fixed keeps
# the pass the same length on every benchmark seed; seed 0 is 11146 ticks.
IMU_NOISE_SEED = 0

WORKLOADS = ("obstacle_course", "stride_table", "noisy_turn")


def bundled(src: Path, name: str) -> dict:
    return json.loads((src / "prisquad" / "scenarios" / f"{name}.json").read_text())


def scenario_docs(workload: str, seed: int, src: Path) -> dict[str, dict]:
    """The scenario documents one pass of ``workload`` simulates, by mission."""
    if workload == "obstacle_course":
        docs = {}
        for name in COURSE:
            doc = bundled(src, name)
            doc["seed"] = seed
            docs[name] = doc
        return docs
    if workload == "stride_table":
        # the documents compare-trajectories builds for itself
        return {
            kind: {
                "schema_version": 1,
                "mission": [
                    {"type": "walk", "distance_cm": STRIDE_DISTANCE_CM, "trajectory": kind, "adaptive": False}
                ],
            }
            for kind in PAPER_STRIDES
        }
    if workload == "noisy_turn":
        doc = bundled(src, "turn45")
        doc["sensors"] = {"imu_noise_deg": IMU_NOISE_DEG}
        doc["seed"] = IMU_NOISE_SEED
        return {"turn45_noisy": doc}
    raise ValueError(f"unknown workload {workload!r}")


def trace_sha256(trace: list[dict]) -> str:
    """sha256 of the JSONL bytes ``emit_trace`` would write for ``trace``."""
    digest = hashlib.sha256()
    for record in trace:
        digest.update(json.dumps(record, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class PassResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    summaries: dict[str, dict] = field(default_factory=dict)
    trace_sha256: dict[str, str] = field(default_factory=dict)
    trace_bytes: int = 0
    speeds: dict[str, float] = field(default_factory=dict)

    def check(self, mission: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{mission}: {problem}")

    @property
    def ticks(self) -> int:
        return sum(s["ticks"] for s in self.summaries.values())

    @property
    def mission_sim_s(self) -> float:
        return sum(s["duration_s"] for s in self.summaries.values())

    @property
    def min_margin_cm(self) -> float:
        return min(s["min_margin_cm"] for s in self.summaries.values())

    @property
    def trajectory_switches(self) -> int:
        return sum(len(s["switch_events"]) for s in self.summaries.values())

    @property
    def speed_err_pct(self) -> float | None:
        if not self.speeds:
            return None
        return 100.0 * max(abs(v / PAPER_STRIDES[k][1] - 1.0) for k, v in self.speeds.items())

    def fingerprint(self) -> str:
        """Every deterministic number of the pass; equal passes give equal text."""
        per_mission = {
            name: [s["ticks"], s["duration_s"], s["distance_cm"], s["final_heading_deg"],
                   s["min_margin_cm"], s["halt"], len(s["switch_events"])]
            for name, s in self.summaries.items()
        }
        return json.dumps([per_mission, self.speeds, self.trace_bytes], sort_keys=True)


def success_problem(summary: dict) -> str | None:
    """Why a mission that should succeed did not, or None."""
    if not summary["mission_success"]:
        return f"expected success, got halt {summary['halt']}"
    if summary["stability_violations"] or summary["min_margin_cm"] < 0.0:
        return f"stability margin went negative ({summary['min_margin_cm']:.4f} cm)"
    return None


class Workload:
    """Inputs of one workload for one seed, and the pass that runs them."""

    def __init__(self, name: str, seed: int, src: Path, workdir: Path):
        from prisquad import cli, harness

        self.name, self.cli, self.harness = name, cli, harness
        self.docs = scenario_docs(name, seed, src)
        self.workdir = workdir
        if name == "noisy_turn":
            self.scenario_path = workdir / "noisy_turn.json"
            self.scenario_path.write_text(json.dumps(self.docs["turn45_noisy"]))

    def run_pass(self, hash_traces: bool = False) -> PassResult:
        result = PassResult()
        getattr(self, f"_{self.name}")(result, hash_traces)
        return result

    # Any exception from the program counts as a failed operation, so each
    # mission call below is a boundary that records it and carries on.

    def _obstacle_course(self, result: PassResult, hash_traces: bool) -> None:
        for name, doc in self.docs.items():
            try:
                trace, summary = self.harness.run_simulation(self.harness.load_scenario(doc))
            except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
                result.check(name, f"raised {type(exc).__name__}: {exc}")
                continue
            result.summaries[name] = summary
            if hash_traces:
                result.trace_sha256[name] = trace_sha256(trace)
            expected = COURSE[name]
            if expected is None:
                result.check(name, success_problem(summary))
            elif summary["mission_success"] or (summary["halt"] or {}).get("reason") != expected:
                result.check(name, f"expected halt {expected!r}, got {summary['halt']}")
            else:
                result.check(name, None)

    def _stride_table(self, result: PassResult, hash_traces: bool) -> None:
        csv_path = self.workdir / "stride_table.csv"
        run_simulation = self.cli.run_simulation

        def capture(scenario):
            trace, summary = run_simulation(scenario)
            kind = scenario.mission[0]["trajectory"]
            result.summaries[kind] = summary
            if hash_traces:
                result.trace_sha256[kind] = trace_sha256(trace)
            return trace, summary

        self.cli.run_simulation = capture
        try:
            code = self.cli.main(["compare-trajectories", "--out", str(csv_path)])
            rows = csv_path.read_text().strip().splitlines()
            table = {}
            if code == 0 and rows[0] == "kind,stride_time_s,speed_cm_s":
                table = {kind: (float(t), float(v)) for kind, t, v in (row.split(",") for row in rows[1:])}
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            for kind in PAPER_STRIDES:
                result.check(kind, f"compare-trajectories raised {type(exc).__name__}: {exc}")
            return
        finally:
            self.cli.run_simulation = run_simulation
        for kind, (paper_time, paper_speed) in PAPER_STRIDES.items():
            if kind not in table or kind not in result.summaries:
                result.check(kind, f"no row (exit code {code})")
                continue
            stride_time, speed = table[kind]
            result.speeds[kind] = speed
            if stride_time != paper_time:
                result.check(kind, f"stride time {stride_time} s, paper {paper_time} s")
            elif abs(speed / paper_speed - 1.0) > SPEED_TOLERANCE:
                result.check(kind, f"speed {speed} cm/s, paper {paper_speed} cm/s")
            else:
                result.check(kind, success_problem(result.summaries[kind]))

    def _noisy_turn(self, result: PassResult, hash_traces: bool) -> None:
        trace_path = self.workdir / "noisy_turn.jsonl"
        summary_path = self.workdir / "noisy_turn.summary.json"
        argv = ["run", "--scenario", str(self.scenario_path),
                "--trace", str(trace_path), "--summary", str(summary_path)]
        try:
            code = self.cli.main(argv)
            summary = json.loads(summary_path.read_text())
            result.trace_bytes = trace_path.stat().st_size
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            result.check("turn45_noisy", f"raised {type(exc).__name__}: {exc}")
            return
        result.summaries["turn45_noisy"] = summary
        error = summary["final_heading_deg"] - TURN_DEG
        if code != 0:
            result.check("turn45_noisy", f"exit code {code}, halt {summary['halt']}")
        elif abs(error) > TURN_TOLERANCE_DEG or math.isnan(error):
            result.check("turn45_noisy", f"final heading {summary['final_heading_deg']:.3f} deg")
        else:
            result.check("turn45_noisy", success_problem(summary))
