"""Command-line interface: run scenarios, turn in place, compare trajectory
timings and render trace plots.

Exit codes: 0 = mission success, 2 = mission failure recorded, 1 = usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .harness import (
    ScenarioError,
    emit_trace,
    load_scenario,
    load_trace,
    run_simulation,
    trace2svg,
)
from .model import TrajectoryKind, ValidationError
from .trajectory import preset, stride_timing


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. ``flat``)."""
    ref = resources.files("prisquad.scenarios").joinpath(f"{name}.json")
    return Path(str(ref))


def _given(**options) -> dict:
    """The options the user gave (those not None)."""
    return {key: value for key, value in options.items() if value is not None}


def _cmd_run(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.scenario).read_text())
    if isinstance(doc, dict):  # load_scenario rejects anything else at "$"
        doc.update(_given(seed=args.seed, dt=args.dt))
    scenario = load_scenario(doc)
    trace, summary = run_simulation(scenario)
    if args.trace:
        emit_trace(trace, args.trace)
    text = json.dumps(summary, indent=2, default=str)
    if args.summary:
        Path(args.summary).write_text(text + "\n")
    else:
        print(text)
    return 0 if summary["mission_success"] else 2


def _cmd_steer(args: argparse.Namespace) -> int:
    doc = {
        "schema_version": 1,
        "mission": [{"type": "turn", "angle_deg": args.angle}],
    }
    scenario = load_scenario(doc)
    trace, summary = run_simulation(scenario)
    if args.trace:
        emit_trace(trace, args.trace)
    print(json.dumps(summary, indent=2, default=str))
    return 0 if summary["mission_success"] else 2


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for kind in (
        TrajectoryKind.RECT1,
        TrajectoryKind.RECT2,
        TrajectoryKind.CIRCULAR,
        TrajectoryKind.TRIANGULAR,
    ):
        walk = {
            "type": "walk",
            "distance_cm": args.distance,
            "trajectory": kind.value,
            "adaptive": False,
            **_given(stride_L_cm=args.L, stride_H_cm=args.H),
        }
        doc = {"schema_version": 1, "mission": [walk]}
        scenario = load_scenario(doc)  # checks the overrides before anything uses them
        timing = stride_timing(preset(kind, stride_L=args.L, stride_H=args.H))
        _trace, summary = run_simulation(scenario)
        rows.append((kind.value, timing.stride_time_s, summary["avg_speed_cm_s"]))
    lines = ["kind,stride_time_s,speed_cm_s"]
    for kind, t, v in rows:
        lines.append(f"{kind},{t:g},{v:.4f}")
    csv = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_trace2svg(args: argparse.Namespace) -> int:
    trace2svg(load_trace(args.infile), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prisquad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--trace", help="write the JSONL trace here")
    p_run.add_argument("--summary", help="write the summary JSON here")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--dt", type=float)
    p_run.set_defaults(func=_cmd_run)

    p_steer = sub.add_parser("steer", help="turn in place from the base stance")
    p_steer.add_argument("--angle", type=float, required=True, help="degrees")
    p_steer.add_argument("--trace")
    p_steer.set_defaults(func=_cmd_steer)

    p_cmp = sub.add_parser(
        "compare-trajectories", help="timing and simulated speed per trajectory shape"
    )
    p_cmp.add_argument("--L", type=float, default=None, help="stride length override (cm)")
    p_cmp.add_argument("--H", type=float, default=None, help="stride height override (cm)")
    p_cmp.add_argument("--distance", type=float, default=153.0, help="walk length per run (cm)")
    p_cmp.add_argument("--out", help="write CSV here instead of stdout")
    p_cmp.set_defaults(func=_cmd_compare)

    p_svg = sub.add_parser("trace2svg", help="plot foot paths from a trace")
    p_svg.add_argument("--in", dest="infile", required=True)
    p_svg.add_argument("--out", required=True)
    p_svg.set_defaults(func=_cmd_trace2svg)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the one error boundary: bad input and unreadable or unwritable files
    # exit 1 with an "error:" line instead of a traceback
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ScenarioError,
            ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
