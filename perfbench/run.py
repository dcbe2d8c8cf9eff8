"""prisquad benchmark: one command for the three mission workloads.

    python3 perfbench/run.py --workload obstacle_course --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced pass.  The passes run in one child process, which
times set-up in fresh processes of its own, one process at a time.  The
last line of output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170.0

UNITS = {
    "setup_s": "s",
    "run_cal": "cal",
    "ticks_per_cal": "1/cal",
    "tick_p50_cal": "cal",
    "tick_p99_cal": "cal",
    "peak_rss_mb": "MB",
    "mission_sim_s": "sim_s",
    "min_margin_cm": "cm",
}


def layer_unit(name: str) -> str:
    kind = name.rsplit(".", 1)[1]
    return {
        "calls_per_tick": "calls/tick",
        "self_us": "us/tick",
        "calls": "count",
        "ms": "ms/pass",
        "beams_per_tick": "beams/tick",
        "trajectory_switches": "count",
        "trace_bytes": "bytes",
        "import_ms": "ms",
        "coverage_pct": "%",
        "overhead_s": "s",
    }[kind]


def measure(*args: str) -> dict:
    """Run the measuring child process to completion and return its result.

    The child runs in its own process group, so a timeout also ends the
    set-up process it may be waiting for.
    """
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "measure", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"error: measuring process ran past {CHILD_TIMEOUT_S:.0f} s")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"error: measuring process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "prisquad" / "__init__.py").is_file():
        print(f"error: no prisquad package under {SRC}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=HERE.parent) as workdir:
        result = measure(args.workload, str(args.seed), str(args.seconds), str(args.trace), workdir)
    metrics = result["metrics"]
    units = {name: layer_unit(name) if args.trace else UNITS[name] for name in metrics}

    notes = result["notes"]
    print(f"workload {args.workload}  seed {args.seed}  {'traced' if args.trace else 'end to end'}")
    print("closed loop: one client, missions back to back, no real-time pacing")
    for key, value in notes.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                print(f"  {key} {sub}: {v}")
        elif value is not None:
            print(f"  {key}: {value}")
    if not args.trace:
        ticks = notes["ticks_per_pass"]
        print(f"  setup_s: median of {notes['setup_processes']} fresh processes; tick percentiles over the "
              f"{ticks} ticks of a pass, each the median of its {notes['tick_passes']} passes' "
              f"SimEngine.step samples ({ticks - math.ceil(0.99 * ticks)} beyond p99)")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(f"operations attempted {result['attempted']}, failed {len(result['failures'])}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}")
    print(json.dumps({
        "correct": not result["failures"] and not result["problems"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
