"""Child processes of the benchmark.

    python3 perfbench/child.py measure <workload> <seed> <seconds> <trace 0|1> <workdir>
    python3 perfbench/child.py setup   <workload> <seed>

``run.py`` starts one ``measure`` process, which runs the workload in rounds
until the next round would overrun ``seconds``.  A round starts one
``setup`` process and waits for it, so set-up is sampled across the whole
run and never overlaps a pass.  Then it runs one untraced pass for the
end-to-end metrics, timed in ``cal`` units (see ``hostspeed.py``), or a traced pass followed by an untraced one for the
per-layer split.  ``setup`` times a fresh import of prisquad plus loading
the workload's scenarios and constructing a ``SimEngine`` for each.  Either
role prints one JSON object as its last line of output.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import PassResult, Workload, scenario_docs  # noqa: E402 - no prisquad import

MIN_TIMED_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
COVERAGE_TOLERANCE_PCT = 5.0


def import_prisquad() -> None:
    """Import the package from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import prisquad
    import prisquad.cli  # noqa: F401 - every module must be loaded before tracing

    if Path(prisquad.__file__).resolve().parent != SRC / "prisquad":
        raise SystemExit(f"error: prisquad imported from {prisquad.__file__}, not {SRC}")


def setup(workload: str, seed: int) -> dict:
    started = time.perf_counter()
    import_prisquad()
    from prisquad import harness

    imported = time.perf_counter()
    for doc in scenario_docs(workload, seed, SRC).values():
        harness.SimEngine(harness.load_scenario(doc))
    return {"setup_s": time.perf_counter() - started, "import_ms": (imported - started) * 1e3}


class Rounds:
    """Set-up samples and timed passes, round after round, within ``seconds``."""

    def __init__(self, wl: Workload, seed: int, seconds: float, minimum: int):
        self.wl, self.seed, self.seconds, self.minimum = wl, seed, seconds, minimum
        self.setups: list[dict] = []
        self.count = 0
        self.spent = 0.0

    def more(self) -> bool:
        """Whether another round fits in ``seconds`` (or too few have run)."""
        n = self.count
        return n < self.minimum or self.spent * (n + 1) / n <= self.seconds

    def start(self) -> None:
        """Time set-up once in a fresh process, then count a new round."""
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "setup", self.wl.name, str(self.seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        self.setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        self.count += 1

    def timed_pass(self, hash_traces: bool = False) -> tuple[float, PassResult]:
        started = time.perf_counter()
        result = self.wl.run_pass(hash_traces)
        took = time.perf_counter() - started
        self.spent += took
        return took, result

    def setup_median(self, key: str) -> float:
        return statistics.median(s[key] for s in self.setups)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def check_passes(results: list[PassResult]) -> dict:
    """Count operations and their failures; a pass whose deterministic numbers
    differ from the first pass is a problem of its own."""
    out = {"attempted": 0, "failures": [], "problems": []}
    expected = results[0].fingerprint()
    for i, result in enumerate(results):
        out["attempted"] += result.attempted
        out["failures"] += result.failures
        if result.fingerprint() != expected:
            out["problems"].append(f"pass {i}: deterministic numbers differ from the first pass")
    return out


def outcomes(result: PassResult) -> dict[str, str]:
    return {k: s["halt"]["reason"] if s["halt"] else "success" for k, s in result.summaries.items()}


def measure_end_to_end(rounds: Rounds) -> dict:
    import numpy as np
    from hostspeed import EVERY_TICKS, CalClock
    from prisquad.harness import SimEngine

    # time every tick from outside the engine; the probe adds two clock reads,
    # and every EVERY_TICKS ticks one calibration loop that no timing includes
    cal = CalClock()
    latencies = array("q")
    step = SimEngine.step
    clock = time.perf_counter_ns

    def timed_step(engine):
        if latencies and len(latencies) % EVERY_TICKS == 0:
            cal.split()
        began = clock()
        record = step(engine)
        latencies.append(clock() - began)
        return record

    passes, tick_cal, cal_ns = [], [], array("q")
    peak_rss_mb = 0.0
    SimEngine.step = timed_step
    try:
        while rounds.more():
            rounds.start()
            del latencies[:]
            cal.begin()
            _, result = rounds.timed_pass()
            wall_s, cost_cal, ns_per_cal = cal.end()
            cal_ns.extend(cal.cal_ns)
            passes.append((wall_s, cost_cal, result))
            lat = np.frombuffer(latencies, dtype=np.int64).copy()
            tick_cal.append(lat / ns_per_cal[np.arange(len(lat)) // EVERY_TICKS])
            if len(passes) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        SimEngine.step = step

    first = passes[0][2]
    run_cal = statistics.median(c for _, c, _ in passes)
    # every pass runs the same ticks: take each tick's median over the passes
    same = [t for t in tick_cal if len(t) == len(tick_cal[0])]
    ticks = np.sort(np.median(np.stack(same), axis=0))
    return {
        **check_passes([r for _, _, r in passes]),
        "metrics": {
            "setup_s": rounds.setup_median("setup_s"),
            "run_cal": run_cal,
            "ticks_per_cal": first.ticks / run_cal,
            "tick_p50_cal": float(percentile(ticks, 0.50)),
            "tick_p99_cal": float(percentile(ticks, 0.99)),
            "peak_rss_mb": peak_rss_mb,
            "mission_sim_s": first.mission_sim_s,
            "min_margin_cm": first.min_margin_cm,
        },
        "notes": {
            "setup_processes": len(rounds.setups),
            "pass_s": [round(w, 4) for w, _, _ in passes],
            "pass_cal": [round(c, 1) for _, c, _ in passes],
            "run_s (host seconds, median)": round(statistics.median(w for w, _, _ in passes), 4),
            "cal_us (median calibration loop)": round(statistics.median(cal_ns) / 1e3, 2),
            "ticks_per_pass": first.ticks,
            "tick_passes": len(same),
            "speed_err_pct": first.speed_err_pct,
            "speeds": first.speeds,
            "outcomes": outcomes(first),
        },
    }


def measure_traced(rounds: Rounds) -> dict:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    traced, untraced, aggregates = [], [], []
    while rounds.more():
        rounds.start()
        tracer.reset()
        tracer.install()
        try:
            # the first traced pass also hashes the traces
            traced.append(rounds.timed_pass(hash_traces=not traced))
        finally:
            tracer.restore()
        aggregates.append(tracer.aggregate())
        # the untraced pass of the same round runs with every original back
        untraced.append(rounds.timed_pass())
    tracer.write(ROOT / ".perfbench-out" / f"spans-{rounds.wl.name}.npz")

    first = traced[0][1]
    took, last = traced[-1]
    agg = aggregates[-1]
    checked = check_passes([r for _, r in traced + untraced])
    problems = checked["problems"]
    if any((a["calls"], a["items"]) != (agg["calls"], agg["items"]) for a in aggregates):
        problems.append("call counts differ between traced passes")
    step_calls = agg["calls"][tracer.names.index("harness.step")]
    if step_calls != last.ticks:
        problems.append(f"{step_calls} traced steps for {last.ticks} ticks")
    coverage_pct = 100.0 * sum(agg["self_ns"]) / (took * 1e9)
    if abs(coverage_pct - 100.0) > COVERAGE_TOLERANCE_PCT:
        problems.append(f"layer self times cover {coverage_pct:.2f}% of the traced pass")

    metrics = layer_metrics(agg, last.ticks)
    metrics.update({
        "gait.trajectory_switches": last.trajectory_switches,
        "harness.trace_bytes": last.trace_bytes,
        "setup.import_ms": rounds.setup_median("import_ms"),
        "trace.coverage_pct": coverage_pct,
        "trace.overhead_s": statistics.median(t - u for (t, _), (u, _) in zip(traced, untraced)),
    })
    return {
        **checked,
        "metrics": metrics,
        "notes": {
            "setup_processes": len(rounds.setups),
            "traced_pass_s": [round(t, 4) for t, _ in traced],
            "untraced_pass_s": [round(t, 4) for t, _ in untraced],
            "ticks_per_pass": last.ticks,
            "spans_per_pass": agg["spans"],
            "speed_err_pct": first.speed_err_pct,
            "trace_sha256": first.trace_sha256,
            "outcomes": outcomes(first),
        },
    }


def main(argv: list[str]) -> int:
    role, workload, seed = argv[0], argv[1], int(argv[2])
    if role == "setup":
        out = setup(workload, seed)
    else:
        seconds, trace, workdir = float(argv[3]), argv[4] == "1", Path(argv[5])
        import_prisquad()
        wl = Workload(workload, seed, SRC, workdir)
        if trace:
            out = measure_traced(Rounds(wl, seed, seconds, MIN_TRACED_ROUNDS))
        else:
            out = measure_end_to_end(Rounds(wl, seed, seconds, MIN_TIMED_ROUNDS))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
