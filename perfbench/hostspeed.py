"""Host-speed calibration for the end-to-end timings.

On a shared machine a vCPU's speed changes by up to about 1.4x, every few
seconds, and a slow period can last a whole 30 s run; wall time and CPU time
change together.  Medians, minima and per-tick minima of raw host time all
spread past 25 % between runs of the same code.  So the end-to-end timings
are expressed in ``cal`` units: the time a fixed calibration loop, which
calls nothing of prisquad, takes at the host's speed of that moment.

The passes are cut into segments of ``EVERY_TICKS`` ticks with one
calibration loop between two segments and one at each end of a pass.  A
segment's wall time divided by the mean of the two calibrations around it is
its cost in ``cal``; a tick's latency is divided by the same mean.  The
calibration time itself is left out of every timing.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

EVERY_TICKS = 64
_MATRIX = np.arange(9.0).reshape(3, 3)
_VECTOR = np.arange(4.0)
_POINTS = [np.array([float(i), 1.0, 0.5]) for i in range(4)]
_BOXES = ((20.0, 26.0, -15.0, 15.0), (40.0, 70.0, 30.0, 36.0))


def calibration_loop() -> float:
    """Fixed work like the simulator's, about 0.7 ms on a 2-CPU cloud VM:
    small numpy calls on 3- and 4-vectors and a small record built in
    Python, then pure-Python float math like a lidar sweep's ray casts."""
    total = 0.0
    for i in range(6):
        total += float(np.linalg.norm(np.cos(_VECTOR + i) * _MATRIX[0, :1].sum()))
        total += float((_MATRIX @ _MATRIX).trace())
        feet = np.stack(_POINTS)
        centre = feet.mean(axis=0)
        total += float(np.cross(feet[0], feet[1])[2]) + math.hypot(centre[0], centre[1])
        record = {"tick": i, "feet": [float(p[0]) for p in _POINTS]}
        total += len(record["feet"])
    for k in range(48):
        angle = math.radians(2.5 * k - 59.0)
        dx, dz = math.cos(angle), math.sin(angle)
        best = 400.0
        for x0, x1, z0, z1 in _BOXES:
            tx0, tx1 = (x0 - 0.5) / dx, (x1 - 0.5) / dx
            tz0, tz1 = (z0 - 0.25) / dz, (z1 - 0.25) / dz
            near = max(min(tx0, tx1), min(tz0, tz1))
            far = min(max(tx0, tx1), max(tz0, tz1))
            if 0.0 < near <= far and near < best:
                best = near
        total += round(best / 0.5) * 0.5
    return total


class CalClock:
    """Times one pass in segments, with a calibration loop between them."""

    def __init__(self) -> None:
        self.cal_ns = array("q")
        self.segment_ns = array("q")
        self._mark = 0
        for _ in range(20):  # warm the loop up before its first timing
            calibration_loop()

    def begin(self) -> None:
        del self.cal_ns[:]
        del self.segment_ns[:]
        self.split()

    def split(self) -> None:
        """End the current segment (if any) and time one calibration loop."""
        clock = time.perf_counter_ns
        now = clock()
        if self.cal_ns:
            self.segment_ns.append(now - self._mark)
        calibration_loop()
        self._mark = clock()
        self.cal_ns.append(self._mark - now)

    def end(self) -> tuple[float, float, np.ndarray]:
        """Close the pass: its wall seconds without the calibrations, its cost
        in ``cal``, and the ns per ``cal`` of each segment."""
        self.split()
        cal = np.frombuffer(self.cal_ns, dtype=np.int64).astype(float)
        segments = np.frombuffer(self.segment_ns, dtype=np.int64)
        ns_per_cal = (cal[:-1] + cal[1:]) / 2.0
        return float(segments.sum()) / 1e9, float((segments / ns_per_cal).sum()), ns_per_cal
