"""Machine-speed calibration.

The benchmark shares its machine: measured on a 2-vCPU Xeon at 2.1 GHz, the
same pure-Python work took anywhere from 1.0 to 1.7 times its fastest time,
in stretches lasting seconds to minutes, and process CPU time swung the same
way. Host times are therefore scaled to a reference speed: ``calibrate``
times a fixed piece of work that does not touch the program (dict and list
churn, small objects through a queue, JSON encoding, small least-squares
fits, the operations the simulator is made of) right before and right after
each timed piece, and a host time ``t`` is reported as
``t * REFERENCE_S / calibration``: the time the piece would have taken with
the machine in its reference state.
"""
from __future__ import annotations

import json
from collections import deque
from time import perf_counter

import numpy as np

# calibrate() on the machine above in its fast state
REFERENCE_S = 0.010

_REPEATS = 3


class _Box:
    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.level = float(ident)

    def step(self, s: int) -> float:
        self.level = (self.level * 1.1 + s) % 97.0
        return self.level


def _dicts() -> None:
    series: dict[str, list[float]] = {}
    for i in range(6000):
        row = series.setdefault(f"k{i % 97}", [])
        row.append(i * 0.5)
        if len(row) > 20:
            row.append(sum(row) / len(row))
            row.clear()
    json.dumps(series)


def _objects() -> None:
    boxes = [_Box(i) for i in range(200)]
    queue: deque[dict] = deque()
    seen: dict[int, list[dict]] = {}
    for s in range(30):
        for box in boxes:
            if box.step(s) > 50.0:
                queue.append({"id": box.ident, "t": s, "v": round(box.level, 3)})
        while queue:
            msg = queue.popleft()
            seen.setdefault(msg["id"], []).append(msg)
    json.dumps(sorted(seen.items()))


def _fits() -> None:
    for _ in range(20):
        points = [(t, float(t % 13)) for t in range(200)]
        means = [sum(v for _, v in points[i:i + 6]) / 6 for i in range(0, 200, 6)]
        z = np.diff(np.asarray(means))
        design = np.stack([z[4 - k:z.size - 1 - k] for k in range(5)], axis=1)
        np.linalg.lstsq(design, z[5:], rcond=None)


def calibrate() -> float:
    """Seconds the calibration work takes now: for each kind of work, the
    fastest of a few repeats, summed."""
    total = 0.0
    for work in (_dicts, _objects, _fits):
        best = float("inf")
        for _ in range(_REPEATS):
            start = perf_counter()
            work()
            best = min(best, perf_counter() - start)
        total += best
    return total


def scale(before: float, after: float) -> float:
    """Factor that takes a host time measured between two calibrations to
    the reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
