"""Reference kernel: a fixed Python-and-numpy loop that never imports fmasim.

The benchmark times this kernel just before and just after every timed
pass and divides the pass time by the mean of the two, so a drift in the
host's speed that lasts longer than a pass cancels out of ``wall_rel``.
The mix matches what the workloads spend their time on: interpreted
scalar arithmetic, a deque-based moving average, and small 3-vector and
3x3 numpy calls.
"""
from __future__ import annotations

import math
import time
from collections import deque

import numpy as np

ITERATIONS = 3000


def reference_kernel(iterations: int = ITERATIONS) -> float:
    """Run the fixed loop once and return a checksum of its work."""
    c, s = math.cos(0.01), math.sin(0.01)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r = np.eye(3)
    v = np.array([0.3, -0.2, 0.1])
    history = deque([0.0] * 16, maxlen=16)
    acc = 0.0
    for i in range(iterations):
        x = i * 1.0e-3
        history.append(math.sin(x) * math.exp(-0.1 * x) + 0.2 * (1.0 - math.exp(-0.0047 * x)))
        acc += sum(history) / 16.0
        r = r @ rot
        v = np.cross(r[:, 2], v) + 0.5 * v
        acc += float(v @ v)
    return acc


def timed_reference() -> float:
    """Seconds one run of the reference kernel takes."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
