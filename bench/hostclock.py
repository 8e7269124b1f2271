"""A fixed reference task that tracks how fast the shared host runs right now.

The benchmark's host is a few vCPUs of a shared machine.  Its speed swings
by up to 2x for seconds to minutes as neighbours load the same cores, and
CPU time swings with wall time, so one run of a report mostly measures the
neighbours.  ``anchor()`` runs a small, fixed mix of the kinds of work
carleson_kit does (Python-level loops over complex numbers, numpy vector
maths on a few thousand points, small dense linear algebra) and returns its
wall time.  It uses nothing from carleson_kit, so no change to the program
can move it; timed between reports, it says how fast the host was when they
ran.

``HostClock`` takes an anchor before a timed loop, after every report that
ends at least ``ANCHOR_EVERY_S`` after the previous anchor, and after the
loop.  It turns each report's wall time into *reference seconds*: the wall
time scaled by ``REFERENCE_S`` over the mean of the two anchors around the
report, that is, the time the report would take on the host at the speed
where the anchor takes ``REFERENCE_S``.
"""

from __future__ import annotations

import cmath
import math
from time import perf_counter

import numpy as np

# anchor() on the quiet 2-vCPU Xeon host the benchmark was tuned on (its
# fastest spells; the median there was about 7 ms)
REFERENCE_S = 0.005
ANCHOR_EVERY_S = 0.2  # about 3% of a timed loop goes to anchors

_RNG = np.random.default_rng(20260101)
_Z = np.exp(2j * np.pi * _RNG.random(2048)) * np.sqrt(_RNG.random(2048))
_M = _RNG.standard_normal((48, 48)) + 1j * _RNG.standard_normal((48, 48))
_POINTS = [complex(z) for z in _Z[:256]]


def _python_part() -> float:
    total = 0.0
    a = 0.3 + 0.4j
    for z in _POINTS:
        for w in _POINTS[:24]:
            total += abs((z - w) / (1.0 - w.conjugate() * z + 1e-9))
        total += math.log1p(abs(cmath.exp(a * z)))
    return total


def _numpy_part() -> float:
    total = 0.0
    for k in range(24):
        w = np.exp(1j * k * 0.01) * 0.5
        d = np.abs((_Z - w) / (1.0 - np.conj(w) * _Z))
        total += float(np.cumsum(np.log(d + 1e-12)).sum())
        total += float(np.sort(d)[1024])
    return total


def _linalg_part() -> float:
    g = _M.conj().T @ _M + 48.0 * np.eye(48)
    total = 0.0
    for k in range(12):
        total += float(np.linalg.norm(np.linalg.solve(g, _M[:, k])))
        total += float(np.linalg.svd(_M[: 8 + k, : 8 + k], compute_uv=False)[0])
    return total


def anchor() -> float:
    """Wall seconds of one fixed reference task (about 5 ms on a quiet host)."""
    start = perf_counter()
    _python_part()
    _numpy_part()
    _linalg_part()
    return perf_counter() - start


def anchor_median(count: int = 5) -> float:
    """Median of ``count`` anchors after one untimed call (for a fresh process)."""
    anchor()
    return sorted(anchor() for _ in range(count))[count // 2]


class HostClock:
    """Anchors taken between the reports of a timed loop."""

    def __init__(self):
        self.anchors = [(0, anchor())]  # (reports done before it, seconds)
        self.done = 0
        self._last = perf_counter()

    def after_report(self, _report=None) -> None:
        self.done += 1
        if perf_counter() - self._last >= ANCHOR_EVERY_S:
            self.anchors.append((self.done, anchor()))
            self._last = perf_counter()

    def close(self) -> None:
        self.anchors.append((self.done, anchor()))

    def local_anchors(self) -> list[float]:
        """For report i, the mean of the last anchor before it and the first after it."""
        out, k = [], 0
        for i in range(self.done):
            while self.anchors[k + 1][0] <= i:
                k += 1
            out.append((self.anchors[k][1] + self.anchors[k + 1][1]) / 2.0)
        return out

    def reference_seconds(self, samples: list[float]) -> list[float]:
        return [t * REFERENCE_S / a for t, a in zip(samples, self.local_anchors(), strict=True)]
