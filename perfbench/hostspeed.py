"""Host-speed normalisation of measured times.

On a shared host the speed of a core drifts by up to ~2x over seconds, with
no steal time visible to the guest, so raw wall times of the same code
spread by 15-35% between runs.  A fixed probe that does not touch entbounds
runs from a SIGALRM handler every ``PERIOD_S`` seconds and once before and
after each measured interval.  It does small-object churn, like the
interpreter-bound parts of an op, and 4x4 ``eigh`` calls, like its LAPACK
parts.  A measured interval is then converted to reference seconds:

    (wall time - probe time inside it) * PROBE_REF_S / mean probe time

where the mean covers the probes that ran inside and around the interval.
``PROBE_REF_S`` is the probe's duration when a core of the 2-core Xeon host
the benchmark was calibrated on ran at its fastest, so at that speed a
reference second is a wall second.  Because the probe never runs entbounds
code, a faster program still reads faster.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PROBE_OBJECTS = 1000
PROBE_EIGH = 20
PROBE_REF_S = 0.6e-3
PERIOD_S = 0.025
_MATRIX = np.eye(4) + 0.1


def _probe() -> float:
    start = time.perf_counter()
    rows = []
    for i in range(PROBE_OBJECTS):
        d = {"a": (i, i + 1), "b": [i, i, i]}
        rows.append(tuple(sorted(d["b"])) + d["a"])
    for _ in range(PROBE_EIGH):
        np.linalg.eigh(_MATRIX)
    return time.perf_counter() - start


class HostSpeed:
    """Context manager that samples host speed while it is active."""

    def __init__(self):
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the alarm fired during an explicit sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            duration = _probe()
            self._starts.append(start)
            self._durations.append(duration)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """Call ``fn(*args)``; returns (result, wall seconds, reference seconds)."""
        self.sample()
        before = len(self._starts) - 1
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.sample()
        window = self._durations[before:]
        inside = sum(d for s, d in zip(self._starts[before:], window) if start <= s < end)
        wall = end - start
        return result, wall, (wall - inside) * PROBE_REF_S / (sum(window) / len(window))
