"""Fixed reference work that measures the host's speed at the moment.

On a shared host the CPU speed one process sees drifts by up to 1.8x over
seconds to minutes, so a run of passes can read slow from start to finish.
Timing ``reference_work`` right before and right after each pass gives the
host's speed at that moment; a pass time divided by it is a ratio
that a program change moves and host drift hardly does.  The ratio times
``REF_S`` is the pass time on a host that runs this work in ``REF_S`` seconds.

The work mixes what mannrates spends its time on: interpreted float loops
(the Bland simplex and the greedy plans), ``Fraction`` arithmetic (the exact
path), small numpy operations called from Python (stage evaluations), and
building, sorting and looking up many small objects, whose working set is
larger than the first-level caches as the program's is.

A set-up is timed against ``reference_startup`` instead: the set-up of a
fresh process is mostly interpreter start and reading, unmarshalling and
linking numpy and scipy, which a fresh interpreter importing the same
libraries repeats and the in-process work above does not.  Neither
reference imports anything of mannrates, so a change to the program does
not change them.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable

import numpy as np

# the times of reference_work() and reference_startup() on the 2-core Xeon
# this benchmark was tuned on when the host does not slow it; fixed scales,
# not measurements
REF_S = 0.08
REF_STARTUP_S = 0.5
STARTUP_IMPORTS = "import numpy, scipy.optimize, scipy.sparse"


def _float_loop():
    xs = [0.5 + i * 1e-3 for i in range(200)]
    s = 0.0
    for _ in range(1600):
        for j, x in enumerate(xs):
            if x * s < j:
                s += x * x - s * 1e-9
    return s


def _fractions():
    total = Fraction(0)
    for _ in range(5):
        s = Fraction(0)
        for i in range(1, 700):
            s += Fraction(1, i) * Fraction(i, i + 3)
        total += s
    return total


def _small_numpy(a):
    t = 0.0
    for _ in range(4000):
        b = a @ a
        t += float(np.argmin(b.sum(axis=0)))
    return t


def _objects():
    rng = random.Random(0)
    rows = [(rng.random(), i, str(i)) for i in range(20000)]
    rows.sort()
    by_key = {r[2]: r for r in rows}
    return sum(by_key[str(i)][0] for i in range(0, 20000, 7))


_A = np.random.default_rng(0).random((12, 12))


def reference_work() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    _float_loop()
    _fractions()
    _small_numpy(_A)
    _objects()
    return time.perf_counter() - t0


def reference_startup() -> float:
    """Start a fresh interpreter that imports the numerical stack mannrates
    runs on, and nothing of mannrates; returns its wall time in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


class Ratios:
    """Times of repeated steps, each divided by the mean of a reference timed
    just before and just after it."""

    def __init__(self, reference: Callable[[], float], ref_s: float):
        self.times: list = []
        self.ratios: list = []
        self._reference = reference
        self._ref_s = ref_s
        self._before = reference()

    def add(self, seconds: float) -> None:
        after = self._reference()
        self.times.append(seconds)
        self.ratios.append(seconds / ((self._before + after) / 2))
        self._before = after

    def scaled(self) -> float:
        """The median ratio in seconds of a host that runs the reference in ref_s."""
        return statistics.median(self.ratios) * self._ref_s
