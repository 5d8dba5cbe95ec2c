"""Machine-speed calibration.

The machine this benchmark was written on (2 vCPUs shared with other
tenants) runs the same Python code up to twice as slowly at some times as
at others, in spells of seconds to minutes.  A fixed loop sampled while the
passes run tracks much of that: on recorded series of short census and
witness passes interleaved with it, dividing by the loop's time halved the
variation of window medians, from 14 % to 7 %.

So every time the benchmark reports is in reference seconds: measured
seconds times ``REFERENCE_S`` over the median loop time of the same run,
that is, seconds on a machine where the loop takes ``REFERENCE_S``.  The
loop is the gate's own canonical form and diameter on fixed random trees:
benchmark code, so a change to the library cannot move it.  It runs with
the cyclic garbage collector off, so the library's heap cannot either.

Set-up time (fresh interpreters importing treedom, mostly numpy) did not
follow the loop; it follows a fresh interpreter importing numpy alone, so
that is what set-up is scaled by.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

from gate import adjacency, canonical, diameter
from workloads import _prufer

REFERENCE_S = 0.025
# set-up is scaled instead by a fresh interpreter importing numpy alone,
# which takes NUMPY_IMPORT_S on the reference machine
NUMPY_IMPORT_S = 0.1
_NUMPY_CODE = "import time; t0 = time.perf_counter(); import numpy; print(time.perf_counter() - t0)"
# a sampled loop starts this often, in seconds of wall time
INTERVAL = 0.5
_TREES = 40
_ORDER = 300


def _trees():
    rng = random.Random("calibration")
    return [adjacency(_ORDER, _prufer(_ORDER, rng)) for _ in range(_TREES)]


class Calibration:
    def __init__(self):
        self.trees = _trees()
        self.loops = []  # (start, end) of every loop, in the order run

    def loop(self, *_signal_args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for adj in self.trees:
                canonical(adj)
                diameter(adj)
            self.loops.append((t0, perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def factor(self):
        """Reference seconds per measured second."""
        if not self.loops:
            self.loop()
        return REFERENCE_S / statistics.median(b - a for a, b in self.loops)

    def inside(self, t0, t1):
        """Seconds of loops that ran between t0 and t1."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.loops)

    @contextmanager
    def sampling(self):
        """Run a loop every INTERVAL seconds, interrupting whatever runs."""
        old = signal.signal(signal.SIGALRM, self.loop)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    @contextmanager
    def paused(self):
        """Hold samples back until the block ends (for traced passes)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def _child_seconds(code, cwd):
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def setup_seconds(code, cwd, runs):
    """(measured, reference) seconds of fresh interpreters running code,
    which prints its own seconds.  Import time follows the machine's file
    and memory state, which the calibration loop does not track, so each
    run is scaled by a numpy-only interpreter started just before it."""
    measured, reference = [], []
    for _ in range(runs):
        numpy_s = _child_seconds(_NUMPY_CODE, cwd)
        measured.append(_child_seconds(code, cwd))
        reference.append(measured[-1] * NUMPY_IMPORT_S / numpy_s)
    return measured, reference
