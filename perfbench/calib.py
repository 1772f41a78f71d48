"""Times scaled to reference speed, to cancel a shared host's speed changes.

On a shared host the speed of the CPU a run gets changes by up to 2x, in
phases that last from a second to minutes, so raw wall times of the same
code spread more between runs than any useful regression bound. The
probe kernel below is plain Python of the same kind smoothstl runs:
window soft-minimums over small objects, a reverse sweep that pushes
adjoints back through them, and dict updates. It never changes with the
program, so its wall time measures the host alone.

ReferenceClock.measure runs the probe before and after a call and, from
a timer signal, every INTERVAL_S during it, so that a phase change in
the middle of a long call is seen. It reports the call's wall time,
without the probes, scaled to reference speed: the speed at which one
probe takes REF_MS. A call that does the same work then reads about
the same in a fast phase and a slow one (within about 7% on this
benchmark's workloads), while a call that does more or less work reads
more or less.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

# Wall time of one probe at reference speed, in ms: about the probe's
# time on a 2-core Xeon in a fast phase.
REF_MS = 0.5
# seconds between probes during a call
INTERVAL_S = 0.025
# probes run before and after a call; each side takes their median
EDGE_REPEATS = 3


class _Node:
    __slots__ = ("value", "adjoint", "inputs")

    def __init__(self, value, inputs=()):
        self.value = value
        self.adjoint = 0.0
        self.inputs = inputs


def _kernel(n=60, windows=(3, 7, 11), k=5.0):
    leaves = [_Node(math.sin(i * 0.37) + 0.01 * i) for i in range(n)]
    total = 0.0
    for w in windows:
        outs = []
        for i in range(n - w):
            window = leaves[i:i + w]
            low = min(node.value for node in window)
            s = sum(math.exp(-k * (node.value - low)) for node in window)
            outs.append(_Node(low - math.log(s) / k, window))
        for node in reversed(outs):
            node.adjoint += 1.0
            for child in node.inputs:
                child.adjoint += 0.5 * node.adjoint
        total += sum(node.value for node in outs)
    buckets = {}
    for i, node in enumerate(leaves):
        buckets[i % 17] = buckets.get(i % 17, 0.0) + node.adjoint
    return total + sum(buckets.values())


def probe_ms():
    """Wall time in ms of one probe.

    The garbage collector is paused during the probe, so that a
    collection of the program's own objects is not charged to the host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def edge_ms():
    """Median of EDGE_REPEATS probes."""
    return statistics.median(probe_ms() for _ in range(EDGE_REPEATS))


def scale_at(ms):
    """Factor that turns wall time at the speed a probe of ms shows into
    time at reference speed."""
    return REF_MS / ms


class ReferenceClock:
    """Measures a stretch of work in wall time and at reference speed.

    Uses SIGALRM and the real interval timer while it runs, so it must be
    used from the main thread, one stretch at a time.
    """

    def __init__(self):
        self._inside = []
        self._scales = []
        self._previous = None
        self._t0 = 0.0

    def _on_alarm(self, signum, frame):
        self._inside.append(probe_ms())

    def start(self):
        self._scales = [scale_at(edge_ms())]
        self._inside = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Return (wall seconds, seconds at reference speed) since start.

        Wall seconds leave out the probes that ran in between. The scale
        is the mean over all probes, which sample the stretch evenly in
        time.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        wall -= sum(self._inside) / 1e3
        self._scales.extend(scale_at(ms) for ms in self._inside)
        self._scales.append(scale_at(edge_ms()))
        return wall, wall * statistics.fmean(self._scales)

    def measure(self, fn):
        """Run fn(); return (result, wall seconds, seconds at reference speed)."""
        self.start()
        try:
            result = fn()
        finally:
            wall, ref = self.stop()
        return result, wall, ref
