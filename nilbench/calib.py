"""Machine-speed sampling for the nilcert benchmark.

The benchmark runs on a shared virtual machine whose speed is not steady:
from one second to the next the same Python code runs up to twice as fast
or as slow, and the share of fast and slow spells differs from one run to
the next.  That swamps any change to the program.  So while an op runs, a
``Sampler`` interrupts it every ``PERIOD_S`` seconds (SIGALRM) and times a
fixed piece of reference work: exact rational elimination on a small
matrix, the kind of work nilcert does, in pure Python and sharing nothing
with nilcert.  ``scale`` then reports the op's time as it would have been
on a machine on which one sample takes ``REF_S`` seconds:

    reported = (measured - time spent sampling) * mean(REF_S / sample time)

over the samples taken during the op.  The reference work does not change
with the program, so a faster program reads faster; a run on a slow spell
of the machine reads as one on a fast spell.

This module imports nothing from nilcert, and little else, because a set-up
process imports it before it imports nilcert.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

#: seconds between two samples, and the nominal time of one sample: about
#: the median on the machine the benchmark was defined on (a 2-vCPU Intel
#: Xeon virtual machine, CPython 3.11.7).  REF_S only sets the scale.
PERIOD_S = 0.02
REF_S = 0.001

#: an op with fewer samples than this is scaled by the samples nearest to
#: it in time, not only by those taken during it
MIN_SAMPLES = 3

_ROWS = ((3, -1, 4, 1, -5, 9), (2, 6, -5, 3, 5, -8), (9, 7, -9, 3, 2, 3),
         (8, -4, 6, 2, 6, 4))
_RANK = 4
_REPS = 2


def _rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class Sampler:
    """Times the reference work every ``period_s`` seconds of wall-clock
    time while installed.  ``samples`` holds (perf_counter at start, wall s,
    CPU s) per sample; perf_counter is the system-wide monotonic clock, so
    samples taken in a child process share the parent's time line."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the op's objects is not the sample's
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            for _ in range(_REPS):
                if _rank(_ROWS) != _RANK:
                    raise AssertionError("reference elimination went wrong")
            self.samples.append((w0, time.perf_counter() - w0,
                                 time.process_time() - c0))
        finally:
            if enabled:
                gc.enable()

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(samples: list, t0: float, t1: float, wall: float,
          cpu: float = 0.0) -> tuple[float, float, float]:
    """(wall s, CPU s, speed) of the interval [t0, t1], whose measured wall
    and CPU times are ``wall`` and ``cpu``, at the reference speed.  Time
    spent in samples inside the interval is taken out; ``speed`` is the
    mean of REF_S / sample wall time, 1.0 if there are no samples."""
    inside = [s for s in samples if t0 <= s[0] < t1]
    near = inside
    if len(inside) < MIN_SAMPLES:
        mid = (t0 + t1) / 2
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
    if not near:
        return wall, cpu, 1.0
    speed = sum(REF_S / max(s[1], 1e-9) for s in near) / len(near)
    cpu_speed = sum(REF_S / max(s[2], 1e-9) for s in near) / len(near)
    return ((wall - sum(s[1] for s in inside)) * speed,
            (cpu - sum(s[2] for s in inside)) * cpu_speed, speed)
