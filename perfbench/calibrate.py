"""A host-speed probe that turns a pass's times into seconds at one fixed speed.

The benchmark runs on shared hosts whose CPUs change speed by up to a
factor of two, in spells from under a second to several minutes, and each
CPU on its own (two CPUs of one host are not slow at the same moments).
The same pass of a workload can take 8 s in one minute and 12 s a few
minutes later, in wall time and in CPU time alike.

So child.py keeps its whole process on one CPU (``pin``) and runs a
``Probe`` thread beside the pass.  Every PERIOD_S seconds the probe takes
the GIL and times a small fixed job in its own thread's CPU time: exact
polynomial arithmetic over Fraction, as the package's scalar layer does.
Nothing the package does changes that job, so its time measures the CPU
alone.  If the job takes c seconds where it takes REF_S at the reference
speed, the CPU runs at REF_S / c of that speed, and a stretch of the pass
that took t seconds would take t * REF_S / c there.  ``Probe.seconds``
applies this to any stretch of the pass, with the mean of REF_S / c over
the probes inside it, and leaves out the probe's own time.

The probe costs about 4% of a pass.  It measures speed; it cannot see
anything the package does, so a faster or slower package moves the
normalised times as much as the raw ones.

    python3 perfbench/calibrate.py      # times the job on this host
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.05
# thread CPU seconds of one probe job at the reference speed: the fast
# spells of a 2-vCPU Xeon VM (2.1 GHz) with Python 3.11
REF_S = 0.0015
# a stretch with fewer probes inside it is scaled by the MIN_PROBES
# probes nearest to it; passes end with TAIL_S of busy work to supply them
MIN_PROBES = 5
TAIL_S = MIN_PROBES * PERIOD_S

_MODULUS = (Fraction(1),) * 5                  # 1 + x + x^2 + x^3 + x^4
_A = tuple(Fraction(i + 1, 3) for i in range(4))
_B = tuple(Fraction(2 - i, 5) for i in range(4))


def _pmul(a, b, modulus):
    """Product of two residues mod a monic polynomial (ascending tuples)."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    m = len(modulus) - 1
    for k in range(len(out) - 1, m - 1, -1):
        c = out[k]
        if c:
            for t in range(m + 1):
                out[k - m + t] -= c * modulus[t]
    return tuple(out[:m])


def job() -> None:
    for _ in range(20):
        _pmul(_A, _B, _MODULUS)


def pin() -> bool:
    """Keep this process, and the threads it starts, on one CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        return False
    return True


def busy(seconds: float) -> None:
    """Run the job in this thread for ``seconds``, as a pass's tail."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        job()


class Probe(threading.Thread):
    """Samples (start, end, thread CPU seconds) of the job every PERIOD_S."""

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        self.samples: list[tuple[float, float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PERIOD_S):
            w, c = time.perf_counter(), time.thread_time()
            job()
            c = time.thread_time() - c
            self.samples.append((w, time.perf_counter(), c))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def _chosen(self, a: float, b: float):
        inside = [s for s in self.samples if a <= s[0] and s[1] <= b]
        if len(inside) >= MIN_PROBES:
            return inside
        mid = (a + b) / 2
        return sorted(self.samples,
                      key=lambda s: abs(s[0] - mid))[:MIN_PROBES]

    def factor(self, a: float, b: float) -> float:
        """Mean speed over [a, b], as a share of the reference speed."""
        chosen = self._chosen(a, b)
        if not chosen:
            raise RuntimeError("the speed probe took no samples")
        return statistics.fmean(REF_S / c for _, _, c in chosen)

    def own_wall(self, a: float, b: float) -> float:
        return sum(e - w for w, e, _ in self.samples if a <= w and e <= b)

    def seconds(self, a: float, b: float) -> float:
        """Wall seconds of [a, b] at the reference speed, probes left out."""
        return (b - a - self.own_wall(a, b)) * self.factor(a, b)


if __name__ == "__main__":
    times = []
    for _ in range(50):
        c = time.thread_time()
        job()
        times.append(time.thread_time() - c)
    print(json.dumps({"job_cpu_s_median": statistics.median(times),
                      "job_cpu_s_min": min(times), "REF_S": REF_S}))
