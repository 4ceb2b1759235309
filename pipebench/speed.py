"""The speed of the vCPU a program process runs on, sampled while it runs.

On a shared host a vCPU does not run at one speed. It drops to between a
half and two thirds of its fast speed for stretches that last from a
second to minutes, largely independently on each vCPU, and the program's
CPU time grows with it (see README.md, "Noise"). A raw wall time then measures the host as much as the
program.

The probe is a fixed pure-Python loop that fills a dict with tuples and
strings; in the fast state of the reference machine it takes about
``PROBE_REF_S``. Of the probes tried (integer arithmetic, small matrix
products, sums over L2- and L3-sized arrays, this one), its slowdowns
tracked the program's most closely on all three workloads.

While a program process runs, pinned to one vCPU, a thread of the
benchmark pinned to the same vCPU times the probe every ``PERIOD_S``. The process's normalised time is its wall time times
the mean of ``PROBE_REF_S / probe time`` over the samples: the wall time it
would have taken had the vCPU run at the reference speed throughout. A
program change moves it as it moves the wall time; a slow stretch of the
host does not.
"""

from __future__ import annotations

import os
import threading
import time

PROBE_ITERS = 400
PROBE_REF_S = 60e-6    # probe time in the fast state of the reference VM
PERIOD_S = 0.025       # probing costs about 1% of the program's vCPU


def probe() -> float:
    """Fastest of two timings of the probe loop on the calling thread's vCPU."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        for i in range(PROBE_ITERS):
            table[i] = (i, str(i))
        best = min(best, time.perf_counter() - start)
    return best


class SpeedMonitor:
    """A thread that probes one vCPU while a program process runs on it."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._cond = threading.Condition()
        self._cpu: int | None = None      # vCPU being probed; None when idle
        self._round = 0                   # bumped by every start and stop
        self._samples: list[float] = []
        self._closed = False
        self._thread = threading.Thread(target=self._loop, name="speed-monitor",
                                        daemon=True)
        self._thread.start()

    def pick_cpu(self) -> int:
        """The vCPU whose probe runs fastest now, probed from this thread."""
        times = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu] = probe()
        finally:
            os.sched_setaffinity(0, self.cpus)
        return min(times, key=times.get)

    def start(self, cpu: int) -> None:
        with self._cond:
            self._cpu = cpu
            self._round += 1
            self._samples = []
            self._cond.notify()

    def stop(self) -> list[float]:
        """End the round; return its probe times."""
        with self._cond:
            self._cpu = None
            self._round += 1
            return self._samples

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cpu = None
            self._cond.notify()
        self._thread.join()

    def _loop(self) -> None:
        pinned = None
        while True:
            with self._cond:
                while self._cpu is None and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                cpu, round_id = self._cpu, self._round
            if cpu != pinned:
                os.sched_setaffinity(0, {cpu})
                pinned = cpu
            sample = probe()
            with self._cond:
                if self._round == round_id:
                    self._samples.append(sample)
            time.sleep(PERIOD_S)


def normalised(wall_s: float, samples: list[float]) -> float:
    """Wall time at the reference speed, from the probe times taken during it."""
    return wall_s * sum(PROBE_REF_S / s for s in samples) / len(samples)
