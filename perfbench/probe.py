"""Speed probe: how fast this machine runs Python code during a pass.

On a shared host the speed of the interpreter drifts by up to a third
within a minute, in CPU seconds as much as in wall seconds, and a median
over the passes of one run does not cancel that. So during a timed pass of
a Python-bound workload a SIGALRM timer runs a fixed pure-Python loop every
``INTERVAL_S`` and times it. The loop's time is taken out of the pass's
wall and CPU seconds, and run.py scales what is left by
``REF_S / mean(loop time)``: pass seconds at the speed where the loop takes
``REF_S``. Only the main process of the pass is probed; pool workers
inherit the handler but not the timer.
"""
from __future__ import annotations

import os
import signal
import time

INTERVAL_S = 0.1
LOOPS = 25_000
# about the median loop time on the 2-vCPU host where perfbench/README.md's baseline
# was measured; it only sets the scale of the normalised figures
REF_S = 0.0055


def loop() -> None:
    """The fixed work: dict reads and writes and integer arithmetic."""
    d = {}
    for i in range(LOOPS):
        k = i & 1023
        d[k] = d.get(k, 0) + i * 3 % 7


class SpeedProbe:
    """Context manager that times ``loop`` every ``INTERVAL_S``, and once at exit.

    ``wall`` and ``cpu`` hold the seconds of each loop run, so there is
    always at least one sample.
    """

    def __enter__(self):
        self.wall, self.cpu = [], []
        self._pid = os.getpid()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_):
        if os.getpid() != self._pid:
            return
        c0, t0 = time.thread_time(), time.perf_counter()
        loop()
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.thread_time() - c0)
