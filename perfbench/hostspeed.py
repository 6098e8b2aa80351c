"""Host facts, and the host-speed probe that end-to-end times are scaled by.

Shared hosts drift in speed by ±25% over a few seconds (measured on the
2-core reference host: a fixed loop's per-second median moved between
8.8 and 14 ms), and the drift moves the simulator and a plain Python loop
alike. While a repetition runs, :class:`SpeedMeter` times a short fixed
heap push/pop loop every ``PROBE_INTERVAL_S`` from a ``SIGALRM`` handler,
and the benchmark scales the repetition's times by ``CAL_REF_S`` over the
mean loop time: seconds on the reference host. The loop uses the standard
library only, so no change to the repository can move it. Each probe
costs about 1 ms of CPU every quarter second (0.4%), which stays in the
measured times.
"""

from __future__ import annotations

import heapq
import os
import platform
import resource
import signal
import time
from statistics import mean, median
from typing import List

#: CPU-time clock of the calling thread: the probe measures how fast the
#: host executes, not how long it waited for a CPU (the sweep's probe
#: shares two cores with two busy workers).
thread_clock = time.thread_time  # repro-lint: disable=RL001 - host speed probe, reported only

#: The probe loop's CPU time on the reference host (2-core Xeon).
CAL_REF_S = 0.001

#: Seconds between probes while a repetition runs.
PROBE_INTERVAL_S = 0.25


def calibration_loop() -> float:
    """CPU seconds for a fixed heap push/pop loop (the engine's queue)."""
    started = thread_clock()
    heap: List[int] = []
    for i in range(2_000):
        heapq.heappush(heap, (i * 7919) % 2_003)
    while heap:
        heapq.heappop(heap)
    return thread_clock() - started


class SpeedMeter:
    """Samples host speed while the ``with`` body runs.

    The handler runs between bytecodes of the main thread, so it never
    touches simulated state; it only delays the simulation by the loop's
    time. The previous ``SIGALRM`` handler is restored on exit.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __enter__(self) -> "SpeedMeter":
        self.samples = [calibration_loop()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(calibration_loop())

    @property
    def speed(self) -> float:
        """Reference probe time over this body's mean probe time."""
        return CAL_REF_S / mean(self.samples)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_facts() -> dict:
    """Context every result set is printed with: compare numbers only
    between matching hosts and loads."""
    return {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "calibration_ms": median(calibration_loop() for _ in range(50)) * 1e3,
        "calibration_ref_ms": CAL_REF_S * 1e3,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0
