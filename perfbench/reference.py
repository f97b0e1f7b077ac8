"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark's host shares its physical cores with other tenants, and its
speed drifts by up to 2x over tens of seconds: raw wall times of one fixed
trial spread 35-45 % (quartile distance over median) between 10-second
windows.  Each timed trial is bracketed by this loop, and the benchmark
reports times in reference seconds: measured time x REFERENCE_S / the
loop's time around it.  Divided by this loop (object allocation, sorting,
dict stores and big-integer steps, like the simulator's hot paths), the
same windows spread 2-7 %.

This file is part of the benchmark's definition: changing the loop or
REFERENCE_S changes the unit of every reported time.
"""

from __future__ import annotations

import statistics
import time

# Reported times are host times rescaled to a host that runs
# `reference_loop` in exactly this many seconds.
REFERENCE_S = 0.015

REPEATS = 5


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_loop() -> int:
    acc = 0
    table = {}
    for i in range(12_000):
        x = (i * 2654435761) & 0xFFFF
        pair = _Pair(x, i)
        ordered = sorted([x, i, x ^ i, pair.a - pair.b])
        table[x & 1023] = (pair, ordered)
        acc += ordered[-1] - ordered[0]
    big = 1
    for i in range(3000):
        big = (big * 3 + i) ^ (big >> 7)
    return acc + (big & 1)


class SpeedSampler:
    """Times one run of the reference loop at most every INTERVAL_S seconds
    when `poll()` is called from inside a trial, and adds up the time those
    runs took so that the trial's own time can leave it out.  A trial of
    several seconds sees the host change speed while it runs; samples taken
    only before and after it miss that."""

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._next = time.perf_counter() + self.INTERVAL_S

    def poll(self) -> None:
        w0 = time.perf_counter()
        if w0 < self._next:
            return
        c0 = time.process_time()
        reference_loop()
        c1 = time.process_time()
        w1 = time.perf_counter()
        self.samples.append((w1 - w0, c1 - c0))
        self._next = w1 + self.INTERVAL_S

    def spent(self) -> tuple[float, float]:
        """Total (wall, cpu) seconds spent in samples."""
        return sum(w for w, _ in self.samples), sum(c for _, c in self.samples)


def host_speed() -> tuple[float, float]:
    """Median (wall, cpu) seconds of REPEATS runs of the reference loop."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
    return statistics.median(walls), statistics.median(cpus)
