"""Machine speed, measured around every timing.

On a shared machine, neighbours' load slows everything this process runs,
by up to 40 % for stretches of 10-50 s. A median or minimum over one run
cannot remove that, because the whole run can fall in one stretch. So the
benchmark runs a fixed pure-Python loop before and after each group of
requests (a group closes once it holds ``GROUP_S`` of measured time) and
reports every timing in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / loop seconds

where the loop time is the mean of the runs just before and just after.
A reference second is a second on a machine that runs the loop in
``REFERENCE_S``. The loop runs no rmcdp code, so a change to the program
cannot move it; a machine-wide slowdown moves both sides and cancels.
On a shared 2-vCPU Xeon virtual machine with Python 3.11, over 12
stretches of 20 s, the spread (IQR / median) of a 0.5 s exact search fell
from 0.26 measured to 0.02 in reference seconds, and that of 2-process
priority searches from 0.14 to 0.07.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.005
LOOPS = 20_000
RUNS_PER_POINT = 2
GROUP_S = 0.05


def loop_seconds() -> float:
    """Time one run of the fixed loop: dict, tuple and integer work."""
    started = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(LOOPS):
        key = (i & 63, i % 7)
        total += table.get(key, 0)
        table[key] = i * 3 // 7
    return time.perf_counter() - started


class Speed:
    """Scales measured timings into reference seconds."""

    def __init__(self) -> None:
        self.before = 0.0            # loop seconds at the last point
        self.taken_at = float("-inf")
        self.open: list[tuple[list[float], int]] = []
        self.open_s = 0.0

    def _point(self) -> float:
        seconds = sum(loop_seconds() for _ in range(RUNS_PER_POINT)) / RUNS_PER_POINT
        self.taken_at = time.perf_counter()
        return seconds

    def start(self) -> None:
        """Take a fresh point unless the last one is still current."""
        if not self.open and time.perf_counter() - self.taken_at > GROUP_S:
            self.before = self._point()

    def add(self, target: list[float], seconds: float) -> None:
        """Append a measured time to ``target``; it is scaled in place when
        its group closes."""
        target.append(seconds)
        self.open.append((target, len(target) - 1))
        self.open_s += seconds
        if self.open_s >= GROUP_S:
            self.close()

    def close(self) -> None:
        """Close the open group: take the point after it and scale it."""
        if not self.open:
            return
        after = self._point()
        scale = 2 * REFERENCE_S / (self.before + after)
        for target, index in self.open:
            target[index] *= scale
        self.open.clear()
        self.open_s = 0.0
        self.before = after
