"""Machine speed, read from a fixed reference kernel through the run.

The host this benchmark was written on switches between speeds up to 2x
apart for seconds to minutes at a time, and a whole run can sit in one
state.  Every timed sample is therefore scaled to a fixed machine speed:
the reference kernel (a pure-Python dict loop plus a small numpy
``einsum``, no ``repro`` code) is read between operations and, in an
untraced run, between the calls of a long operation.  A timed block is
the sum of its pieces between readings, each multiplied by
``REFERENCE_MS`` / the median of the readings around it; the readings'
own time is left out.  A reading is a median of five short
repetitions, so an interrupt does not move it; readings are at least
``interval`` seconds apart, which keeps them to a few percent of a run.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import List, Sequence, Tuple

__all__ = ["REFERENCE_MS", "SpeedMeter", "pin_to_one_cpu", "reference_ms"]

#: What one repetition of the reference kernel is taken to last: scaled
#: timings read as if every reading had been this.  Near the kernel's time
#: on a 2-vCPU VM in its fast state (3.0-3.4 ms), so scaled and raw
#: timings are of one magnitude.
REFERENCE_MS = 3.0


def reference_ms(repetitions: int = 5) -> float:
    """Median milliseconds of ``repetitions`` runs of the reference kernel."""
    import numpy as np

    cube = np.arange(4096.0).reshape(16, 16, 16)
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        table: dict = {}
        for i in range(20_000):
            table[i % 1009] = table.get(i % 1009, 0) + i
        for _ in range(40):
            np.einsum("ijk,jk->i", cube, cube[0])
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def pin_to_one_cpu() -> None:
    """Keep the process on one CPU, so the readings and the operations they
    scale run on the same one (the host's CPUs change speed independently).
    Silently does nothing where affinity cannot be set."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class SpeedMeter:
    """Reference-kernel readings, each stamped with the time it was taken."""

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.times: List[float] = []
        self.readings: List[float] = []

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.interval

    def tick(self) -> None:
        """Take a reading unless the last one is under ``interval`` old."""
        if not self.due():
            return
        now = time.perf_counter()
        self.readings.append(reference_ms())
        self.times.append(now)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_MS`` / the median of the readings from the last one
        taken before ``start`` to the first one taken after ``end``."""
        if not self.readings:
            return 1.0
        low = max(bisect.bisect_right(self.times, start) - 1, 0)
        high = bisect.bisect_left(self.times, end) + 1
        return REFERENCE_MS / statistics.median(self.readings[low:high])

    def scaled(self, blocks: List[Sequence[Tuple[float, float]]]) -> List[float]:
        """Each block's seconds at reference speed; a block is a sequence of
        ``(start, end)`` pieces."""
        return [sum((end - start) * self.factor(start, end) for start, end in pieces)
                for pieces in blocks]

    def summary(self) -> dict:
        readings = self.readings or [0.0]
        return {"readings": len(self.readings), "min_ms": min(readings),
                "median_ms": statistics.median(readings), "max_ms": max(readings)}
