"""Calibrated seconds: wall time divided by an interleaved fixed kernel.

On a small shared box the core itself speeds up and slows down, in wall
*and* CPU time, in stretches from 100 ms to many minutes, so neither
longer runs nor ``process_time`` make two runs of the same code agree.
What does repeat is the ratio between the measured work and a fixed
piece of work done right beside it. :func:`kernel` is that fixed work
(about 4 ms, independent of the repo's source): a pure-Python
dict/tuple/list loop — the engine is nearly all interpreted code — and
one ``zlib.compress``, about 2:1 in time.

The mix was chosen from 24 recorded runs of every workload with seven
candidate components timed separately at each sample (README, "Why
calibrated seconds"): the loop plus zlib tracked the engine best in both
a slow and a fast stretch of the machine; a numpy reduction, a struct
decode loop and walks over a large heap each made the calibrated times
repeat worse, because their own run-to-run noise is not the engine's.

A :class:`CalibratedTimer` runs the kernel again whenever
``RESAMPLE_AFTER_S`` of measured work has passed and after any op longer
than ``LONG_OP_S``; an op's calibrated time is::

    wall * CAL_NOMINAL_S / mean(kernel sample before, kernel sample after)

so a calibrated second is a wall second on a machine where the kernel
takes exactly ``CAL_NOMINAL_S``. Wider windows of samples were tried and
repeat worse: the machine's speed changes within 100 ms.
"""

from __future__ import annotations

import gc
import time
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional

#: The kernel's duration on the machine a calibrated second is defined on.
CAL_NOMINAL_S = 0.004
#: Take a fresh sample once this much measured wall time has passed.
RESAMPLE_AFTER_S = 0.050
#: ... and right after any single op longer than this.
LONG_OP_S = 0.020

_WORDS = (
    b"special", b"pending", b"requests", b"deposits", b"1995-06-17", b"RAIL",
    b"0.04", b"17", b"furious", b"accounts", b"DELIVER IN PERSON", b"N", b"O",
)
#: 128 KiB of row-like text from a fixed arithmetic sequence.
_ZBUF = b"|".join(
    _WORDS[(i * 7919 + (i * i) // 13) % len(_WORDS)] + b"%d" % (i * 2654435761 % 99991)
    for i in range(12000)
)[: 128 * 1024]
_LOOP = 9000


def kernel() -> int:
    """The fixed calibration work; returns a checksum so none of it can
    be skipped."""
    table = {}
    rows: List[tuple] = []
    for i in range(_LOOP):
        key = i % 97
        table[key] = table.get(key, 0) + i
        rows.append((key, i, table[key] & 0xFF))
    total = sum(row[2] for row in rows if row[0] < 48)
    return total + len(zlib.compress(_ZBUF, 1))


@dataclass
class Timing:
    """One measured op: raw wall seconds and the index of the kernel
    sample taken before it (the one after it is ``left + 1``)."""

    wall: float
    left: int
    error: Optional[BaseException] = None


class CalibratedTimer:
    """Times callables and brackets them with kernel samples.

    ``clock`` and ``kernel`` are injectable so the arithmetic can be
    tested against a fake clock.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        kernel: Callable[[], object] = kernel,
    ):
        self._clock = clock
        self._kernel = kernel
        #: Kernel durations in wall seconds, in the order taken.
        self.samples: List[float] = []
        self._work_since_sample = 0.0
        self._sample()

    def _sample(self) -> None:
        # The collector is off inside the kernel: its tuples would trigger
        # collections whose cost is the size of the *engine's* heap, and a
        # full one lands on the same sample every round (20 ms on a 4 ms
        # kernel), making the ops beside it read four times too fast.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = self._clock()
            self._kernel()
            self.samples.append(self._clock() - start)
        finally:
            if collecting:
                gc.enable()
        self._work_since_sample = 0.0

    def run(self, fn: Callable[[], object]):
        """Call ``fn()``; returns ``(value, Timing)``. An exception from
        ``fn`` is caught and kept on the timing (the op failed; the
        benchmark counts it and goes on)."""
        left = len(self.samples) - 1
        error = None
        value = None
        start = self._clock()
        try:
            value = fn()
        except Exception as exc:  # op boundary: record, count, continue
            error = exc
        wall = self._clock() - start
        self._work_since_sample += wall
        if wall > LONG_OP_S or self._work_since_sample >= RESAMPLE_AFTER_S:
            self._sample()
        return value, Timing(wall, left, error)

    def flush(self) -> None:
        """Close the bracket of the ops measured since the last sample."""
        if self._work_since_sample > 0.0:
            self._sample()

    def seconds(self, timing: Timing) -> float:
        """Calibrated seconds of ``timing`` (after :meth:`flush`)."""
        bracket = (self.samples[timing.left] + self.samples[timing.left + 1]) / 2.0
        return timing.wall * CAL_NOMINAL_S / bracket
