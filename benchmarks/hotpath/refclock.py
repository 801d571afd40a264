"""Reference-speed seconds: wall time rescaled by a fixed work sample.

This VM's speed drifts by +-30 % on a 5-10 s timescale (CPU seconds track
wall seconds, so it is the core that slows, not the scheduler).  A 20 s
window therefore sees a different machine from run to run and the raw
median pass time spreads 12-18 % between identical runs -- wider than
any bound the benchmark may declare.

So every timed section is bracketed by a fixed work sample -- parse and
aggregate a constant CSV blob, the same flavour of work as the data path
(splitting, number parsing, tuple and dict churn) but sharing no code
with it -- and reported as::

    wall seconds x REFERENCE_SAMPLE_S / mean(sample before, sample after)

i.e. the seconds the section would have taken had the machine run the
sample in exactly ``REFERENCE_SAMPLE_S``.  The constant is the sample's
time on a quiet stretch of the VM the benchmark was defined on, so the
numbers read as that VM's seconds.  The sample depends on neither
``--seed`` nor the program under test; a change to ``src/`` cannot move
it, only the machine can.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

#: Seconds one sample takes at reference speed.
REFERENCE_SAMPLE_S = 0.0100

_CITIES = ("Rotterdam", "Paris", "Berlin", "Madrid", "Rome", "Kyiv", "Lyon")
_BLOB = "".join(
    f"M{n % 97:05d},2015-01-{1 + n % 28:02d} {n % 24:02d}:{n % 6}0:00,"
    f"{n * 0.37:.3f},{n * 0.11:.3f},{n * 0.26:.3f},{n * 7919 % 10000},"
    f"{_CITIES[n % 7]},EUR,{48 + n % 5}.{n % 100:02d},{4 + n % 9}.{n % 89:02d}\n"
    for n in range(10_000)
).encode()


def work_sample() -> float:
    """Run the fixed work once; returns its wall seconds."""
    started = time.perf_counter()
    totals: dict = {}
    rows = []
    for line in _BLOB.split(b"\n"):
        if not line:
            continue
        fields = line.decode().split(",")
        row = (
            fields[0], fields[1], float(fields[2]), float(fields[3]),
            float(fields[4]), int(fields[5]), fields[6],
        )
        rows.append(row)
        totals[row[6]] = totals.get(row[6], 0.0) + row[2]
    return time.perf_counter() - started


class ReferenceClock:
    """Times calls in reference-speed seconds, remembering every sample."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def timed(self, call: Callable, *args, **kwargs) -> Tuple[object, float]:
        """Run ``call``; returns ``(result, reference seconds)``."""
        before = work_sample()
        started = time.perf_counter()
        result = call(*args, **kwargs)
        wall = time.perf_counter() - started
        after = work_sample()
        self.samples += (before, after)
        return result, wall * REFERENCE_SAMPLE_S * 2.0 / (before + after)

    def machine_speed(self) -> float:
        """Median speed of the machine so far, 1.0 = reference speed."""
        return REFERENCE_SAMPLE_S / statistics.median(self.samples)
