"""Host time rescaled to a reference host speed.

A shared virtual machine runs pure Python at speeds up to 1.8 times
apart.  The speed switches every few seconds and differs between vCPUs at
the same moment, so the raw host seconds of whole runs spread by up to a
third from run to run.  The benchmark therefore measures the host's speed
around and inside every timed interval with a probe, a fixed pure-Python
loop that belongs to the benchmark and not to the library, so no change
to the library moves it.  Each interval's host seconds are rescaled to
the speed at which the probe takes :data:`REFERENCE_PROBE_S`.  Op time
and probe time move together, so the rescaled time holds steady where
the raw time does not.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

#: Seconds the probe takes when the host runs at full speed (a shared
#: 2-vCPU Intel Xeon virtual machine, CPython 3.11).
REFERENCE_PROBE_S = 2.0e-3

#: Seconds between the speed samples taken inside one interval.
SAMPLE_INTERVAL_S = 0.2


def _probe_work() -> int:
    table: Dict[int, int] = {}
    word = 0
    for i in range(4000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        word ^= key << (i & 7)
    return word + len(sorted(table.items()))


def probe_seconds() -> float:
    """The host's current speed: best of three timings of the probe."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


def rescale(seconds: float, probes: List[float]) -> float:
    """Host ``seconds`` at reference speed, given probe times sampled
    evenly over the interval.  Work done is time over probe time, so the
    mean is taken over the inverse probe times."""
    return seconds * REFERENCE_PROBE_S * statistics.fmean(
        1.0 / p for p in probes)


@dataclass
class Timing:
    """Host seconds of one interval, without the time of the speed
    samples inside it, and those seconds at reference speed."""

    raw: float = 0.0
    seconds: float = 0.0


class Stopwatch:
    """Times intervals one after another.

    The speed is probed before and after every interval; the probe after
    one interval serves as the probe before the next.  Inside an
    interval a ``SIGALRM`` timer samples it every
    :data:`SAMPLE_INTERVAL_S` seconds, so an op of several seconds is
    rescaled by the speeds it actually ran at."""

    def __init__(self) -> None:
        self._probe = probe_seconds()

    @contextmanager
    def interval(self) -> Iterator[Timing]:
        samples = [self._probe]
        sampling = 0.0

        def sample(signum, frame) -> None:
            nonlocal sampling
            t0 = time.perf_counter()
            _probe_work()
            seconds = time.perf_counter() - t0
            samples.append(seconds)
            sampling += seconds

        timing = Timing()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            self._probe = probe_seconds()
            samples.append(self._probe)
            timing.raw = elapsed - sampling
            timing.seconds = rescale(timing.raw, samples)
