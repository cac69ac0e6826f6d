"""Host speed probe for untraced rounds.

The machine is shared, and its speed drifts by 15-25% over minutes; two
rounds of the same operations a few minutes apart differ by that much.
A round therefore times a fixed probe of the benchmark's own throughout
its life: every PERIOD_S of wall time, a SIGALRM handler runs one
induced-subgraph search of the benchmark's oracle (Paley(13) against a
6-vertex graph it does not contain, about 0.8 ms of graph search, the
same kind of work as the program's) and records its duration. The probe
time is subtracted from every timed phase and from set-up. A round's
times are then scaled by REF_S / (mean probe time): they read as seconds
on a host where the probe takes REF_S. The mean, not the median: the
samples are spread evenly over the round's wall time, so their mean is
the host's average speed over the round, which is what the round's time
accrues at. When the host switches between a fast and a slow state
within a round, the median jumps to one of them. The top and bottom
TRIM of the samples are dropped first, against probes hit by a garbage
collection or a preemption.

Set-up-only processes are too short to sample; run.py scales them by the
median scale of the run's rounds, measured seconds away on the same host.
The probe does not touch hfree, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import oracles as O

PERIOD_S = 0.1
REF_S = 0.001
TRIM = 0.1

_N = 13
_ROWS = O.edges_to_rows(_N, O.paley_edges(_N))
_H = O.RowGraph(6, O.edges_to_rows(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]))


def probe() -> None:
    """The fixed unit of work: an induced search that fails, so it always
    explores the same tree."""
    O.has_induced(_N, _ROWS, _H)


class Sampler:
    """Times probe() every PERIOD_S from start() to stop(). `spent` is the
    wall time taken by probes so far, for the timers to subtract."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        probe()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a round shorter than PERIOD_S
            self._tick()

    def probe_s(self) -> float:
        """Trimmed mean of the probe times."""
        s = sorted(self.samples)
        cut = int(len(s) * TRIM)
        return statistics.fmean(s[cut : len(s) - cut])

    def scale(self) -> float:
        """Factor that turns this process's raw times into reference seconds."""
        return REF_S / self.probe_s()


class NullSampler:
    """No probing (traced rounds, set-up-only processes): raw times, scale 1."""

    spent = 0.0

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def probe_s(self) -> float:
        return 0.0

    def scale(self) -> float:
        return 1.0
