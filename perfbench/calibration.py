"""Host-speed sampling: rescale measured seconds to a fixed nominal speed.

The CPU this benchmark runs on is shared, and its speed for one process
swings by up to 1.7x in phases lasting seconds (see README, "Steadiness").
While a run measures, a timer signal every ``INTERVAL_S`` runs a fixed
pure-Python kernel, independent of simptop, and records how long it took.
An interval of workload time is rescaled by ``NOMINAL_S / kernel seconds``
sampled inside it (or next to it, for intervals shorter than the tick), and
the time the signal handler itself took inside the interval is taken out.
A change to simptop cannot move the kernel; a slower host moves both alike.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time
from typing import Callable, List, Optional, Tuple

# Kernel seconds that define the nominal host speed: a normalized second is
# a second on a host where one kernel run takes this long.
NOMINAL_S = 0.0003
INTERVAL_S = 0.01

_FACETS = tuple(
    sum(1 << v for v in combo) for combo in itertools.combinations(range(9), 4)
)[::3]


def _kernel() -> int:
    # shaped like simptop's inner loops: subset sweeps over bit-mask facets,
    # then cover counting over a frozenset of faces
    acc = 0
    for combo in itertools.combinations(range(9), 4):
        a_mask = 0
        for v in combo:
            a_mask |= 1 << v
        acc += sum(1 for f in _FACETS if f & ~a_mask == 0)
    covers = {}
    for face in frozenset(f ^ (f & -f) for f in _FACETS):
        rest = face
        while rest:
            bit = rest & -rest
            covers[face ^ bit] = covers.get(face ^ bit, 0) + 1
            rest ^= bit
    return acc + len(covers)


class Sampler:
    """Samples kernel seconds on a timer signal while it is entered.

    ``where`` names the innermost tracer span open when a sample is taken
    (None outside any span), so the tracer can take the handler's time out of that
    span's self time.
    """

    def __init__(self, where: Optional[Callable[[], int]] = None):
        self.where = where
        self.starts: List[float] = []  # handler start times, increasing
        self.ends: List[float] = []
        self.kernel_s: List[float] = []
        self.spans: List[int] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append(end - start)
        self.spans.append(self.where() if self.where else None)

    def __enter__(self) -> "Sampler":
        self._tick(None, None)  # so every interval has a sample next to it
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, start: float, end: float) -> Tuple[float, float]:
        """(seconds at nominal speed, scale factor) for [start, end].

        Handler time inside the interval is taken out first.  The factor is
        ``NOMINAL_S`` over the mean kernel seconds sampled inside the
        interval (or the nearest sample on each side when there is none),
        after dropping the slowest tenth: the work done over an interval
        follows the mean speed, and the slowest samples are the ones an
        interrupt hit.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        handler = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        inside = sorted(
            self.kernel_s[lo:hi] or self.kernel_s[max(lo - 1, 0) : lo + 1]
        )
        factor = NOMINAL_S / statistics.mean(inside[: len(inside) - len(inside) // 10])
        return (end - start - handler) * factor, factor
