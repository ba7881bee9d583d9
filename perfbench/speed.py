"""Reference seconds: run times corrected for how fast the CPU ran meanwhile.

On a shared host the speed of one CPU drifts while the program's work stays
the same: on a 2-vCPU virtual machine a fixed integer loop ran 10 to 25%
slower or faster from one 15 s window to the next.  ``SpeedProbe`` samples
that speed during the run: every ``INTERVAL_S`` a ``SIGALRM`` handler runs
a fixed chunk of pure-Python work like the work fracbal does (see
``chunk``) and records how long it took.  ``seconds(start, end)`` then
converts a measured interval into reference seconds: the interval minus
the time the handler itself took, scaled by ``REFERENCE_CHUNK_S`` over the
mean chunk time seen inside the interval.  A reference second is a second
on a CPU that runs the chunk in ``REFERENCE_CHUNK_S``.

The chunk code never changes with the program under test, so a change to
fracbal moves reference seconds as it would move wall seconds on a CPU of
constant speed.
"""
from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_CHUNK_S = 0.0004
MIN_SAMPLES = 20  # a shorter interval borrows the samples nearest to it

# a fixed 12-vertex graph for the chunk's include/exclude search
_EDGES = [(i, (i * 7 + 3) % 12) for i in range(12)] + [(i, (i + 1) % 12) for i in range(12)]
_ADJ: dict[int, set[int]] = {i: set() for i in range(12)}
for _a, _b in _EDGES:
    if _a != _b:
        _ADJ[_a].add(_b)
        _ADJ[_b].add(_a)


def chunk() -> int:
    """A fixed mix of the work fracbal's layers do: integer arithmetic and
    dictionary stores, ``Fraction`` sums and row updates, and a recursive
    include/exclude search over sets."""
    total = 0
    table: dict[int, tuple[int, int]] = {}
    for i in range(600):
        total += i * i % 7
        table[i & 31] = (total, i)
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(1, i)
    row = [Fraction(i + 1, 7) - f * Fraction(3, i + 2) for i in range(10)]

    chosen: set[int] = set()
    found = []

    def walk(i: int) -> None:
        if i == 9:
            found.append(tuple(sorted(chosen)))
            return
        if not _ADJ[i] & chosen:
            chosen.add(i)
            walk(i + 1)
            chosen.remove(i)
        walk(i + 1)

    walk(0)
    return total + len(found) + row[0].denominator % 2


class SpeedProbe:
    """Samples the chunk time on a timer for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, chunk seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        chunk()
        self.samples.append((t, perf_counter() - t))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def chunk_s(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Mean chunk time inside [start, end), or over the ``MIN_SAMPLES``
        samples nearest to its middle when fewer fell inside."""
        inside = [d for t, d in self.samples if start <= t < end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        return statistics.mean(inside) if inside else REFERENCE_CHUNK_S

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end)."""
        busy = sum(d for t, d in self.samples if start <= t < end)
        return (end - start - busy) * REFERENCE_CHUNK_S / self.chunk_s(start, end)
