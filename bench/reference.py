"""A fixed reference computation that sets the benchmark's unit of time.

The sandbox this benchmark was sized on shares its physical cores: the
same solve loop ran up to 50% slower in one run than in the next, in
process CPU time as much as in wall time. Timing a fixed computation
between solves and dividing by it cancels most of that drift. The
computation does not touch dclwe, so no change to the package moves it.
It does the two kinds of work the solver does: interpreted code that
draws scalars from a numpy Generator, builds small frozen dataclasses and
does modular arithmetic, and numpy transforms and integer passes over
arrays of the workload's field size q.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

SCALAR_STEPS = 800
ARRAY_ELEMENTS = 20000  # array work per run, split into passes of length q


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int


class Reference:
    """Times `run` on demand; `around(k)` is the local reference time."""

    def __init__(self, np, q: int):
        self._np = np
        self._q = q
        self._phases = np.exp(2j * np.pi * np.arange(q) / q)
        self._ints = np.arange(q, dtype=np.int64)
        self._passes = max(1, ARRAY_ELEMENTS // q)
        self.times = []

    def run(self) -> int:
        np, q = self._np, self._q
        rng = np.random.default_rng(7)
        acc = 0
        for _ in range(SCALAR_STEPS):
            t = int(rng.integers(1, q))
            pair = _Pair(t, (t * 7 + 1) % q)
            acc = (acc + pow(pair.a, q - 2, q) + abs((pair.b - t * 3 + q // 2) % q - q // 2)) % q
        for _ in range(self._passes):
            mass = np.cumsum(np.abs(np.fft.ifft(self._phases)) ** 2)
            acc += int(np.searchsorted(mass, 0.5))
            acc += int(np.unique((self._ints * 17 + 5) % q).size)
        return acc

    def time(self) -> None:
        t0 = time.perf_counter()
        self.run()
        self.times.append(time.perf_counter() - t0)

    def around(self, k: int) -> float:
        """Median of the two timings before position k and the two after."""
        return statistics.median(self.times[max(0, k - 2) : k + 2])
