"""Host speed probe: a fixed piece of work that belongs to the benchmark.

On a shared host, other tenants change how fast a CPU runs: the same loop
takes up to 2x longer for a fraction of a second, and runs minutes apart
differ by 25% or more.  ``probe`` times a fixed mix of the kinds of work the
program does: interpreter loops over small ints and dicts, big-int
arithmetic as in exact rational builds, dict counting as in fingerprints,
and numpy calls on large and on tiny arrays.  The benchmark probes before
and after every timed operation; the mean of the two probe times over
``REFERENCE_S`` is the host slowdown around that operation, and the
operation's time is divided by it (see README.md, "Host speed").

The probe never calls the program, so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Probe time on the reference host, when quiet (2 vCPUs, Intel Xeon, Python 3.11,
# numpy 2.4).  A fixed number, so the scaled timings of two runs, or of two
# commits, are in the same units.
REFERENCE_S = 0.0021

_TABLE = {i: i * 7 % 13 for i in range(64)}
_BIG = 3 ** 400 + 1
_rng = np.random.default_rng(0)
_ARRAY = _rng.random(8192)
_SMALL = _rng.random((8, 8))
_ROT = _rng.random((2, 2))
_IDS = _rng.integers(0, 10**6, 10_000).tolist()


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    t0 = perf_counter()
    table, acc = _TABLE, 0
    for i in range(7500):
        acc += table[i & 63] * i
    x = _BIG
    for _ in range(75):
        x = x * _BIG % (_BIG + 2 * acc + 1)
    for _ in range(4):
        np.sort(_ARRAY)
    small = _SMALL.copy()
    for i in range(60):
        rows = [i & 7, (i + 3) & 7]
        small[rows, :] = _ROT @ small[rows, :]
    counts: dict[int, int] = {}
    for c in _IDS:
        counts[c] = counts.get(c, 0) + 1
    return perf_counter() - t0
