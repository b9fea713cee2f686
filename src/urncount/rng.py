"""Deterministic 64-bit random streams with cheap splitting.

The generator is SplitMix64 run in counter mode: output ``i`` of a stream is
``finalize(base + i * GOLDEN)`` where ``base`` mixes the master seed with the
stream index.  Counter mode means a block of outputs can be produced either
one at a time or as a vectorized numpy batch, bit-for-bit identically, and
streams with distinct indices never share state.

Shuffles return positions (``sample_positions``, ``permutation``) and are
array passes: the draws of a Fisher-Yates pass, whose bound shrinks by one
per step, are accepted a power-of-two range at a time
(``randbelow_shrinking``), and the swaps they drive are resolved without
being made (``fisher_yates_sources``).  Short runs keep the scalar loop.

Poisson variates of mean below 30 invert through cell tables over raw
outputs (``poisson_from_u64s``): a uniform is formed only where an output's
cell straddles a step of the CDF.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)

# exp(700) is finite in float64; beyond this, stay in log space.
LOG_FLOAT_LIMIT = 700.0


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


# Output blocks are drawn at most this many values at a time.
_BLOCK = 1 << 16

# Up to this many outputs, the scalar mix is faster than a numpy pass, whose
# fixed set-up cost is several scalar outputs' worth.
_SCALAR_MAX = 8

# Fisher-Yates runs of at most this many steps draw and swap one step at a
# time: an array pass costs dozens of scalar steps in set-up.
_SCALAR_STEPS = 32

# Distinct Poisson means whose inversion tables are kept (least recently used
# evicted first).
POISSON_CDF_CACHE_SIZE = 1024

# A Poisson cell table has 1024 cells: raw output z falls in cell z >> 54.
_GUIDE_CELLS = 1024
_CELL_SHIFT = np.uint64(54)


@lru_cache(maxsize=POISSON_CDF_CACHE_SIZE)
def _poisson_table(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only inversion table for Poisson(lam): the CDF and its cells.

    The CDF is accumulated sequentially up to the first zero pmf term.  A
    uniform u inverts to the first index whose CDF reaches u, or the last
    entry: ``searchsorted(cdf[:-1], u)``, monotone in u.  Cell j holds the raw
    outputs z with ``z >> 54 == j``, whose uniforms ``(z >> 11) * 2**-53`` are
    those with ``floor(u * 1024) == j``: it stores their inversion when its
    two end outputs agree on it, and -1 when it straddles a CDF step.  The
    cells are intp, which ``take`` writes into the int64 result with no cast
    pass; a full cache holds at most 1024 means x 8 KB of cells, plus the CDFs.
    """
    p = math.exp(-lam)
    s = p
    cdf = [s]
    x = 0
    while p > 0.0:
        x += 1
        p *= lam / x
        s += p
        cdf.append(s)
    cdf = np.array(cdf)
    first = np.arange(_GUIDE_CELLS, dtype=np.uint64) << _CELL_SHIFT
    ends = np.stack([first, first | np.uint64(2**54 - 1)])
    idx = np.searchsorted(cdf[:-1], (ends >> np.uint64(11)) * 2.0 ** -53, side="left")
    cells = np.where(idx[0] == idx[1], idx[0], -1).astype(np.intp)
    cdf.flags.writeable = False
    cells.flags.writeable = False
    return cdf, cells


def poisson_from_u64s(lam: float, z: np.ndarray) -> np.ndarray:
    """Poisson(lam) variates for 0 <= lam < 30 from the raw outputs ``z``.

    Bit-identical to the scalar inversion loop fed the uniforms
    ``(z >> 11) * 2**-53`` (the reference ``_poisson_inversion`` in
    ``tests/test_counts.py``): each output's cell gives its variate, and only
    the outputs in the few cells that straddle a CDF step form their uniform
    and search the CDF.
    """
    cdf, cells = _poisson_table(lam)
    idx = cells.take((z >> _CELL_SHIFT).view(np.intp))  # take would cast a uint64 index
    straddle = (idx < 0).nonzero()[0]
    if straddle.size:
        u = (z[straddle] >> np.uint64(11)) * 2.0 ** -53
        idx[straddle] = np.searchsorted(cdf[:-1], u, side="left")
    return idx


def fisher_yates_sources(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the swaps of a forward Fisher-Yates pass without making them.

    Step t swaps positions t and ``targets[t] >= t``.  Returns ``front``, the
    original position of the item that slot t < steps holds after the last
    step, and ``moved`` with ``moved_from``: each position >= steps that some
    step targeted, and the original position of the item it ends up holding.
    Every other position keeps its item.

    No later step touches slot t, which receives the item its target held
    just before step t: the one put there by ``prev[t]``, the last earlier
    step with the same target, or else the original one.  Step s put there
    the item its own slot held just before step s, which the last earlier
    step to target slot s had put there, and so on back to a slot that no
    earlier step targeted.  One sort by (target, step) gives both links, and
    pointer doubling follows the chains to their ends.
    """
    targets = np.asarray(targets, dtype=np.int64)
    steps = targets.size
    if not steps:
        return targets.copy(), targets.copy(), targets.copy()
    here = np.arange(steps)
    if int(targets.max()) < (2**63 - 1) // steps:
        key = targets * steps + here  # (target, step) as one int64
        key.sort()
        by_target = key // steps
        order = key - by_target * steps
    else:
        order = np.argsort(targets, kind="stable")
        by_target = targets[order]
    same = by_target[1:] == by_target[:-1]
    prev = np.full(steps, -1, dtype=np.int64)
    prev[order[1:]] = np.where(same, order[:-1], -1)
    # the last step to target each position, slots (targets < steps) first
    ends = np.flatnonzero(np.append(~same, True))
    last_target, last_step = by_target[ends], order[ends]
    inside = int(np.searchsorted(last_target, steps))
    # link[t]: the last step before t to target slot t, or t itself if none.
    # Step t is the last to target slot t when it swaps t with itself; the
    # link is then the step before it with that target.
    link = here.copy()
    link[last_target[:inside]] = last_step[:inside]
    stay = np.flatnonzero(targets == here)
    link[stay] = np.where(prev[stay] >= 0, prev[stay], stay)
    while True:  # pointer doubling: each slot's chain ends at a slot's own item
        nxt = link[link]
        if np.array_equal(nxt, link):
            break
        link = nxt
    front = np.where(prev >= 0, link[prev], targets)
    return front, last_target[inside:], link[last_step[inside:]]


class RngStream:
    """One reproducible uniform stream identified by (master_seed, stream_index).

    Instances are cheap; create one per independent unit of work (per trial,
    per experiment cell).  A stream must not be shared across threads; distinct
    stream indices are safe to run concurrently.
    """

    __slots__ = ("master_seed", "stream_index", "_base", "_counter")

    def __init__(self, master_seed: int, stream_index: int):
        self.master_seed = master_seed & _MASK
        self.stream_index = stream_index & _MASK
        self._base = _mix(self.master_seed ^ _mix(self.stream_index ^ _GOLDEN))
        self._counter = 0

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"

    def next_u64(self) -> int:
        self._counter += 1
        return _mix((self._base + self._counter * _GOLDEN) & _MASK)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def u64s(self, count: int) -> np.ndarray:
        """Vectorized ``next_u64()``: the next ``count`` outputs as uint64.

        Up to ``_SCALAR_MAX`` outputs come from ``next_u64()`` calls, which
        are cheaper there than numpy's per-call set-up.
        """
        if count < 0:
            raise ValueError(f"u64s requires count >= 0, got {count}")
        if count <= _SCALAR_MAX:
            return np.array([self.next_u64() for _ in range(count)], dtype=np.uint64)
        start = self._counter + 1
        self._counter += count
        z = np.arange(start, start + count, dtype=np.uint64)
        z *= _U_GOLDEN
        z += np.uint64(self._base)
        z ^= z >> _U30
        z *= _U_MIX1
        z ^= z >> _U27
        z *= _U_MIX2
        z ^= z >> _U31
        return z

    def uniforms(self, count: int) -> np.ndarray:
        """Vectorized ``random()``: identical values."""
        z = self.u64s(count)
        z >>= np.uint64(11)
        return z * 2.0 ** -53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via top-bits rejection."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        while True:
            r = self.next_u64() >> (64 - bits)
            if r < n:
                return r

    def randbelow_many(self, n: int, count: int) -> np.ndarray:
        """``count`` calls of ``randbelow(n)`` as one int64 array (n <= 2**63).

        Block rejection on the same top bits: the stream ends just past the
        ``count``-th accepted output, exactly where the scalar loop stops.
        """
        if not 1 <= n <= 2**63 or count < 0:
            raise ValueError(f"randbelow_many requires 1 <= n <= 2**63 and count >= 0, "
                             f"got n={n}, count={count}")
        if n == 1:
            return np.zeros(count, dtype=np.int64)
        bits = (n - 1).bit_length()
        shift = np.uint64(64 - bits)
        parts = [np.zeros(0, dtype=np.uint64)]
        need = count
        while need > 0:
            start = self._counter
            # acceptance is n / 2^bits > 1/2; overdraw a little to finish in one block
            size = min(_BLOCK, (need << bits) // n + need // 16 + 32)
            r = self.u64s(size) >> shift
            ok = np.flatnonzero(r < n)[:need]
            if ok.size == need:
                self._counter = start + int(ok[-1]) + 1
            parts.append(r[ok])
            need -= ok.size
        return np.concatenate(parts).astype(np.int64)

    def randbelow_shrinking(self, m: int, steps: int) -> np.ndarray:
        """``randbelow(m - t)`` for t = 0, ..., steps - 1 as one int64 array
        (steps < m < 2**63).

        While m - t stays in one power-of-two range (low, 2 low] the shift is
        fixed, so a range's outputs are drawn as one block and accepted all at
        once: output i is accepted iff r_i < m' - (outputs accepted before i),
        for m' the bound at the block's start.  Within the range r <= low is
        always accepted and r >= m' never; for the open outputs in between
        this is the fixed point of ``accept = r < m' - exclusive_cumsum(accept)``.
        Its iterates alternately over- and under-accept, and each one settles
        at least one more leading output.  A range's run of at most
        ``_SCALAR_STEPS`` steps comes from scalar ``randbelow`` calls.  The
        stream ends just past the last accepted output, where the scalar calls
        stop.
        """
        if not 0 <= steps < m < 2**63:
            raise ValueError("randbelow_shrinking requires 0 <= steps < m < 2**63")
        out = np.empty(steps, dtype=np.int64)
        t = 0
        while t < steps:
            top = m - t
            bits = (top - 1).bit_length()
            low = 1 << (bits - 1)
            want = min(steps - t, top - low)  # steps left in this range
            if want <= _SCALAR_STEPS:
                for _ in range(want):
                    out[t] = self.randbelow(m - t)
                    t += 1
                continue
            start = self._counter
            # acceptance is above 1/2 in the range; overdraw to finish in one block
            r = (self.u64s(min(_BLOCK, want + want // 2 + 1)) >> np.uint64(64 - bits)).view(np.int64)
            accept = r <= low
            open_ = np.flatnonzero((r > low) & (r < top))
            # an open output is accepted iff fewer open ones before it were
            # accepted than its slack
            slack = top - r[open_] - np.cumsum(accept)[open_]
            taken = slack > 0
            while True:
                settled = np.cumsum(taken) - taken < slack
                if np.array_equal(settled, taken):
                    break
                taken = settled
            accept[open_[taken]] = True
            hits = np.flatnonzero(accept)[:want]
            out[t:t + hits.size] = r[hits]
            t += hits.size
            if hits.size == want:
                self._counter = start + int(hits[-1]) + 1
        return out

    def _slots(self, m: int, n: int, mirrored: bool) -> np.ndarray:
        """The original position each of the first n slots of range(m) holds
        after ``min(n, m - 1)`` forward Fisher-Yates steps, as int64 (n <= m).

        Step t draws ``r = randbelow(m - t)`` and swaps slots t and t + r, or,
        mirrored, t and m - 1 - r.  Up to ``_SCALAR_STEPS`` steps swap one at
        a time in a sparse position map; longer runs are resolved by
        ``fisher_yates_sources``.
        """
        steps = min(n, m - 1)
        if steps <= _SCALAR_STEPS:
            held: dict[int, int] = {}
            for t in range(steps):
                r = self.randbelow(m - t)
                j = m - 1 - r if mirrored else t + r
                held[t], held[j] = held.get(j, j), held.get(t, t)
            return np.array([held.get(t, t) for t in range(n)], dtype=np.int64)
        r = self.randbelow_shrinking(m, steps)
        front, moved, moved_from = fisher_yates_sources(m - 1 - r if mirrored
                                                        else r + np.arange(steps))
        if n > steps:  # n = m: the last slot keeps its item unless a step took it
            front = np.append(front, moved_from if moved.size else m - 1)
        return front

    def sample_positions(self, m: int, n: int) -> np.ndarray:
        """A uniform size-n selection of range(m) in random order (n <= m):
        step t of the partial Fisher-Yates swaps t and t + randbelow(m - t)."""
        if not 0 <= n <= m:
            raise ValueError(f"sample_positions requires 0 <= n <= m, got m={m}, n={n}")
        return self._slots(m, n, mirrored=False)

    def permutation(self, m: int) -> np.ndarray:
        """A uniform random ordering of range(m): the one left by the shuffle
        whose step i = m - 1, ..., 1 swaps items i and randbelow(i + 1).
        Reversed, those are the mirrored forward steps."""
        if m < 0:
            raise ValueError(f"permutation requires m >= 0, got {m}")
        return (m - 1 - self._slots(m, m, mirrored=True))[::-1]

    def _poisson_ptrs(self, lam: float) -> int:
        """Poisson variate for mean lam >= 30: transformed rejection with
        squeeze (Hormann's PTRS)."""
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        v_r = 0.9277 - 3.6224 / (b - 2.0)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= v_r:
                return int(k)
            if k < 0 or (us < 0.013 and v > us):
                continue
            if (math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b)
                    <= k * loglam - lam - math.lgamma(k + 1.0)):
                return int(k)
