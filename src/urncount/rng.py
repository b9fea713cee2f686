"""Deterministic 64-bit random streams with cheap splitting.

The generator is SplitMix64 run in counter mode: output ``i`` of a stream is
``finalize(base + i * GOLDEN)`` where ``base`` mixes the master seed with the
stream index.  Counter mode means a block of outputs can be produced either
one at a time or as a vectorized numpy batch, bit-for-bit identically, and
streams with distinct indices never share state.
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

# Distinct Poisson means whose inversion tables are kept (least recently used
# evicted first).
POISSON_CDF_CACHE_SIZE = 1024


@lru_cache(maxsize=POISSON_CDF_CACHE_SIZE)
def _poisson_cdf(lam: float) -> np.ndarray:
    """Sequentially accumulated Poisson(lam) CDF, up to the first zero pmf term."""
    p = math.exp(-lam)
    s = p
    cdf = [s]
    x = 0
    while p > 0.0:
        x += 1
        p *= lam / x
        s += p
        cdf.append(s)
    table = np.array(cdf)
    table.flags.writeable = False
    return table


def poisson_inversion(lam: float, u: np.ndarray) -> np.ndarray:
    """Poisson(lam) variates for 0 <= lam < 30 by inverting the uniforms ``u``.

    Bit-identical to ``RngStream._poisson_inversion`` fed the same uniforms:
    the first index whose accumulated CDF reaches u, or the last table entry.
    """
    cdf = _poisson_cdf(lam)
    idx = np.searchsorted(cdf, u, side="left")
    return np.minimum(idx, len(cdf) - 1).astype(np.int64)


def binomial_inversion(n: int, p: float, u: float) -> int:
    """Binomial(n, p) by CDF inversion of one uniform; needs (1-p)^n normal."""
    q = 1.0 - p
    pmf = q ** n
    s = pmf
    ratio = p / q
    x = 0
    while u > s:
        x += 1
        if x > n:
            return n
        pmf *= ratio * (n - x + 1) / x
        s += pmf
        if pmf == 0.0:
            break
    return x


def binomial_chunk_max(p: float) -> int:
    """Largest trial count one inversion handles at 0 < p < 1."""
    return max(1, int(LOG_FLOAT_LIMIT / -math.log1p(-p)))


class RngStream:
    """One reproducible uniform stream identified by (master_seed, stream_index).

    Instances are cheap; create one per independent unit of work (per trial,
    per experiment cell).  A stream must not be shared across threads; distinct
    stream indices are safe to run concurrently.
    """

    __slots__ = ("master_seed", "stream_index", "_base", "_counter")

    def __init__(self, master_seed: int, stream_index: int = 0):
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
        """Vectorized ``next_u64()``: the next ``count`` outputs as uint64."""
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
        """Vectorized ``random()``: identical values, one numpy pass."""
        return (self.u64s(count) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

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
        if not 1 <= n <= 2**63:
            raise ValueError("randbelow_many requires 1 <= n <= 2**63")
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

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def partial_shuffle(self, items: list, n: int) -> None:
        """Move a uniform random size-n selection, in random order, to the front.

        The first n steps of a forward Fisher-Yates shuffle: step i swaps
        ``items[i]`` with ``items[i + randbelow(len(items) - i)]``, consuming the
        stream exactly as those scalar calls do.  Outputs come in numpy blocks;
        the acceptance bound shrinks every step, so acceptance is a Python loop.
        """
        i, m = 0, len(items)  # m = k - i, the range of step i
        while i < n and m > 1:  # randbelow(1) consumes nothing
            shift = 64 - (m - 1).bit_length()
            low = 1 << (63 - shift)  # the shift grows once m falls to this
            start = self._counter
            used = 0
            for u in self.u64s(min(_BLOCK, 2 * (n - i) + 16)).tolist():
                used += 1
                r = u >> shift
                if r < m:
                    j = i + r
                    items[i], items[j] = items[j], items[i]
                    i += 1
                    m -= 1
                    if i == n or m == 1:
                        break
                    if m == low:
                        shift += 1
                        low >>= 1
            self._counter = start + used

    # -- Poisson ------------------------------------------------------------

    def poisson(self, lam: float) -> int:
        """Poisson variate: CDF inversion below mean 30, else transformed
        rejection with squeeze (Hormann's PTRS)."""
        if lam < 0:
            raise ValueError("poisson requires lam >= 0")
        if lam == 0:
            return 0
        if lam < 30.0:
            return self._poisson_inversion(lam)
        return self._poisson_ptrs(lam)

    def _poisson_inversion(self, lam: float) -> int:
        u = self.random()
        x = 0
        p = math.exp(-lam)
        s = p
        while u > s:
            x += 1
            p *= lam / x
            s += p
            if p == 0.0:
                break
        return x

    def _poisson_ptrs(self, lam: float) -> int:
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

    def poisson_many(self, lam: float, count: int) -> np.ndarray:
        """``count`` iid Poisson variates.

        For means below 30 this consumes exactly one uniform per variate and
        reproduces the scalar inversion path bit-for-bit (searchsorted against
        the same sequentially accumulated CDF).
        """
        if lam < 0:
            raise ValueError("poisson requires lam >= 0")
        if lam == 0:
            return np.zeros(count, dtype=np.int64)
        if lam >= 30.0:
            return np.array([self._poisson_ptrs(lam) for _ in range(count)], dtype=np.int64)
        return poisson_inversion(lam, self.uniforms(count))

    # -- Binomial -----------------------------------------------------------

    def binomial(self, n: int, p: float) -> int:
        """Binomial(n, p) variate: n coin flips when n <= 64, else CDF
        inversion on chunks small enough that (1-p)^chunk stays normal."""
        if n < 0:
            raise ValueError("binomial requires n >= 0")
        if not 0.0 <= p <= 1.0:
            raise ValueError("binomial requires 0 <= p <= 1")
        if n == 0 or p == 0.0:
            return 0
        if p == 1.0:
            return n
        if n <= 64:
            total = 0
            for _ in range(n):
                if self.random() < p:
                    total += 1
            return total
        chunk_max = binomial_chunk_max(p)
        total = 0
        remaining = n
        while remaining > 0:
            c = min(remaining, chunk_max)
            total += binomial_inversion(c, p, self.random())
            remaining -= c
        return total
