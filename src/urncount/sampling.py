"""The four sampling models.

Each model has one counts core: an int64 array of per-color counts aligned
with ``urn.ids``, which is all a fingerprint needs, and every model is sized
by n (Bernoulli keeps each ball with p = n / k).  ``sample_counts`` maps a
model name to its core; ``sample_draws``, for ``urncount simulate``, draws
from the same cores, in draw order for the two ball-drawing models.

The cores are array passes.  Multinomial and hypergeometric draws are ball
positions, read through the urn's ball-to-color table (``ball_colors``) and
counted with one ``bincount``: uniform ones for draws with replacement, and
the slots of a partial Fisher-Yates resolved without the ball list
(``RngStream.sample_positions``) for draws without.  Bernoulli colors of more
than 64 balls split into chunks of ``binomial_chunk_max(p)`` trials, and each
chunk inverts its uniform through a binomial CDF table kept per (chunk size,
p) and grown only as far as the uniforms it has inverted.  Poisson colors
of mean below 30 invert through the rng's cell tables over raw outputs.

All samplers are pure functions of (urn, parameters, stream): identical
inputs reproduce identical outputs byte for byte, and the stream advances
exactly as one scalar ``RngStream`` call per draw, color or chunk would
advance it.
"""

from __future__ import annotations

import bisect
import math
import sys
import threading
from array import array
from functools import lru_cache

import numpy as np

from .rng import _BLOCK, LOG_FLOAT_LIMIT, _SCALAR_MAX, RngStream, check_int, poisson_from_u64s
from .urn import INT64_MAX, UrnSpec

# every accepted model name -> its canonical name
MODEL_ALIASES = {
    "multi": "multinomial", "multinomial": "multinomial",
    "hyper": "hypergeometric", "hypergeometric": "hypergeometric",
    "bern": "bernoulli", "bernoulli": "bernoulli",
    "poi": "poissonized", "poissonized": "poissonized",
}

# Colors per Bernoulli uniform block (at most 64 uniforms each unless chunked),
# so memory stays flat in k.
_COLOR_BLOCK = 4096

# Distinct (chunk size, p) pairs whose binomial inversion tables are kept
# (least recently used evicted first).  A table pays only when its pair
# recurs: across a block's colors of one multiplicity, or across calls on one
# urn.  It grows to about its chunk's mean plus 9 standard deviations, and a
# chunk's mean is at most 700, so a table stays under about 1000 entries
# (8 KB).  4096 tables cover every multiplicity of a Zipf-like urn of 1.2e7
# balls (1935 distinct above 64).
BINOMIAL_CDF_CACHE_SIZE = 4096

# The ball-to-color table costs 8 bytes a ball and lives as long as its urn.
# Past this many balls (64 MB) both ball-drawing cores find each ball's color
# by binary search of the cumulative multiplicities instead.
_BALL_TABLE_MAX = 1 << 23

# Largest Poisson mean accepted: the int64 limit.  Past it a variate fits the
# int64 counts only by falling below its mean, so such a mean is rejected
# before the stream moves.  Just below it a variate, within a few standard
# deviations (about 3e9) of its mean, can still pass 2**63 - 1; each heavy
# variate is checked as it is drawn.
POISSON_MEAN_MAX = float(INT64_MAX)


def _colors_of(urn: UrnSpec, balls: np.ndarray) -> np.ndarray:
    """Color index of each ball position, the balls laid out color by color."""
    if urn.k > _BALL_TABLE_MAX:
        return np.searchsorted(np.cumsum(urn.mults), balls, side="right")
    return urn.ball_colors[balls]


def _check_not_bool(size, what: str) -> None:
    """Refuse a Python or numpy bool, which would pass as the size 0 or 1."""
    if isinstance(size, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, not a bool, got {size!r}")


def _multinomial_index(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Color index of each of n independent draws, in draw order."""
    return _colors_of(urn, rng.randbelow_many(urn.k, check_int(n, "sample size", 0)))


def multinomial_counts(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Per-color counts of n independent draws, color i with probability k_i / k."""
    return np.bincount(_multinomial_index(urn, n, rng), minlength=urn.C)


def check_model_size(model: str, n, k: int, name: str = "sample size"):
    """``n``, if it is no bool and the canonical ``model`` can draw that many
    from a k-ball urn: the hypergeometric and Bernoulli models, which take each
    ball at most once, need 0 <= n <= k.  Otherwise a ValueError naming ``name``."""
    _check_not_bool(n, name)
    if model in ("hypergeometric", "bernoulli") and not 0 <= n <= k:
        raise ValueError(f"{name}: the {model} model needs 0 <= n <= k, got n = {n}, k = {k}")
    return n


def _hypergeometric_index(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Color indices of a uniformly random size-n sub-multiset, in random order.

    The colors of the ball positions a partial Fisher-Yates over the
    expanded ball array moves to its first n slots.
    """
    check_model_size("hypergeometric", check_int(n, "sample size", 0), urn.k)
    return _colors_of(urn, rng.sample_positions(urn.k, n))


def hypergeometric_counts(urn: UrnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Per-color counts of a uniformly random size-n sub-multiset."""
    return np.bincount(_hypergeometric_index(urn, n, rng), minlength=urn.C)


def binomial_chunk_max(p: float) -> int:
    """Largest trial count one inversion handles at 0 < p < 1: (1-p)^size
    stays normal.  Capped at the int64 range, past every multiplicity."""
    return max(1, min(int(LOG_FLOAT_LIMIT / -math.log1p(-p)), 2**63 - 1))


class _BinomialCdf:
    """The CDF of Binomial(size, p) for (1-p)^size normal, accumulated by the
    scalar inversion's recurrence (the reference ``binomial_inversion`` in
    ``tests/test_counts.py``) only as far as the uniforms inverted so far
    reach: to the first entry at or above the largest of them, or to its end
    at x = size or the first zero pmf term.  Inverting u gives the first
    index whose entry reaches u, or the last entry, as the scalar loop does.

    Tables are shared through the cache, so each holds a lock across its
    growth and its search: an append to ``sums`` must not meet another
    thread's search of it, or a view of it in ``invert``."""

    __slots__ = ("size", "ratio", "pmf", "sums", "ended", "lock")

    def __init__(self, size: int, p: float):
        q = 1.0 - p
        self.size, self.ratio = size, p / q
        self.pmf = q ** size
        self.sums = array("d", [self.pmf])
        self.ended = False
        self.lock = threading.Lock()

    def _reach(self, u: float) -> None:
        sums = self.sums
        if self.ended or u <= sums[-1]:
            return
        size, ratio, pmf, s = self.size, self.ratio, self.pmf, sums[-1]
        append = sums.append
        for x in range(len(sums), size + 1):
            pmf *= ratio * (size - x + 1) / x
            s += pmf
            append(s)
            if pmf == 0.0:
                self.ended = True
                break
            if s >= u:
                break
        else:
            self.ended = True
        self.pmf = pmf

    def variate(self, u: float) -> int:
        """The variate for one uniform, by bisection."""
        with self.lock:
            self._reach(u)
            return min(bisect.bisect_left(self.sums, u), len(self.sums) - 1)

    def invert(self, u: np.ndarray) -> np.ndarray:
        """The variates for an array of uniforms, by one ``searchsorted``."""
        with self.lock:
            self._reach(float(u.max()))
            # the view lives only through the search, inside the lock
            x = np.searchsorted(np.frombuffer(self.sums), u, side="left")
            return np.minimum(x, len(self.sums) - 1)


@lru_cache(maxsize=BINOMIAL_CDF_CACHE_SIZE)
def _binomial_cdf(size: int, p: float) -> _BinomialCdf:
    return _BinomialCdf(size, p)


def bernoulli_counts(urn: UrnSpec, p: float, rng: RngStream) -> np.ndarray:
    """Per-color inclusion counts Binomial(k_i, p), each ball kept with probability p.

    Each color uses the stream as the scalar reference ``binomial(rng, k_i, p)``
    in ``tests/test_counts.py`` does, and that use is fixed in advance: k_i
    coin-flip uniforms when k_i <= 64, otherwise one uniform per inversion
    chunk, and none at p in {0, 1}.  So the colors share uniform blocks drawn
    in canonical color order.  Chunks hold ``binomial_chunk_max(p)`` trials
    but for each color's last, so a block's chunks of one size invert their
    uniforms together through that size's CDF table.  The tables are cached,
    which pays when sizes repeat: across a block's colors of one
    multiplicity, and across calls on one urn.  When they do not, a table is
    accumulated only as far as its largest uniform, which is the scalar
    loop's own work for that uniform.
    """
    _check_not_bool(p, "inclusion probability")
    if not 0.0 <= p <= 1.0:
        raise ValueError("inclusion probability must lie in [0, 1]")
    mults = urn.mults
    if p == 0.0:
        return np.zeros(urn.C, dtype=np.int64)
    if p == 1.0:
        return mults.copy()
    chunk_max = binomial_chunk_max(p)
    chunked = mults > 64
    use = np.where(chunked, -(-mults // chunk_max), mults)  # uniforms per color
    out = np.empty(urn.C, dtype=np.int64)
    for c0 in range(0, urn.C, _COLOR_BLOCK):
        block = slice(c0, c0 + _COLOR_BLOCK)
        u = rng.uniforms(int(use[block].sum()))
        offsets = np.cumsum(use[block]) - use[block]
        big = np.flatnonzero(chunked[block])
        if big.size <= _SCALAR_MAX:  # a few chunked colors, one chunk at a time
            out[block] = np.add.reduceat(u < p, offsets, dtype=np.int64)
            for c in big.tolist():
                remaining, total = int(mults[c0 + c]), 0
                for v in u[offsets[c]:offsets[c] + use[c0 + c]].tolist():
                    size = min(remaining, chunk_max)
                    total += _binomial_cdf(size, p).variate(v)
                    remaining -= size
                out[c0 + c] = total
            continue
        taken = (u < p).astype(np.int64)
        # each chunk's uniform and size: chunk_max, but the remainder for each
        # color's last chunk; then the chunks grouped by size
        per = use[block][big]
        ends = np.cumsum(per)
        at = np.repeat(offsets[big] - (ends - per), per) + np.arange(ends[-1])
        sizes = np.full(at.size, chunk_max)
        sizes[ends - 1] = mults[block][big] - (per - 1) * chunk_max
        order = np.argsort(sizes, kind="stable")
        at, sizes = at[order], sizes[order]
        bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), at.size]
        uc, x = u[at], np.empty(at.size, dtype=np.int64)
        for lo, hi, size in zip(bounds, bounds[1:], sizes[bounds[:-1]].tolist()):
            table = _binomial_cdf(size, p)
            if hi - lo <= _SCALAR_MAX:
                x[lo:hi] = [table.variate(v) for v in uc[lo:hi].tolist()]
            else:
                x[lo:hi] = table.invert(uc[lo:hi])
        taken[at] = x
        out[block] = np.add.reduceat(taken, offsets)
    return out


def poissonized_color_counts(urn: UrnSpec, n: float, rng: RngStream) -> np.ndarray:
    """Per-color counts N_i ~ Poisson(n * k_i / k), aligned with urn.ids.

    Colors take the stream in canonical order, as the scalar reference
    ``poisson(rng, lam)`` in ``tests/test_counts.py`` would per color: a
    color with mean below 30 takes one uniform, drawn here as the raw output
    it comes from and inverted through its mean's cell table
    (``poisson_from_u64s``); a heavier color runs PTRS rejection.  The colors
    go in blocks of ``_BLOCK``: each block draws its light colors' outputs
    between its heavy colors' rejection runs.  When the light colors share
    one multiplicity, the block is inverted in place while its outputs are
    still in cache; otherwise the outputs are kept and each multiplicity's
    colors are inverted together at the end.

    A non-finite n, or one whose largest mean n * max(k_i) / k exceeds
    ``POISSON_MEAN_MAX`` (2**63), is rejected before the stream is touched.
    Below it, a variate past 2**63 - 1 raises a ValueError naming n and the
    mean as soon as it is drawn; the stream has moved by then.
    """
    _check_not_bool(n, "expected sample size")
    if isinstance(n, int) and n > sys.float_info.max:  # math.isfinite would overflow
        raise ValueError(f"expected sample size n must lie in the float range, "
                         f"got an int of {n.bit_length()} bits")
    if not math.isfinite(n):
        raise ValueError(f"expected sample size n must be finite, got {n}")
    if n < 0:
        raise ValueError("expected sample size must be >= 0")
    out = np.zeros(urn.C, dtype=np.int64)
    if n == 0:
        return out
    values, order, bounds = urn.mult_groups
    means = [n * mult / urn.k for mult in values.tolist()]
    if means[-1] > POISSON_MEAN_MAX:
        raise ValueError(f"expected sample size n = {n} gives a largest Poisson mean of "
                         f"{means[-1]:g}, above {POISSON_MEAN_MAX:g}")
    light = sum(1 for lam in means if lam < 30.0)  # means increase with the multiplicity
    heavy = np.flatnonzero(urn.mults >= values[light]).tolist() if light < len(means) else []
    z = np.empty(urn.C, dtype=np.uint64) if light > 1 else None
    h0 = 0  # first heavy color not yet drawn
    for c0 in range(0, urn.C, _BLOCK):
        c1 = min(c0 + _BLOCK, urn.C)
        h1 = bisect.bisect_left(heavy, c1, h0)
        parts, drawn, start = [], [], c0
        for h in heavy[h0:h1]:
            # a heavy color's place in the block is inverted and then overwritten
            parts += [rng.u64s(h - start), np.zeros(1, dtype=np.uint64)]
            lam = n * int(urn.mults[h]) / urn.k
            drawn.append(rng._poisson_ptrs(lam))
            if drawn[-1] > INT64_MAX:
                raise ValueError(f"expected sample size n = {n} gives a Poisson count of "
                                 f"{drawn[-1]} at mean {lam:g}, past the int64 range")
            start = h + 1
        parts.append(rng.u64s(c1 - start))
        block = np.concatenate(parts) if len(parts) > 1 else parts[0]
        if light == 1:
            out[c0:c1] = poisson_from_u64s(means[0], block)
        elif light > 1:
            z[c0:c1] = block
        for h, x in zip(heavy[h0:h1], drawn):
            out[h] = x
        h0 = h1
    if z is not None:
        for g in range(light):
            idx = order[bounds[g]:bounds[g + 1]]
            out[idx] = poisson_from_u64s(means[g], z[idx])
    return out


def sample_counts(urn: UrnSpec, model: str, n, rng: RngStream) -> np.ndarray:
    """Per-color counts of one size-n sample under the canonical ``model``.

    The Bernoulli model includes each ball with probability p = n / k.  The
    cores are looked up by name on every call, so a replacement installed at
    ``urncount.sampling.<core>`` (a test fake, a timing hook) sees every call.
    """
    if model == "multinomial":
        return multinomial_counts(urn, n, rng)
    if model == "hypergeometric":
        return hypergeometric_counts(urn, n, rng)
    if model == "bernoulli":
        return bernoulli_counts(urn, check_model_size(model, n, urn.k) / urn.k, rng)
    if model == "poissonized":
        return poissonized_color_counts(urn, n, rng)
    raise ValueError(f"model: unknown tag {model!r}")


def sample_draws(urn: UrnSpec, model: str, n, rng: RngStream) -> list[int]:
    """The observed color ids of one size-n sample under the canonical ``model``.

    Multinomial and hypergeometric draws come in draw order.  Bernoulli draws
    come in canonical color order, and Poisson draws are a uniformly shuffled
    expansion of the counts; only the counts carry information.
    """
    if model == "multinomial":
        return urn.ids[_multinomial_index(urn, n, rng)].tolist()
    if model == "hypergeometric":
        return urn.ids[_hypergeometric_index(urn, n, rng)].tolist()
    draws = np.repeat(urn.ids, sample_counts(urn, model, n, rng))
    if model == "poissonized":
        draws = draws[rng.permutation(draws.size)]
    return draws.tolist()
