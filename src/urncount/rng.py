"""Deterministic 64-bit random streams with cheap splitting.

The generator is SplitMix64 run in counter mode: output ``i`` of a stream is
``finalize(base + i * GOLDEN)`` where ``base`` mixes the master seed with the
stream index.  Counter mode means a block of outputs can be produced either
one at a time or as a vectorized numpy batch, bit-for-bit identically, and
streams with distinct indices never share state.  A block of outputs
starts as one scalar offset, ``base + counter * GOLDEN``, added to a
read-only step table of ``(j + 1) * GOLDEN`` for j < ``_BLOCK``; a longer
block is filled one table's length at a time into one array.

The mix ends with the xorshift z = y ^ (y >> 31), whose one home is
``finish``.  Bit p of z is bit p of y xor bit p + 31 of y, and y has no bit
p + 31 for p >= 33, so for b <= 31 the top b bits of z are those of y.
Integer draws read only top bits, so they skip ``finish`` when they need at
most 31 bits and apply it otherwise: the stream's one value-selected
branch, in ``RngStream._top_bits``.  ``sampling`` draws its Poisson
uniforms the same way (``unfinished_u64s``), finishing only the outputs it
must.

Draws without replacement return positions (``sample_positions``) and are
array passes: the draws of a forward Fisher-Yates pass, whose bound shrinks
by one per step, are accepted a power-of-two range at a time
(``randbelow_shrinking``, one block per range, sized from the range's
expected number of outputs plus four standard deviations, and one per
``_BLOCK`` outputs past that), and the swaps they drive are resolved
without being made (``fisher_yates_sources``, one sort on a shifted
(target, step) key).

Every count, size and seed argument of the package goes through
``check_int``: a Python int, not a bool, float or numpy scalar.

Two size-selected forks stay.  ``sample_positions`` swaps one step at a
time for up to 32 steps, where many hypergeometric draws of a few balls
would each pay the array set-up; ``fisher_yates_sources`` sorts by target
alone past its int64 key's range.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)

# exp(700) is finite in float64; beyond this, stay in log space.
LOG_FLOAT_LIMIT = 700.0


def check_int(value, name: str, low: int | None = None) -> int:
    """``value`` if it is a Python int (a bool is not) and at least ``low``;
    otherwise a ValueError that names it."""
    if isinstance(value, int) and not isinstance(value, bool) and (low is None or value >= low):
        return value
    floor = "" if low is None else f" >= {low}"
    raise ValueError(f"{name} must be an int{floor}, got {value!r}")


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


# Output blocks are drawn at most this many values at a time.
_BLOCK = 1 << 16

# The counter step table: entry j is (j + 1) GOLDEN mod 2^64.
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _U_GOLDEN
_STEPS.flags.writeable = False


def finish(y: np.ndarray) -> np.ndarray:
    """SplitMix64's last xorshift, z = y ^ (y >> 31), applied to the uint64
    array ``y`` in place; returns ``y``."""
    y ^= y >> _U31
    return y


# ``sample_positions`` runs of at most this many steps swap one step at a
# time: resolving the swaps as arrays costs dozens of scalar steps in set-up.
_SCALAR_STEPS = 32

def fisher_yates_sources(targets: np.ndarray) -> np.ndarray:
    """Resolve the swaps of a forward Fisher-Yates pass without making them.

    Step t swaps positions t and ``targets[t] >= t``.  Returns the original
    position of the item that each slot t < steps holds after the last step.

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
        return targets.copy()
    here = np.arange(steps)
    shift = (steps - 1).bit_length()  # here < 2**shift
    if int(targets.max()) >> (63 - shift) == 0:
        key = targets << shift | here  # (target, step) as one int64
        key.sort()
        by_target = key >> shift
        order = key & ((1 << shift) - 1)
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
    return np.where(prev >= 0, link[prev], targets)


class RngStream:
    """One reproducible uniform stream identified by two ints (master_seed,
    stream_index), each taken modulo 2**64.

    Instances are cheap; create one per independent unit of work (per trial,
    per experiment cell).  A stream must not be shared across threads; distinct
    stream indices are safe to run concurrently.
    """

    __slots__ = ("master_seed", "stream_index", "_base", "_counter")

    def __init__(self, master_seed: int, stream_index: int):
        self.master_seed = check_int(master_seed, "master_seed") & _MASK
        self.stream_index = check_int(stream_index, "stream_index") & _MASK
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

    def unfinished_u64s(self, count: int) -> np.ndarray:
        """The next ``count >= 0`` outputs as uint64, each before its last
        xorshift: ``finish`` of the result is ``u64s(count)``.

        Output i is the mix of ``offset + (i + 1) GOLDEN`` for the scalar
        ``offset = base + counter GOLDEN``, so each ``_BLOCK`` outputs start
        as that offset added to the module's step table.
        """
        y = np.empty(check_int(count, "count", 0), dtype=np.uint64)
        for c0 in range(0, count, _BLOCK):
            part = y[c0:c0 + _BLOCK]
            offset = np.uint64((self._base + (self._counter + c0) * _GOLDEN) & _MASK)
            np.add(_STEPS[:part.size], offset, out=part)
            part ^= part >> _U30
            part *= _U_MIX1
            part ^= part >> _U27
            part *= _U_MIX2
        self._counter += count
        return y

    def u64s(self, count: int) -> np.ndarray:
        """Vectorized ``next_u64()``: the next ``count >= 0`` outputs as uint64."""
        return finish(self.unfinished_u64s(count))

    def _top_bits(self, size: int, bits: int) -> np.ndarray:
        """The top ``bits`` bits (1 <= bits <= 64) of the next ``size`` outputs,
        as uint64: the last xorshift runs only for bits > 31 (``finish``)."""
        y = self.unfinished_u64s(size)
        if bits > 31:
            finish(y)
        y >>= np.uint64(64 - bits)
        return y

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) for n >= 1, unbiased via top-bits rejection."""
        if check_int(n, "n", 1) == 1:
            return 0
        bits = (n - 1).bit_length()
        while True:
            r = self.next_u64() >> (64 - bits)
            if r < n:
                return r

    def randbelow_many(self, n: int, count: int) -> np.ndarray:
        """``count`` calls of ``randbelow(n)`` as one int64 array (1 <= n <= 2**63).

        Block rejection on the same top bits: the stream ends just past the
        ``count``-th accepted output, exactly where the scalar loop stops.
        """
        check_int(count, "count", 0)
        if check_int(n, "n", 1) > 2**63:
            raise ValueError(f"randbelow_many requires n <= 2**63, got n={n}")
        if n == 1:
            return np.zeros(count, dtype=np.int64)
        bits = (n - 1).bit_length()
        parts = [np.zeros(0, dtype=np.uint64)]
        need = count
        while need > 0:
            start = self._counter
            # acceptance is n / 2^bits > 1/2; overdraw a little to finish in one block
            size = min(_BLOCK, (need << bits) // n + need // 16 + 32)
            r = self._top_bits(size, bits)
            ok = np.flatnonzero(r < n)[:need]
            if ok.size == need:
                self._counter = start + int(ok[-1]) + 1
            parts.append(r[ok])
            need -= ok.size
        return np.concatenate(parts).astype(np.int64)

    def randbelow_shrinking(self, m: int, steps: int) -> np.ndarray:
        """``randbelow(m - t)`` for t = 0, ..., steps - 1 as one int64 array
        (0 <= steps < m < 2**63).

        While m - t stays in one power-of-two range (low, 2 low] the shift is
        fixed, so a range's outputs are drawn as one block and accepted all at
        once: output i is accepted iff r_i < m' - (outputs accepted before i),
        for m' the bound at the block's start.  Within the range r <= low is
        always accepted and r >= m' never; for the open outputs in between
        this is the fixed point of ``accept = r < m' - exclusive_cumsum(accept)``.
        Its iterates alternately over- and under-accept, and each one settles
        at least one more leading output.  The stream ends just past the last
        accepted output, where scalar ``randbelow`` calls stop.

        A block is sized for the ``want`` draws left in its range.  The draw
        at bound b takes a geometric number of outputs, of mean 2^bits / b and
        variance 4^bits / b^2 - 2^bits / b.  Over b = top - want + 1, ..., top
        the means sum to at most 2^bits ln(top / (top - want)) and the
        variances to less than 4^bits want / (top (top - want)).  A block
        holds that mean plus four such standard deviations, capped at
        ``_BLOCK``, so a range almost always takes one block, or one per
        ``_BLOCK`` outputs when it needs more.
        """
        check_int(m, "m")
        if not 0 <= check_int(steps, "steps") < m < 2**63:
            raise ValueError("randbelow_shrinking requires 0 <= steps < m < 2**63")
        out = np.empty(steps, dtype=np.int64)
        t = 0
        while t < steps:
            top = m - t
            bits = (top - 1).bit_length()
            low = 1 << (bits - 1)
            want = min(steps - t, top - low)  # steps left in this range
            scale = 1 << bits
            mean = scale * math.log1p(want / (top - want))
            sd = scale * math.sqrt(want / (top * (top - want)))
            size = min(_BLOCK, int(mean + 4.0 * sd) + 1)
            start = self._counter
            r = self._top_bits(size, bits).view(np.int64)
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

    def sample_positions(self, m: int, n: int) -> np.ndarray:
        """A uniform size-n selection of range(m) in random order (0 <= n <= m):
        the int64 original positions of the first n slots after min(n, m - 1)
        forward Fisher-Yates steps, step t swapping t and t + randbelow(m - t).
        Up to ``_SCALAR_STEPS`` steps swap one at a time in a sparse position
        map; longer runs are resolved by ``fisher_yates_sources``."""
        if not 0 <= check_int(n, "n") <= check_int(m, "m"):
            raise ValueError(f"sample_positions requires 0 <= n <= m, got m={m}, n={n}")
        steps = min(n, m - 1)
        if steps <= _SCALAR_STEPS:
            held: dict[int, int] = {}
            for t in range(steps):
                j = t + self.randbelow(m - t)
                held[t], held[j] = held.get(j, j), held.get(t, t)
            return np.array([held.get(t, t) for t in range(n)], dtype=np.int64)
        front = fisher_yates_sources(self.randbelow_shrinking(m, steps) + np.arange(steps))
        if n > steps:  # n = m: the last slot holds the one position the others lack
            front = np.append(front, m * (m - 1) // 2 - int(front.sum()))
        return front
