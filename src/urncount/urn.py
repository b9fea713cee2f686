"""Urn populations: color multiplicities, near-uniform families, hard pairs.

An urn is a multiset of k colored balls with C distinct colors.  Color ids are
opaque 64-bit unsigned integers; nothing downstream ever inspects them, only
their multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .rng import RngStream

MAX_COLOR_ID = 2**64 - 1
INT64_MAX = 2**63 - 1


class UrnParseError(ValueError):
    """Malformed urn text; the message names the offending line."""


@dataclass(frozen=True, init=False, eq=False)
class UrnSpec:
    """A population of colored balls, canonically sorted by color id.

    The urn is its read-only ``ids`` (uint64) and ``mults`` (int64) arrays;
    samplers return per-color counts in this order.  ``UrnSpec(pairs)`` takes
    ``(color_id, multiplicity)`` pairs in any order.  Equality and hashing
    follow the arrays.  Immutable after construction and safe for concurrent
    reads.
    """

    ids: np.ndarray = field(repr=False)
    mults: np.ndarray = field(repr=False)
    k: int
    C: int

    def __init__(self, colors: Iterable[tuple[int, int]]):
        pairs = tuple(colors)
        ids, mults = [cid for cid, _ in pairs], [mult for _, mult in pairs]
        if not all(map(_is_integer_type, {*map(type, ids), *map(type, mults)})):
            for cid, mult in pairs:
                if not _is_integer_type(type(cid)):
                    raise ValueError(f"color id {cid} is a {type(cid).__name__}, not an integer")
                if not _is_integer_type(type(mult)):
                    raise ValueError(f"color {cid} has multiplicity {mult}, a "
                                     f"{type(mult).__name__}, not an integer")
        self._adopt(*_as_arrays(ids, mults))

    @classmethod
    def _from_arrays(cls, ids: np.ndarray, mults: np.ndarray) -> "UrnSpec":
        """An urn that takes ownership of freshly built uint64/int64 arrays."""
        urn = cls.__new__(cls)
        urn._adopt(ids, mults)
        return urn

    def _adopt(self, ids: np.ndarray, mults: np.ndarray) -> None:
        """Validate the arrays, sort them by id and make them this urn."""
        if not ids.size:
            raise ValueError("urn must contain at least one color")
        bad = np.flatnonzero(mults < 1)
        if bad.size:
            cid, mult = int(ids[bad[0]]), int(mults[bad[0]])
            raise ValueError(f"color {cid} has non-positive multiplicity {mult}")
        if np.any(ids[1:] <= ids[:-1]):  # not already canonical
            order = np.argsort(ids, kind="stable")
            ids, mults = ids[order], mults[order]
            dup = np.flatnonzero(ids[1:] == ids[:-1])
            if dup.size:
                raise ValueError(f"duplicate color id {int(ids[dup[0]])}")
        if int(mults.max()) > INT64_MAX // ids.size:  # an int64 sum could wrap
            k = sum(mults.tolist())
            if k > INT64_MAX:
                raise ValueError(f"total multiplicity k = {k} exceeds 64-bit signed range")
        else:
            k = int(mults.sum())
        ids.flags.writeable = False
        mults.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "C", ids.size)

    @classmethod
    def from_counts(cls, counts: Mapping[int, int] | Iterable[tuple[int, int]]) -> "UrnSpec":
        return cls(counts.items() if isinstance(counts, Mapping) else counts)

    def __eq__(self, other):
        if not isinstance(other, UrnSpec):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.mults, other.mults)

    def __hash__(self):
        return hash((self.ids.tobytes(), self.mults.tobytes()))

    @cached_property
    def mult_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Colors grouped by multiplicity: the distinct multiplicities in
        increasing order, the color indices sorted by multiplicity, and the
        offsets in that order where each group starts and the last ends."""
        order = np.argsort(self.mults, kind="stable")
        sorted_mults = self.mults[order]
        starts = np.flatnonzero(np.diff(sorted_mults)) + 1
        bounds = np.concatenate(([0], starts, [self.C]))
        return sorted_mults[bounds[:-1]], order, bounds

    @cached_property
    def ball_colors(self) -> np.ndarray:
        """Read-only color index of each of the k balls, the balls laid out
        color by color in canonical order; built on first use (k entries)."""
        table = np.repeat(np.arange(self.C), self.mults)
        table.flags.writeable = False
        return table


def _is_integer_type(t: type) -> bool:
    """Python and numpy integers count; bools, floats and strings do not."""
    return t is not bool and issubclass(t, (int, np.integer))


def _as_arrays(ids: Sequence[int], mults: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Color ids as uint64 and multiplicities as int64, or a ValueError naming
    the first id outside the uint64 range."""
    try:
        id_arr = np.fromiter(ids, np.uint64, len(ids))
    except OverflowError:
        bad = next(cid for cid in ids if not 0 <= cid <= MAX_COLOR_ID)
        raise ValueError(f"color id {bad} outside 64-bit unsigned range") from None
    try:
        mult_arr = np.fromiter(mults, np.int64, len(mults))
    except OverflowError:
        raise ValueError("multiplicities must fit in 64-bit signed integers") from None
    return id_arr, mult_arr


@dataclass(frozen=True)
class HardInstancePair:
    """A maximally-colorful urn and its closest lower-diversity perturbation.

    The null urn has k singleton colors; the alternative spreads the same k
    balls over k - 2*delta colors using two adjacent multiplicities b1 <= b2,
    so the distinct counts differ by exactly 2*delta.
    """

    null_urn: UrnSpec
    alt_urn: UrnSpec


def make_uniform_support(k: int, C: int) -> UrnSpec:
    """Deterministic near-uniform urn: C colors with multiplicities within 1.

    The larger multiplicity goes to the lowest color ids so fixtures are
    reproducible.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if C < 1 or C > k:
        raise ValueError(f"need 1 <= C <= k, got C={C}, k={k}")
    base, extra = divmod(k, C)
    mults = np.full(C, base, dtype=np.int64)
    mults[:extra] += 1
    return UrnSpec._from_arrays(np.arange(1, C + 1, dtype=np.uint64), mults)


def make_hard_pair(k: int, delta: int, seed: int) -> HardInstancePair:
    """Seeded hard-instance pair: k singletons vs k - 2*delta colors.

    The alternative's color ids form a random disjoint split of {1..k} into a
    size-c1 block of multiplicity b1 and a size-c2 block of multiplicity b2,
    drawn from the seeded stream so instances are reproducible.
    """
    if delta < 1:
        raise ValueError("delta must be positive")
    remaining = k - 2 * delta
    if remaining < 2:
        raise ValueError(f"need delta <= k/2 - 1, got delta={delta}, k={k}")
    b1 = k // remaining
    b2 = -(-k // remaining)
    if b1 == b2:
        c1, c2 = remaining, 0
    else:
        c2 = k - b1 * remaining
        c1 = remaining - c2
    ids = RngStream(seed, 0).sample_positions(k, remaining) + 1
    null_urn = UrnSpec._from_arrays(np.arange(1, k + 1, dtype=np.uint64),
                                    np.ones(k, dtype=np.int64))
    alt_urn = UrnSpec._from_arrays(ids.astype(np.uint64),
                                   np.repeat(np.array([b1, b2], dtype=np.int64), [c1, c2]))
    return HardInstancePair(null_urn, alt_urn)


def parse_urn(text: str) -> UrnSpec:
    """Parse "color_id count" lines; '#' comments and blank lines ignored."""
    ids: list[int] = []
    counts: list[int] = []
    ids_seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise UrnParseError(f"line {lineno}: expected 'color_id count', got {raw!r}")
        try:
            cid, mult = int(parts[0]), int(parts[1])
        except ValueError:
            raise UrnParseError(f"line {lineno}: non-integer field in {raw!r}") from None
        if not 0 <= cid <= MAX_COLOR_ID:
            raise UrnParseError(f"line {lineno}: color id {cid} outside 64-bit range")
        if mult < 1:
            raise UrnParseError(f"line {lineno}: count must be >= 1, got {mult}")
        if cid in ids_seen:
            raise UrnParseError(f"line {lineno}: duplicate color id {cid}")
        ids_seen.add(cid)
        ids.append(cid)
        counts.append(mult)
    if not ids:
        raise UrnParseError("empty urn: no 'color_id count' lines found")
    return UrnSpec._from_arrays(*_as_arrays(ids, counts))


def serialize_urn(urn: UrnSpec) -> str:
    """Canonical text form: one "color_id count" per line, ids increasing."""
    return "\n".join(f"{cid} {mult}" for cid, mult in zip(urn.ids.tolist(), urn.mults.tolist()))
