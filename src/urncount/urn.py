"""Urn populations: color multiplicities, near-uniform families, hard pairs.

An urn is a multiset of k colored balls with C distinct colors.  Color ids are
opaque 64-bit unsigned integers; nothing downstream ever inspects them, only
their multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .rng import RngStream

MAX_COLOR_ID = 2**64 - 1


class UrnParseError(ValueError):
    """Malformed urn text; the message names the offending line."""


@dataclass(frozen=True)
class UrnSpec:
    """A population of colored balls, canonically sorted by color id.

    ``ids`` (uint64) and ``mults`` (int64) are read-only arrays aligned with
    ``colors``; samplers return per-color counts in this order.  Immutable
    after construction and safe for concurrent reads.
    """

    colors: tuple[tuple[int, int], ...]  # (color_id, multiplicity)
    k: int = field(init=False)
    C: int = field(init=False)
    ids: np.ndarray = field(init=False, repr=False, compare=False)
    mults: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        colors = tuple(self.colors)
        if not colors:
            raise ValueError("urn must contain at least one color")
        try:
            ids = np.fromiter((cid for cid, _ in colors), np.uint64, len(colors))
        except OverflowError:
            bad = next(cid for cid, _ in colors if not 0 <= cid <= MAX_COLOR_ID)
            raise ValueError(f"color id {bad} outside 64-bit unsigned range") from None
        try:
            mults = np.fromiter((mult for _, mult in colors), np.int64, len(colors))
        except OverflowError:
            raise ValueError("multiplicities must fit in 64-bit signed integers") from None
        bad = np.flatnonzero(mults < 1)
        if bad.size:
            cid, mult = colors[bad[0]]
            raise ValueError(f"color {cid} has non-positive multiplicity {mult}")
        if np.any(ids[1:] <= ids[:-1]):  # not already canonical
            order = np.argsort(ids, kind="stable")
            ids, mults = ids[order], mults[order]
            dup = np.flatnonzero(ids[1:] == ids[:-1])
            if dup.size:
                raise ValueError(f"duplicate color id {int(ids[dup[0]])}")
            colors = tuple(colors[i] for i in order.tolist())
        ids.flags.writeable = False
        mults.flags.writeable = False
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "k", int(mults.sum()))
        object.__setattr__(self, "C", len(colors))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int] | Iterable[tuple[int, int]]) -> "UrnSpec":
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(tuple(items))

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.colors)

    def probabilities(self) -> tuple[float, ...]:
        return tuple(mult / self.k for _, mult in self.colors)

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


@dataclass(frozen=True)
class HardInstancePair:
    """A maximally-colorful urn and its closest lower-diversity perturbation.

    The null urn has k singleton colors; the alternative spreads the same k
    balls over k - 2*delta colors using two adjacent multiplicities b1 <= b2,
    so the distinct counts differ by exactly 2*delta.
    """

    null_urn: UrnSpec
    alt_urn: UrnSpec
    delta: int
    b1: int
    b2: int
    c1: int
    c2: int


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
    colors = tuple((i + 1, base + 1 if i < extra else base) for i in range(C))
    return UrnSpec(colors)


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
    ids = list(range(1, k + 1))
    RngStream(seed, 0).partial_shuffle(ids, remaining)
    alt_colors = [(cid, b1) for cid in ids[:c1]]
    alt_colors += [(cid, b2) for cid in ids[c1:remaining]]
    null_urn = UrnSpec(tuple((cid, 1) for cid in range(1, k + 1)))
    alt_urn = UrnSpec(tuple(alt_colors))
    return HardInstancePair(null_urn, alt_urn, delta, b1, b2, c1, c2)


def parse_urn(text: str) -> UrnSpec:
    """Parse "color_id count" lines; '#' comments and blank lines ignored."""
    entries: list[tuple[int, int]] = []
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
        entries.append((cid, mult))
    if not entries:
        raise UrnParseError("empty urn: no 'color_id count' lines found")
    return UrnSpec(tuple(entries))


def serialize_urn(urn: UrnSpec) -> str:
    """Canonical text form: one "color_id count" per line, ids increasing."""
    return "\n".join(f"{cid} {mult}" for cid, mult in urn.colors)
