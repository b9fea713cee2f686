"""Histograms and fingerprints: the sufficient statistics of a sample.

The histogram counts how often each color was seen; the fingerprint counts
how many colors were seen exactly j times.  The number of unseen colors is
deliberately not a field anywhere here: it is the unobservable target.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .sampling import SampleBatch


@dataclass(frozen=True)
class Histogram:
    counts: dict[int, int]  # color_id -> times seen; zero entries omitted

    @property
    def sample_size(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class Fingerprint:
    phi: dict[int, int]  # j -> number of colors seen exactly j times (j >= 1)
    c_seen: int

    @property
    def sample_size(self) -> int:
        return sum(j * cnt for j, cnt in self.phi.items())

    def dense(self, j_max: int) -> list[int]:
        """Dense view [phi_1, ..., phi_j_max]."""
        return [self.phi.get(j, 0) for j in range(1, j_max + 1)]


def histogram(batch: SampleBatch) -> Histogram:
    return Histogram(dict(Counter(batch.draws)))


def histogram_from_counts(counts: Mapping[int, int]) -> Histogram:
    """Histogram from an existing color -> count map; zero counts dropped."""
    clean = {}
    for cid, cnt in counts.items():
        if cnt < 0:
            raise ValueError(f"negative count for color {cid}")
        if cnt > 0:
            clean[cid] = int(cnt)
    return Histogram(clean)


def fingerprint(h: Histogram) -> Fingerprint:
    return fingerprint_from_count_values(list(h.counts.values()))


def fingerprint_from_count_values(count_values) -> Fingerprint:
    """Fingerprint of per-color counts (an int array or sequence; zeros allowed).

    The one fingerprint constructor: a single ``np.bincount``.
    """
    counts = np.asarray(count_values, dtype=np.int64)
    if counts.size == 0:
        return Fingerprint({}, 0)
    if counts.min() < 0:
        raise ValueError("per-color counts must be >= 0")
    bc = np.bincount(counts)
    js = np.flatnonzero(bc[1:]) + 1
    return Fingerprint(dict(zip(js.tolist(), bc[js].tolist())), int(counts.size - bc[0]))


def parse_fingerprint(text: str) -> Fingerprint:
    """Parse "j count" lines into a fingerprint; '#' comments ignored."""
    phi: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'j count', got {raw!r}")
        try:
            j, cnt = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        if j < 1:
            raise ValueError(f"line {lineno}: fingerprint index must be >= 1, got {j}")
        if cnt < 0:
            raise ValueError(f"line {lineno}: count must be >= 0, got {cnt}")
        if j in phi:
            raise ValueError(f"line {lineno}: duplicate fingerprint index {j}")
        if cnt > 0:
            phi[j] = cnt
    return Fingerprint(phi, sum(phi.values()))


def serialize_fingerprint(fp: Fingerprint) -> str:
    return "\n".join(f"{j} {cnt}" for j, cnt in sorted(fp.phi.items()))
