"""Fingerprints: the sufficient statistic of a sample.

The fingerprint counts how many colors were seen exactly j times; it is built
from per-color counts.  The number of unseen colors is deliberately not a
field anywhere here: it is the unobservable target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Fingerprint:
    phi: dict[int, int]  # j -> number of colors seen exactly j times (j >= 1)
    c_seen: int

    def __post_init__(self):
        for j, cnt in self.phi.items():
            if j < 1:
                raise ValueError(f"fingerprint index must be >= 1, got {j}")
            if cnt < 0:
                raise ValueError(f"fingerprint count must be >= 0, got phi[{j}] = {cnt}")
        total = sum(self.phi.values())
        if self.c_seen != total:
            raise ValueError(f"c_seen = {self.c_seen} but the fingerprint counts sum to {total}")


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
