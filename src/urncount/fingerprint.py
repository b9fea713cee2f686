"""Fingerprints: the sufficient statistic of a sample.

The fingerprint counts how many colors were seen exactly j times; it is built
from per-color counts, and the number of colors seen, c_seen, is the sum of
its counts.  The number of unseen colors is deliberately not a field
anywhere here: it is the unobservable target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .urn import _is_integer_type


@dataclass(frozen=True)
class Fingerprint:
    phi: dict[int, int]  # j -> number of colors seen exactly j times (j >= 1)
    c_seen: int = field(init=False)  # sum of the counts

    def __post_init__(self):
        bad = sorted(t.__name__ for t in {*map(type, self.phi), *map(type, self.phi.values())}
                     if not _is_integer_type(t))
        if bad:
            raise ValueError(f"fingerprint entries must be integers, got {', '.join(bad)}")
        for j, cnt in self.phi.items():
            if j < 1:
                raise ValueError(f"fingerprint index must be >= 1, got {j}")
            if cnt < 0:
                raise ValueError(f"fingerprint count must be >= 0, got phi[{j}] = {cnt}")
        object.__setattr__(self, "c_seen", sum(self.phi.values()))


def fingerprint_from_count_values(count_values) -> Fingerprint:
    """Fingerprint of per-color counts (a one-dimensional integer array or
    sequence; zeros allowed; bools and floats are refused, not truncated, and
    so are counts past 2**63 - 1).

    The one fingerprint constructor: a single ``np.bincount``.
    """
    counts = np.asarray(count_values)
    if counts.ndim != 1:
        raise ValueError(f"per-color counts must be one-dimensional, got shape {counts.shape}")
    if counts.size == 0:
        return Fingerprint({})
    if counts.dtype.kind not in "iu":
        raise ValueError(f"per-color counts must be integers, got dtype {counts.dtype}")
    # numpy turns [True, 2] into int64, so a sequence's item types are checked
    if not isinstance(count_values, np.ndarray) and not all(
            map(_is_integer_type, set(map(type, count_values)))):
        raise ValueError("per-color counts must be integers, got bool")
    if counts.dtype == np.uint64 and counts.max() > np.iinfo(np.int64).max:
        raise ValueError(f"per-color count {counts.max()} is too large (past 2**63 - 1)")
    counts = counts.astype(np.int64, copy=False)
    try:
        bc = np.bincount(counts)
    except ValueError:  # bincount refuses negative values
        if (counts < 0).any():
            raise ValueError("per-color counts must be >= 0") from None
        raise
    js = np.flatnonzero(bc[1:]) + 1
    return Fingerprint(dict(zip(js.tolist(), bc[js].tolist())))


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
    return Fingerprint(phi)

