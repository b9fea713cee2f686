"""Recorded digests of every counts core on two pinned urns.

Each digest is the sha256 over, for n in ``NS`` and seed in ``SEEDS`` in that
order, the int64 bytes of the per-color counts followed by the stream's final
counter as 8 little-endian bytes.  A change to the stream or to a core that
moves one count or one stream position changes a digest.

To re-record after a deliberate change of the outputs, print ``_digest`` for
every (urn, model) pair of ``DIGESTS`` and paste the values in.
"""

import hashlib

import pytest

from urncount.rng import RngStream
from urncount.sampling import sample_counts
from urncount.urn import UrnSpec, make_uniform_support

# (number of colors, multiplicity) tiers, colors numbered from 1 in tier order
DRAWS_SKEW = ((40_000, 1), (5_000, 4), (500, 20), (50, 200), (20, 1_000))


def _tiered(tiers) -> UrnSpec:
    counts, cid = [], 1
    for colors, mult in tiers:
        counts.extend((cid + i, mult) for i in range(colors))
        cid += colors
    return UrnSpec(counts)


URNS = {"uniform": make_uniform_support(100_000, 50_000), "skewed": _tiered(DRAWS_SKEW)}
NS = (10_000, 70_000)
SEEDS = (1, 2)

DIGESTS = {
    ("uniform", "multinomial"): "3128cec039e57913b2ea9e5340df265766531d6d0ddb9001f9da98897a3a024e",
    ("uniform", "hypergeometric"): "685513d9c01c5a3830a2faf24c5b8572f22224c41e546aff49f232efff12ccc1",
    ("uniform", "bernoulli"): "24cffdab18e2f9037618c7ca472329b94bded48242095a120f68db6371a8e278",
    ("uniform", "poissonized"): "2ba4832831690d14145211502d90a1f542d171334bb27534c7997fc6a54a3a76",
    ("skewed", "multinomial"): "ae9257b65c13ca5252bec1c885e7a19d1736805c8e086350b9db9313d21377d0",
    ("skewed", "hypergeometric"): "18a8c166fdcab7cae4c851be5a5fa2dabf7dc05802de0a5bf8a7b4c6a5bbb315",
    ("skewed", "bernoulli"): "7df86ec7f23facb75ab7cbabbd3a781a73d7f97cdb6e351d28114ffb60b93a5e",
    ("skewed", "poissonized"): "5a267dc6e99f642717e8dbbde8be3b7e3377065a5f6adde6da6fa8f0a1afac4e",
}


def _digest(urn: UrnSpec, model: str) -> str:
    h = hashlib.sha256()
    for n in NS:
        for seed in SEEDS:
            rng = RngStream(seed, 3)
            h.update(sample_counts(urn, model, n, rng).tobytes())
            h.update(rng._counter.to_bytes(8, "little"))
    return h.hexdigest()


@pytest.mark.parametrize("urn,model", list(DIGESTS))
def test_counts_and_counters_match_recorded_digest(urn, model):
    assert _digest(URNS[urn], model) == DIGESTS[urn, model]
