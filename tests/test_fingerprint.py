from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urncount.fingerprint import (
    Fingerprint,
    fingerprint_from_count_values,
    parse_fingerprint,
    serialize_fingerprint,
)


def fingerprint_of(draws):
    return fingerprint_from_count_values(list(Counter(draws).values()))


class TestFingerprint:
    def test_direct(self):
        fp = fingerprint_of([5, 7, 5, 9, 7, 5])
        assert fp.phi == {1: 1, 2: 1, 3: 1}
        assert fp.c_seen == 3

    def test_empty(self):
        fp = fingerprint_of([])
        assert fp.phi == {} and fp.c_seen == 0

    def test_all_doubles(self):
        fp = fingerprint_of([1, 1, 2, 2, 3, 3])
        assert fp.phi == {2: 3} and fp.c_seen == 3

    def test_constructor_validates(self):
        with pytest.raises(ValueError, match="c_seen = 7 but the fingerprint counts sum to 3"):
            Fingerprint({1: 3}, 7)
        with pytest.raises(ValueError, match="index must be >= 1"):
            Fingerprint({0: 2, 1: 1}, 3)
        with pytest.raises(ValueError, match=r"phi\[2\] = -1"):
            Fingerprint({1: 2, 2: -1}, 1)
        assert Fingerprint({1: 3, 2: 0}, 3).c_seen == 3

    def test_from_count_values(self):
        fp = fingerprint_from_count_values([0, 2, 1, 0, 2])
        assert fp.phi == {2: 2, 1: 1} and fp.c_seen == 3

    def test_from_count_array(self):
        fp = fingerprint_from_count_values(np.array([0, 5, 1, 0, 5, 5], dtype=np.int64))
        assert fp.phi == {1: 1, 5: 3} and fp.c_seen == 4
        assert all(type(j) is int and type(c) is int for j, c in fp.phi.items())
        assert fingerprint_from_count_values(np.zeros(0, dtype=np.int64)) == Fingerprint({}, 0)
        with pytest.raises(ValueError):
            fingerprint_from_count_values([1, -1])

    @given(st.lists(st.integers(0, 30), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_mass_and_count_identities(self, draws):
        fp = fingerprint_of(draws)
        assert sum(j * cnt for j, cnt in fp.phi.items()) == len(draws)
        assert sum(fp.phi.values()) == fp.c_seen

    @given(st.lists(st.integers(0, 30), max_size=200), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_label_invariance(self, draws, salt):
        relabeled = [(d * 2654435761 + salt) % (2**64) for d in draws]
        if len(set(relabeled)) != len(set(draws)):
            return  # hash collision: not an injective relabeling
        a = fingerprint_of(draws)
        b = fingerprint_of(relabeled)
        assert a == b


class TestIdentitiesAcrossSamplers:
    def test_identities_hold_for_every_sampler(self):
        # 1000 random (urn, sampler) batches: mass and count identities
        from urncount.rng import RngStream
        from urncount.sampling import (
            draw_bernoulli,
            draw_poissonized,
            draw_with_replacement,
            draw_without_replacement,
        )
        from urncount.urn import make_uniform_support

        meta = RngStream(2024, 0)
        for trial in range(250):
            k = 1 + meta.randbelow(60)
            C = 1 + meta.randbelow(k)
            urn = make_uniform_support(k, C)
            n = meta.randbelow(k + 1)
            rng = RngStream(2025, trial)
            batches = [
                draw_with_replacement(urn, n, rng),
                draw_without_replacement(urn, n, rng),
                draw_bernoulli(urn, (meta.randbelow(11)) / 10, rng),
                draw_poissonized(urn, n, rng),
            ]
            for batch in batches:
                fp = fingerprint_of(batch.draws)
                assert sum(j * c for j, c in fp.phi.items()) == batch.realized_size
                assert sum(fp.phi.values()) == fp.c_seen
                assert fp.c_seen <= urn.C


class TestFingerprintFiles:
    def test_roundtrip(self):
        fp = Fingerprint({1: 3, 4: 2}, 5)
        assert parse_fingerprint(serialize_fingerprint(fp)) == fp

    def test_parse_validation(self):
        with pytest.raises(ValueError, match="j count"):
            parse_fingerprint("1 2 3")
        with pytest.raises(ValueError, match=">= 1"):
            parse_fingerprint("0 5")
        with pytest.raises(ValueError, match="duplicate"):
            parse_fingerprint("1 2\n1 3")
