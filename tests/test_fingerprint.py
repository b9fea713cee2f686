import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urncount.fingerprint import (
    Fingerprint,
    fingerprint_from_count_values,
    parse_fingerprint,
)


def serialize_fingerprint(fp: Fingerprint) -> str:
    return "\n".join(f"{j} {cnt}" for j, cnt in sorted(fp.phi.items()))


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
        with pytest.raises(ValueError, match="index must be >= 1"):
            Fingerprint({0: 2, 1: 1})
        with pytest.raises(ValueError, match=r"phi\[2\] = -1"):
            Fingerprint({1: 2, 2: -1})
        assert Fingerprint({1: 3, 2: 0}).c_seen == 3
        assert Fingerprint({1: 3, 4: np.int64(2)}).c_seen == 5

    @pytest.mark.parametrize("phi", [{1: 2.5}, {1: 2.0}, {1.0: 2}, {1: True}, {True: 1}])
    def test_constructor_refuses_non_integers(self, phi):
        with pytest.raises(ValueError, match="must be integers"):
            Fingerprint(phi)

    def test_from_count_values(self):
        fp = fingerprint_from_count_values([0, 2, 1, 0, 2])
        assert fp.phi == {2: 2, 1: 1} and fp.c_seen == 3

    def test_from_count_array(self):
        fp = fingerprint_from_count_values(np.array([0, 5, 1, 0, 5, 5], dtype=np.int64))
        assert fp.phi == {1: 1, 5: 3} and fp.c_seen == 4
        assert all(type(j) is int and type(c) is int for j, c in fp.phi.items())
        assert fingerprint_from_count_values(np.zeros(0, dtype=np.int64)) == Fingerprint({})
        with pytest.raises(ValueError):
            fingerprint_from_count_values([1, -1])

    @pytest.mark.parametrize("values", [[1.5, 2.7], [1.0, 2.0], [True, False],
                                        np.array([1, 2], dtype=np.float32),
                                        [True, 2], (3, np.True_)])
    def test_from_count_values_refuses_non_integers(self, values):
        # truncating 1.5 to 1 would invent a fingerprint the sample never had
        with pytest.raises(ValueError, match="must be integers"):
            fingerprint_from_count_values(values)

    @pytest.mark.parametrize("values", [np.array([1, 2**63], dtype=np.uint64), [2**64 - 1]])
    def test_from_count_values_refuses_counts_past_int64(self, values):
        # casting to int64 would wrap them negative
        with pytest.raises(ValueError, match=r"too large \(past 2\*\*63 - 1\)"):
            fingerprint_from_count_values(values)

    @pytest.mark.parametrize("values, shape", [
        ([[1, 2]], (1, 2)), (np.array([[1, 2], [3, 4]]), (2, 2)), ([[]], (1, 0)), (5, ()),
    ])
    def test_from_count_values_refuses_other_shapes(self, values, shape):
        # one count per color: a nested sequence or a scalar is not a sample's counts
        said = f"per-color counts must be one-dimensional, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(said)}$"):
            fingerprint_from_count_values(values)

    def test_from_count_values_empty_and_unsigned(self):
        assert fingerprint_from_count_values([]) == Fingerprint({})  # float64 when empty
        fp = fingerprint_from_count_values(np.array([0, 3, 3], dtype=np.uint32))
        assert fp.phi == {3: 2} and fp.c_seen == 2

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
        # 1000 random (urn, sampler) draw lists: mass and count identities
        from urncount.rng import RngStream
        from urncount.sampling import sample_draws
        from urncount.urn import make_uniform_support

        meta = RngStream(2024, 0)
        for trial in range(250):
            k = 1 + meta.randbelow(60)
            C = 1 + meta.randbelow(k)
            urn = make_uniform_support(k, C)
            n = meta.randbelow(k + 1)
            rng = RngStream(2025, trial)
            samples = [
                sample_draws(urn, "multinomial", n, rng),
                sample_draws(urn, "hypergeometric", n, rng),
                sample_draws(urn, "bernoulli", n, rng),
                sample_draws(urn, "poissonized", n, rng),
            ]
            for draws in samples:
                fp = fingerprint_of(draws)
                assert sum(j * c for j, c in fp.phi.items()) == len(draws)
                assert sum(fp.phi.values()) == fp.c_seen
                assert fp.c_seen <= urn.C


class TestFingerprintFiles:
    def test_roundtrip(self):
        fp = Fingerprint({1: 3, 4: 2})
        assert parse_fingerprint(serialize_fingerprint(fp)) == fp

    def test_parse_validation(self):
        with pytest.raises(ValueError, match="j count"):
            parse_fingerprint("1 2 3")
        with pytest.raises(ValueError, match=">= 1"):
            parse_fingerprint("0 5")
        with pytest.raises(ValueError, match="duplicate"):
            parse_fingerprint("1 2\n1 3")
