import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urncount.urn import (
    UrnParseError,
    UrnSpec,
    make_hard_pair,
    make_uniform_support,
    parse_urn,
    serialize_urn,
)


class TestUrnSpec:
    def test_fields(self):
        urn = UrnSpec(((3, 2), (1, 1)))
        assert urn.k == 3
        assert urn.C == 2
        assert urn.colors == ((1, 1), (3, 2))  # canonical order

    def test_probabilities_sum_to_one(self):
        urn = UrnSpec(((1, 3), (2, 1)))
        assert sum(urn.probabilities()) == pytest.approx(1.0)

    def test_arrays_follow_canonical_order(self):
        urn = UrnSpec(((9, 4), (2**64 - 1, 1), (3, 2)))
        assert urn.ids.dtype == np.uint64 and urn.mults.dtype == np.int64
        assert urn.ids.tolist() == [cid for cid, _ in urn.colors] == [3, 9, 2**64 - 1]
        assert urn.mults.tolist() == [2, 4, 1]
        assert not urn.ids.flags.writeable and not urn.mults.flags.writeable
        assert urn == UrnSpec(((3, 2), (9, 4), (2**64 - 1, 1)))

    def test_mult_groups(self):
        urn = UrnSpec(((1, 3), (2, 1), (3, 3), (4, 2)))
        values, order, bounds = urn.mult_groups
        assert values.tolist() == [1, 2, 3]
        assert bounds.tolist() == [0, 1, 2, 4]
        assert urn.mults[order].tolist() == [1, 2, 3, 3]

    def test_error_messages(self):
        with pytest.raises(ValueError, match="outside 64-bit"):
            UrnSpec(((1, 1), (-1, 1)))
        with pytest.raises(ValueError, match="non-positive multiplicity -2"):
            UrnSpec(((1, 1), (2, -2)))
        with pytest.raises(ValueError, match="duplicate color id 5"):
            UrnSpec(((5, 1), (2, 2), (5, 3)))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            UrnSpec(())
        with pytest.raises(ValueError):
            UrnSpec(((1, 0),))
        with pytest.raises(ValueError):
            UrnSpec(((1, 1), (1, 2)))
        with pytest.raises(ValueError):
            UrnSpec(((2**64, 1),))


class TestUniformSupport:
    def test_identity_case(self):
        urn = make_uniform_support(10, 10)
        assert urn.multiplicities() == (1,) * 10

    def test_two_multiplicities(self):
        # c1 + c2 = 6 and c1 + 2 c2 = 10 force four doubles and two singles
        urn = make_uniform_support(10, 6)
        assert urn.multiplicities() == (2, 2, 2, 2, 1, 1)

    def test_single_color(self):
        urn = make_uniform_support(7, 1)
        assert urn.colors == ((1, 7),)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_uniform_support(10, 0)
        with pytest.raises(ValueError):
            make_uniform_support(10, 11)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, k, data):
        C = data.draw(st.integers(1, k))
        urn = make_uniform_support(k, C)
        mults = urn.multiplicities()
        assert sum(mults) == k
        assert len(mults) == C
        assert max(mults) - min(mults) <= 1


class TestHardPair:
    def test_example_k10(self):
        pair = make_hard_pair(10, 2, seed=1)
        assert pair.null_urn.C == 10
        assert all(m == 1 for m in pair.null_urn.multiplicities())
        assert pair.alt_urn.C == 6
        assert (pair.b1, pair.b2) == (1, 2)
        assert (pair.c1, pair.c2) == (2, 4)
        assert pair.alt_urn.k == 10

    def test_example_k8(self):
        pair = make_hard_pair(8, 1, seed=0)
        assert pair.alt_urn.C == 6
        assert (pair.b1, pair.b2) == (1, 2)
        assert (pair.c1, pair.c2) == (4, 2)

    def test_boundary_invalid(self):
        with pytest.raises(ValueError):
            make_hard_pair(6, 3, seed=0)
        with pytest.raises(ValueError):
            make_hard_pair(10, 0, seed=0)

    def test_divisible_case_uses_single_multiplicity(self):
        pair = make_hard_pair(12, 3, seed=4)
        assert pair.alt_urn.C == 6
        assert set(pair.alt_urn.multiplicities()) == {2}

    def test_seed_determinism(self):
        a = make_hard_pair(50, 5, seed=123)
        b = make_hard_pair(50, 5, seed=123)
        assert a == b
        c = make_hard_pair(50, 5, seed=124)
        assert c.alt_urn.colors != a.alt_urn.colors

    @given(st.integers(4, 300), st.data(), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, k, data, seed):
        delta = data.draw(st.integers(1, k // 2 - 1))
        pair = make_hard_pair(k, delta, seed)
        assert pair.c1 + pair.c2 == k - 2 * delta
        assert pair.c1 * pair.b1 + pair.c2 * pair.b2 == k
        assert pair.null_urn.C - pair.alt_urn.C == 2 * delta
        assert pair.null_urn.k == pair.alt_urn.k == k
        assert pair.b2 - pair.b1 <= 1
        assert set(pair.alt_urn.multiplicities()) <= {pair.b1, pair.b2}


class TestParseSerialize:
    def test_basic(self):
        urn = parse_urn("1 2\n2 1")
        assert urn.colors == ((1, 2), (2, 1))
        assert urn.k == 3
        assert urn.C == 2

    def test_empty_is_error(self):
        with pytest.raises(UrnParseError, match="empty urn"):
            parse_urn("")

    def test_comments_and_blanks_ignored(self):
        urn = parse_urn("# a comment\n\n5 1\n")
        assert urn.colors == ((5, 1),)

    def test_canonical_reordering(self):
        assert serialize_urn(parse_urn("2 1\n1 2")) == "1 2\n2 1"

    def test_roundtrip_identity(self):
        urn = make_uniform_support(17, 5)
        assert parse_urn(serialize_urn(urn)) == urn

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("1 2\n1 3", "duplicate"),
            ("1 0", "count"),
            ("1 2 3", "expected"),
            ("a 2", "non-integer"),
        ],
    )
    def test_parse_errors_name_the_line(self, text, fragment):
        with pytest.raises(UrnParseError, match=fragment):
            parse_urn(text)
