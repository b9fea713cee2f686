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


def colors(urn):
    """The urn's ``(color_id, multiplicity)`` pairs in canonical order."""
    return tuple(zip(urn.ids.tolist(), urn.mults.tolist()))


class TestUrnSpec:
    def test_fields(self):
        urn = UrnSpec(((3, 2), (1, 1)))
        assert urn.k == 3
        assert urn.C == 2
        assert colors(urn) == ((1, 1), (3, 2))  # canonical order

    def test_probabilities_sum_to_one(self):
        urn = UrnSpec(((1, 3), (2, 1)))
        assert urn.mults.sum() == urn.k

    def test_arrays_follow_canonical_order(self):
        urn = UrnSpec(((9, 4), (2**64 - 1, 1), (3, 2)))
        assert urn.ids.dtype == np.uint64 and urn.mults.dtype == np.int64
        assert urn.ids.tolist() == [cid for cid, _ in colors(urn)] == [3, 9, 2**64 - 1]
        assert urn.mults.tolist() == [2, 4, 1]
        assert not urn.ids.flags.writeable and not urn.mults.flags.writeable
        assert urn == UrnSpec(((3, 2), (9, 4), (2**64 - 1, 1)))

    def test_mult_groups(self):
        urn = UrnSpec(((1, 3), (2, 1), (3, 3), (4, 2)))
        values, order, bounds = urn.mult_groups
        assert values.tolist() == [1, 2, 3]
        assert bounds.tolist() == [0, 1, 2, 4]
        assert urn.mults[order].tolist() == [1, 2, 3, 3]

    def test_ball_colors_is_lazy_and_read_only(self):
        for urn, pairs in _built_urns():
            assert "ball_colors" not in urn.__dict__  # construction leaves it unbuilt
            table = urn.ball_colors
            assert table.tolist() == [c for c, (_, mult) in enumerate(pairs) for _ in range(mult)]
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1
            assert urn.ball_colors is table

    def test_error_messages(self):
        with pytest.raises(ValueError, match="outside 64-bit"):
            UrnSpec(((1, 1), (-1, 1)))
        with pytest.raises(ValueError, match="non-positive multiplicity -2"):
            UrnSpec(((1, 1), (2, -2)))
        with pytest.raises(ValueError, match="duplicate color id 5"):
            UrnSpec(((5, 1), (2, 2), (5, 3)))

    def test_k_past_int64_is_error(self):
        with pytest.raises(ValueError, match="k = 9223372036854775808 exceeds 64-bit"):
            UrnSpec(((1, 2**62), (2, 2**62)))
        assert UrnSpec(((1, 2**62), (2, 2**62 - 1))).k == 2**63 - 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            UrnSpec(())
        with pytest.raises(ValueError):
            UrnSpec(((1, 0),))
        with pytest.raises(ValueError):
            UrnSpec(((1, 1), (1, 2)))
        with pytest.raises(ValueError):
            UrnSpec(((2**64, 1),))


# Canonical pairs of urns from the array-building constructors, pinned as
# literals so each must match the urn built from the same pairs exactly.
UNIFORM_10_6 = ((1, 2), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1))
HARD_50_5_ALT = (
    (1, 1), (2, 1), (4, 2), (5, 1), (6, 1), (7, 1), (8, 2), (9, 2), (10, 2), (11, 2),
    (12, 1), (13, 1), (14, 1), (15, 1), (16, 1), (17, 2), (18, 2), (20, 1), (23, 1), (24, 2),
    (25, 1), (26, 1), (27, 2), (30, 1), (31, 1), (33, 1), (34, 1), (36, 1), (37, 1), (39, 1),
    (41, 2), (42, 1), (43, 1), (44, 1), (45, 1), (46, 1), (47, 1), (48, 1), (49, 1), (50, 1),
)
PARSED_UNSORTED = ((1, 5), (2, 1), (3, 2))


def _built_urns():
    pair = make_hard_pair(50, 5, seed=123)
    return [
        (make_uniform_support(10, 6), UNIFORM_10_6),
        (pair.alt_urn, HARD_50_5_ALT),
        (pair.null_urn, tuple((cid, 1) for cid in range(1, 51))),
        (parse_urn("3 2\n# note\n1 5\n\n2 1\n"), PARSED_UNSORTED),
    ]


class TestArrayUrn:
    def test_colors_match_literals(self):
        for urn, pairs in _built_urns():
            assert colors(urn) == pairs
            assert urn.ids.tolist() == [cid for cid, _ in pairs]
            assert urn.mults.tolist() == [mult for _, mult in pairs]

    def test_eq_and_hash_follow_content(self):
        for urn, pairs in _built_urns():
            from_pairs = UrnSpec(tuple(reversed(pairs)))
            assert urn == from_pairs and hash(urn) == hash(from_pairs)
            changed = UrnSpec(pairs[:-1] + ((pairs[-1][0], pairs[-1][1] + 1),))
            assert urn != changed and hash(urn) != hash(changed)

    def test_serialize_is_byte_identical(self):
        for urn, pairs in _built_urns():
            text = "\n".join(f"{cid} {mult}" for cid, mult in pairs)
            assert serialize_urn(urn) == text
            assert serialize_urn(UrnSpec(pairs)) == text

    def test_large_uniform_urn_does_not_build_colors(self):
        urn = make_uniform_support(10**6, 5 * 10**5)
        assert "ball_colors" not in urn.__dict__
        assert (urn.C, urn.k) == (5 * 10**5, 10**6)


class TestUniformSupport:
    def test_identity_case(self):
        urn = make_uniform_support(10, 10)
        assert urn.mults.tolist() == [1] * 10

    def test_two_multiplicities(self):
        # c1 + c2 = 6 and c1 + 2 c2 = 10 force four doubles and two singles
        urn = make_uniform_support(10, 6)
        assert urn.mults.tolist() == [2, 2, 2, 2, 1, 1]

    def test_single_color(self):
        urn = make_uniform_support(7, 1)
        assert colors(urn) == ((1, 7),)

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
        mults = urn.mults.tolist()
        assert sum(mults) == k
        assert len(mults) == C
        assert max(mults) - min(mults) <= 1


class TestHardPair:
    def test_example_k10(self):
        pair = make_hard_pair(10, 2, seed=1)
        assert pair.null_urn.C == 10
        assert all(m == 1 for m in pair.null_urn.mults.tolist())
        assert pair.alt_urn.C == 6
        assert sorted(pair.alt_urn.mults.tolist()) == [1, 1, 2, 2, 2, 2]
        assert pair.alt_urn.k == 10

    def test_example_k8(self):
        pair = make_hard_pair(8, 1, seed=0)
        assert pair.alt_urn.C == 6
        assert sorted(pair.alt_urn.mults.tolist()) == [1, 1, 1, 1, 2, 2]

    def test_boundary_invalid(self):
        with pytest.raises(ValueError):
            make_hard_pair(6, 3, seed=0)
        with pytest.raises(ValueError):
            make_hard_pair(10, 0, seed=0)

    def test_divisible_case_uses_single_multiplicity(self):
        pair = make_hard_pair(12, 3, seed=4)
        assert pair.alt_urn.C == 6
        assert set(pair.alt_urn.mults.tolist()) == {2}

    def test_seed_determinism(self):
        a = make_hard_pair(50, 5, seed=123)
        b = make_hard_pair(50, 5, seed=123)
        assert a == b
        c = make_hard_pair(50, 5, seed=124)
        assert colors(c.alt_urn) != colors(a.alt_urn)

    @given(st.integers(4, 300), st.data(), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, k, data, seed):
        delta = data.draw(st.integers(1, k // 2 - 1))
        pair = make_hard_pair(k, delta, seed)
        mults = pair.alt_urn.mults.tolist()
        assert len(mults) == k - 2 * delta
        assert sum(mults) == k
        assert pair.null_urn.C - pair.alt_urn.C == 2 * delta
        assert pair.null_urn.k == pair.alt_urn.k == k
        assert max(mults) - min(mults) <= 1


class TestParseSerialize:
    def test_basic(self):
        urn = parse_urn("1 2\n2 1")
        assert colors(urn) == ((1, 2), (2, 1))
        assert urn.k == 3
        assert urn.C == 2

    def test_empty_is_error(self):
        with pytest.raises(UrnParseError, match="empty urn"):
            parse_urn("")

    def test_comments_and_blanks_ignored(self):
        urn = parse_urn("# a comment\n\n5 1\n")
        assert colors(urn) == ((5, 1),)

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
