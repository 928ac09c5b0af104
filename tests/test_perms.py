"""Core permutation operations against trivial cases and brute-force oracles."""

from itertools import permutations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    capable_values,
    oracle_avoids_basis,
    oracle_contains,
    oracle_lis_tables,
    oracle_pattern_of,
    oracle_rank_marks,
    perms,
)
from patlab import (
    UsageError,
    check_perm,
    contains,
    direct_sum,
    format_perm,
    identity,
    lis_tables,
    parse_perm,
    reverse_complement,
)
from patlab.perms import deletions

P14 = parse_perm("8 3 2 11 12 5 6 9 10 14 4 1 13 7")


class TestParseFormat:
    def test_compact(self):
        assert parse_perm("82456173") == (8, 2, 4, 5, 6, 1, 7, 3)

    def test_spaced(self):
        assert P14 == (8, 3, 2, 11, 12, 5, 6, 9, 10, 14, 4, 1, 13, 7)

    def test_empty(self):
        assert parse_perm("") == ()
        assert format_perm(()) == ""

    def test_format_compact_iff_short(self):
        assert format_perm((2, 1, 3)) == "213"
        assert format_perm(P14) == "8 3 2 11 12 5 6 9 10 14 4 1 13 7"

    def test_roundtrip(self):
        for p in [(1,), (2, 1, 3), P14, identity(9), identity(10)]:
            assert parse_perm(format_perm(p)) == p

    # int() would read "+2" and "1_0"; a word must be str.isdecimal, as in
    # class expressions, and within int()'s digit limit
    @pytest.mark.parametrize("bad", [
        "1x2", "102", "1 2 2", "3 1", "²", "1 x 3",
        "+2 1", "2 1_0 1 3 4 5 6 7 8 9", pytest.param("1 " + "1" * 5000, id="5000-digits"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_perm(bad)

    def test_check_perm_rejects_non_bijection(self):
        with pytest.raises(UsageError):
            check_perm((1, 1, 2))
        with pytest.raises(UsageError):
            check_perm((0, 1))
        with pytest.raises(UsageError):
            check_perm([True])  # bool is an int subclass, but not a value


class TestContains:
    def test_decreasing_has_no_ascent(self):
        assert not contains((3, 2, 1), (1, 2))

    def test_self_containment(self):
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                assert contains(p, p)
                break

    def test_empty_pattern_in_everything(self):
        assert contains((), ())
        assert contains((2, 1), ())

    def test_longer_pattern_never_contained(self):
        assert not contains((1, 2), (1, 2, 3))

    def test_reference_vectors(self):
        p = parse_perm("82456173")
        assert not contains(p, (2, 3, 1, 4, 5))
        assert contains(p, (1, 2, 3, 4, 5))

    @given(perms(7), perms(4))
    def test_matches_oracle(self, p, q):
        assert contains(p, q) == oracle_contains(p, q)

    def test_monotone_in_supersequence_exhaustive(self):
        # containment passes through: q in p and p in w forces q in w
        from itertools import combinations

        qs = list(permutations(range(1, 4)))
        for n in range(5 + 1):
            for w in permutations(range(1, n + 1)):
                subs = {
                    oracle_pattern_of(c) for size in range(n + 1) for c in combinations(w, size)
                }
                for q in qs:
                    in_w = contains(w, q)
                    for p in subs:
                        if contains(p, q):
                            assert in_w

    @given(perms(6), perms(5), perms(3))
    def test_monotone_in_supersequence(self, w, p, q):
        if contains(w, p) and contains(p, q):
            assert contains(w, q)

    @given(perms(7), perms(4))
    def test_commutes_with_reverse_complement(self, p, q):
        assert contains(p, q) == contains(reverse_complement(p), reverse_complement(q))


class TestReverseComplement:
    def test_identity_fixed(self):
        for n in range(8):
            assert reverse_complement(identity(n)) == identity(n)

    def test_reference_vector(self):
        assert reverse_complement((2, 3, 1, 4)) == (1, 4, 2, 3)

    @given(perms(8))
    def test_involution(self, p):
        assert reverse_complement(reverse_complement(p)) == p


class TestDirectSum:
    def test_singletons(self):
        assert direct_sum((1,), (1,)) == (1, 2)

    def test_by_definition(self):
        assert direct_sum((2, 1), (1, 2)) == (2, 1, 3, 4)

    def test_shift_and_concatenate(self):
        assert direct_sum((1, 4, 2, 3), (1, 2)) == (1, 4, 2, 3, 5, 6)

    @given(perms(5), perms(5))
    def test_avoidance_of_left_summand(self, p, q):
        assert contains(direct_sum(p, q), p)


class TestRankCapability:
    """An index can act as rank r of an occurrence of 12...k exactly when
    ``lis_tables`` shows an increasing run of length r ending there and one
    of length k - r + 1 starting there."""

    def test_monotone_case(self):
        n, k = 7, 4
        up, down = lis_tables(identity(n))
        for r in range(1, k + 1):
            expected = {t for t in range(n) if r - 1 <= t <= n - (k - r) - 1}
            assert {t for t in range(n) if up[t] >= r and down[t] >= k - r + 1} == expected

    def test_reference_values(self):
        assert capable_values(P14, 4, 3) == (6, 9, 10, 12)
        rank2_not3 = set(capable_values(P14, 4, 2)) - set(capable_values(P14, 4, 3))
        assert tuple(sorted(rank2_not3)) == (5, 11)

    def test_extreme_ranks_reduce_to_run_lengths(self):
        for p in permutations(range(1, 6)):
            up, down = lis_tables(p)
            for k in range(1, 5):
                marks = oracle_rank_marks(p, k)
                for t in range(len(p)):
                    assert ((t, 1) in marks) == (down[t] >= k)
                    assert ((t, k) in marks) == (up[t] >= k)

    @given(perms(7, min_n=1), st.integers(1, 5))
    def test_matches_occurrence_search(self, p, k):
        up, down = lis_tables(p)
        marks = oracle_rank_marks(p, k)
        for t in range(len(p)):
            for r in range(1, k + 1):
                assert (up[t] >= r and down[t] >= k - r + 1) == ((t, r) in marks)


def test_lis_tables_match_the_quadratic_program():
    for n in range(9):
        for p in permutations(range(1, n + 1)):
            assert lis_tables(p) == oracle_lis_tables(p), p


class TestDeletions:
    def test_small(self):
        assert deletions(()) == set()
        assert deletions((1,)) == {()}
        assert deletions((2, 3, 1)) == {(1, 2), (2, 1)}

    @given(perms(8))
    def test_matches_pattern_of(self, p):
        assert deletions(p) == {oracle_pattern_of(p[:t] + p[t + 1 :]) for t in range(len(p))}


@given(perms(6), perms(3))
def test_avoids_is_negation(p, q):
    assert (not contains(p, q)) == oracle_avoids_basis(p, [q])
