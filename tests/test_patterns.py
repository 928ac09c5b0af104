"""Pattern expansion, the basis algebra, and the class-expression grammar."""

from itertools import permutations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import oracle_pattern_of, perms
from patlab import (
    ClassExpressionError,
    UsageError,
    basis_reverse_complement,
    contains,
    distant_monotone_basis,
    expand_distant,
    make_basis,
    monotone_basis,
    parse_class_expression,
)
from patlab.patterns import MAX_UNDERLYING


def as_strs(basis):
    return {"".join(map(str, q)) for q in basis}


class TestExpandDistant:
    def test_gap_in_monotone(self):
        assert as_strs(expand_distant((1, 2, 3), 3)) == {
            "2314",
            "1324",
            "1234",
            "1243",
        }

    def test_short_gap(self):
        assert as_strs(expand_distant((1, 2), 2)) == {"213", "123", "132"}

    @given(perms(5, min_n=1), st.integers(1, 6))
    def test_always_k_plus_one_distinct(self, q, j):
        if j > len(q) + 1:
            j = len(q) + 1
        basis = expand_distant(q, j)
        assert len(basis) == len(q) + 1
        assert all(len(pat) == len(q) + 1 for pat in basis)

    @given(perms(5, min_n=1), st.integers(1, 6))
    def test_deleting_gap_entry_recovers_underlying(self, q, j):
        j = min(j, len(q) + 1)
        for pat in expand_distant(q, j):
            reduced = oracle_pattern_of(pat[: j - 1] + pat[j:])
            assert reduced == q

    def test_box_position_validated(self):
        with pytest.raises(UsageError):
            expand_distant((1, 2), 4)
        with pytest.raises(UsageError):
            expand_distant((1, 2), 0)
        with pytest.raises(UsageError):
            expand_distant((1, 2), 2, removed=4)
        with pytest.raises(UsageError):
            expand_distant((), 1)
        with pytest.raises(UsageError):
            expand_distant((1, 1), 2)

    def test_underlying_length_capped(self):
        longest = tuple(range(1, MAX_UNDERLYING + 1))
        assert len(expand_distant(longest, 2)) == MAX_UNDERLYING + 1
        assert len(monotone_basis(MAX_UNDERLYING, 2, 2)) == MAX_UNDERLYING
        assert len(distant_monotone_basis(MAX_UNDERLYING, 2)) == MAX_UNDERLYING + 1
        spaced = " ".join(map(str, longest)) + f" {MAX_UNDERLYING + 1} #"
        refused = [
            lambda: expand_distant(longest + (MAX_UNDERLYING + 1,), 2),
            lambda: monotone_basis(MAX_UNDERLYING + 1, 2, 2),
            lambda: distant_monotone_basis(10**40, 2),
            lambda: parse_class_expression(f"M({MAX_UNDERLYING + 1},1,1)"),
            lambda: parse_class_expression(spaced),
        ]
        for build in refused:
            with pytest.raises(UsageError, match="too long for a distant pattern"):
                build()

    def test_default_label_is_pattern_text(self):
        assert expand_distant((1, 2, 3, 4), 3).label == "12#34"
        assert expand_distant((1, 2, 3, 4), 3, removed=3).label == "12[3]34"
        assert expand_distant((1, 2), 3).label == "12#"
        assert expand_distant(tuple(range(1, 11)), 1).label == "# 1 2 3 4 5 6 7 8 9 10"
        assert expand_distant((1, 2), 1, label="x").label == "x"


class TestExpandAlmostDistant:
    def test_drop_one_member(self):
        assert as_strs(expand_distant((1, 2, 3), 3, removed=2)) == {
            "2314",
            "1234",
            "1243",
        }

    def test_monotone_k4(self):
        assert as_strs(monotone_basis(4, 3, 3)) == {"23145", "13245", "12435", "12534"}

    @given(perms(5, min_n=1), st.integers(1, 6), st.integers(1, 6))
    def test_always_one_less(self, q, j, i):
        j = min(j, len(q) + 1)
        i = min(i, len(q) + 1)
        almost = expand_distant(q, j, i)
        full = expand_distant(q, j)
        assert len(almost) == len(full) - 1
        assert almost.as_set() < full.as_set()
        # the dropped pattern has the removed value at the gap position
        dropped = next(iter(full.as_set() - almost.as_set()))
        assert dropped[j - 1] == i


class TestMonotoneClasses:
    def test_spec_to_pattern(self):
        basis = monotone_basis(4, 3, 3)
        assert basis == expand_distant((1, 2, 3, 4), 3, removed=3)
        assert basis.label == "M(4,3,3)"

    def test_gap_before_first_letter(self):
        assert as_strs(monotone_basis(2, 1, 1)) == {"213", "312"}

    def test_gap_inside(self):
        assert as_strs(monotone_basis(2, 2, 1)) == {"123", "132"}

    def test_identity_dropped_exactly_on_diagonal(self):
        for k in range(1, 5):
            for j in range(1, k + 2):
                for i in range(1, k + 2):
                    basis = monotone_basis(k, j, i)
                    assert (tuple(range(1, k + 2)) in basis) == (i != j)

    def test_ranges_validated(self):
        with pytest.raises(UsageError):
            monotone_basis(3, 5, 1)
        with pytest.raises(UsageError):
            monotone_basis(3, 1, 0)
        with pytest.raises(UsageError):
            monotone_basis(0, 1, 1)

    def test_distant_macro(self):
        assert as_strs(distant_monotone_basis(3, 2)) == {"2134", "1234", "1324", "1423"}


class TestBasisReverseComplement:
    def test_identity_set_for_all_small_specs(self):
        for k in range(1, 6):
            for j in range(1, k + 2):
                for i in range(1, k + 2):
                    left = basis_reverse_complement(monotone_basis(k, j, i))
                    right = monotone_basis(k, k + 2 - j, k + 2 - i)
                    assert left.as_set() == right.as_set(), (k, j, i)

    @given(perms(5, min_n=1), st.integers(1, 6), st.integers(1, 6))
    def test_involution(self, q, j, i):
        j = min(j, len(q) + 1)
        i = min(i, len(q) + 1)
        basis = expand_distant(q, j, i)
        assert basis_reverse_complement(basis_reverse_complement(basis)) == basis

    def test_monotone_fixed_point(self):
        basis = make_basis([(1, 2, 3)])
        assert basis_reverse_complement(basis) == basis


class TestBasisType:
    def test_dedup_and_order(self):
        b = make_basis([(2, 1), (1, 2), (2, 1)])
        assert b.patterns == ((1, 2), (2, 1))

    def test_equality_ignores_label(self):
        assert make_basis([(1, 2)], label="a") == make_basis([(1, 2)], label="b")

    def test_check_minimal(self):
        def minimal(b):
            # no member contains another member as a strict sub-pattern
            return not any(len(s) < len(g) and contains(g, s) for s in b for g in b)

        assert minimal(monotone_basis(4, 3, 3))
        assert not minimal(make_basis([(1, 2), (1, 2, 3)]))

    def test_min_pattern_length(self):
        # (length, values) order puts a shortest pattern first
        assert make_basis([(1, 2, 3), (2, 1)]).patterns[0] == (2, 1)
        assert make_basis([]).patterns == ()


class TestClassExpressionGrammar:
    def test_classical_compact(self):
        assert parse_class_expression("123").patterns == ((1, 2, 3),)

    def test_classical_spaced(self):
        basis = parse_class_expression("8 3 2 11 12 5 6 9 10 14 4 1 13 7")
        assert len(basis.patterns[0]) == 14

    def test_distant(self):
        assert parse_class_expression("12#34").as_set() == distant_monotone_basis(4, 3).as_set()

    def test_almost_distant_bracket(self):
        assert parse_class_expression("12[3]34").as_set() == monotone_basis(4, 3, 3).as_set()

    def test_macros(self):
        assert parse_class_expression("M(4,3,3)") == monotone_basis(4, 3, 3)
        assert parse_class_expression("D(3,2)") == distant_monotone_basis(3, 2)

    def test_union(self):
        basis = parse_class_expression("M(4,3,3);312456")
        assert basis.as_set() == monotone_basis(4, 3, 3).as_set() | {(3, 1, 2, 4, 5, 6)}
        assert basis.label == "M(4,3,3);312456"

    def test_spaced_box(self):
        basis = parse_class_expression("1 2 # 3 4")
        assert basis.as_set() == distant_monotone_basis(4, 3).as_set()

    @pytest.mark.parametrize(
        "bad,fragment",
        [
            ("1#2#3", "repeated"),
            ("12#^234", "sized gaps"),
            ("1 2 #^2 3", "sized gaps"),
            ("1 2 #2 3", "sized gaps"),
            ("12[9]34", "bracket value"),
            ("12[0]34", "bracket value"),
            ("12x3", "unexpected"),
            ("M(3,9,1)", "j must be"),
            ("M(3,1)", "three arguments"),
            ("D(4,2,1)", "two arguments"),
            ("D(3)", "unexpected"),
            ("", "empty"),
            ("12;;13", "empty"),
            ("1#2[1]3", "at most one"),
        ],
    )
    def test_rejections(self, bad, fragment):
        with pytest.raises(ClassExpressionError) as err:
            parse_class_expression(bad)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "text,message,pos",
        [
            ("1#2#3", "at most one gap token per pattern (repeated '#')", 3),
            ("1 # 2 # 3", "at most one gap token per pattern (repeated '#')", 6),
            ("12#^3", "sized gaps (#^r with r >= 2) are not supported", 2),
            ("1 2 #^2 3", "sized gaps (#^r with r >= 2) are not supported", 4),
            ("1 2 #2 3", "sized gaps (#^r with r >= 2) are not supported", 4),
            ("1[2", "malformed bracket token", 1),
            ("1[]2", "malformed bracket token", 1),
            ("1[²]2", "malformed bracket token", 1),
            ("12x3", "unexpected character 'x'", 2),
            ("²", "unexpected character '²'", 0),
            ("1 x 2", "unexpected token 'x'", 2),
            ("1 [2 3", "unexpected token '[2'", 2),
            ("1 ²", "unexpected token '²'", 2),
            ("102", "compact form uses digits 1-9; use the spaced form for larger values", 1),
            ("1[1]2#3", "at most one gap token per pattern (extra gap token)", 5),
            ("1 # 2 [1] 3", "at most one gap token per pattern (extra bracket token)", 6),
            ("12[9]34", "bracket value must be in 1..5, got 9", 2),
            ("1 2 [0] 3", "bracket value must be in 1..4, got 0", 4),
            ("", "empty class expression part", 0),
            ("12; ;13", "empty class expression part", 3),
            ("#", "gap token needs surrounding pattern letters", 0),
            ("123; #", "gap token needs surrounding pattern letters", 5),
            ("13", "not a permutation of 1..2: (1, 3)", 0),
            ("M(3,2,2);  1 3", "not a permutation of 1..2: (1, 3)", 11),
            # past Python's int-from-string digit limit
            pytest.param("1 " + "1" * 5000, "number too long (5000 digits)", 2, id="long-letter"),
            pytest.param("1[" + "1" * 5000 + "]2", "number too long (5000 digits)", 2, id="long-bracket"),
            pytest.param("M(" + "1" * 5000 + ",1,1)", "number too long (5000 digits)", 2, id="long-macro"),
        ],
    )
    def test_every_tokenizer_error(self, text, message, pos):
        with pytest.raises(ClassExpressionError) as err:
            parse_class_expression(text)
        assert (str(err.value), err.value.pos) == (message, pos)

    def test_caret_points_at_offender(self):
        with pytest.raises(ClassExpressionError) as err:
            parse_class_expression("M(3,2,2);1#2#3")
        diag = err.value.caret_diagnostic()
        lines = diag.splitlines()
        assert lines[1].strip() == "M(3,2,2);1#2#3"
        # the caret sits under the second '#', offset 12 of the expression
        assert lines[2].index("^") - lines[1].index("M") == 12

    def test_label_is_expression(self):
        assert parse_class_expression("M(3,2,2)").label == "M(3,2,2)"


class TestAgainstDirectSemantics:
    """The expansion route must agree with the direct gap-occurrence reading:
    a permutation contains the distant pattern iff some occurrence of the
    underlying pattern leaves a positional gap at the box."""

    @staticmethod
    def occurs_with_gap(p, q, box_pos):
        from itertools import combinations

        k = len(q)
        for idx in combinations(range(len(p)), k):
            if oracle_pattern_of(tuple(p[t] for t in idx)) != q:
                continue
            if box_pos == 1:
                if idx[0] > 0:
                    return True
            elif box_pos == k + 1:
                if idx[-1] < len(p) - 1:
                    return True
            elif idx[box_pos - 1] - idx[box_pos - 2] > 1:
                return True
        return False

    @given(perms(6), perms(3, min_n=1), st.integers(1, 4))
    def test_expansion_matches_gap_semantics(self, p, q, j):
        j = min(j, len(q) + 1)
        basis = expand_distant(q, j)
        expanded = any(contains(p, pat) for pat in basis)
        assert expanded == self.occurs_with_gap(p, q, j)

    def test_exhaustive_small(self):
        for n in range(6):
            for p in permutations(range(1, n + 1)):
                for j in (1, 2, 3):
                    basis = expand_distant((1, 2), j)
                    expanded = any(contains(p, pat) for pat in basis)
                    assert expanded == self.occurs_with_gap(p, (1, 2), j)
