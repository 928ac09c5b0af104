"""Acceptance gate: every structural claim verified exactly at desk scale.

Each criterion is one test that prints a PASS/FAIL line; run them with

    pytest tests/test_acceptance.py -v -s

Asymptotic statements (growth-rate limits) are not desk-verifiable and are
deliberately represented by their finite shadows (count sandwiches and
finite-n diagnostics), so everything below is exact integer checking.
"""

import math
from contextlib import contextmanager
from itertools import permutations

from conftest import capable_values, monotone_counts, monotone_members, oracle_rank_marks
from patlab import (
    avoids_basis,
    basis_reverse_complement,
    basis_union,
    contains,
    count_sequence,
    construct_S_explicit,
    discover_basis,
    invert_F,
    lis_tables,
    make_basis,
    map_F,
    map_G,
    map_H,
    monotone_basis,
    naive_reverse_H,
    parse_perm,
    reverse_complement,
    sandwich_check,
    verify_wilf,
)
from patlab.cli import main as cli_main


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:02d}] PASS  {desc}")


def all_perms_upto(max_n: int):
    for n in range(max_n + 1):
        for p in permutations(range(1, n + 1)):
            yield p


def test_c01_engine_equivalence():
    with criterion(1, "pruned tree equals brute force, k in 2..4, all j and i, n <= 8"):
        max_n = 8
        classes = [(k, j, i) for k in (2, 3, 4) for j in range(1, k + 2) for i in range(1, k + 2)]
        bases = {c: monotone_basis(*c).patterns for c in classes}
        # one filter of the n! permutations per n serves every class: the 166
        # basis patterns are 32 distinct ones, each tested once per permutation
        brute = {c: [set() for _ in range(max_n + 1)] for c in classes}
        for n in range(max_n + 1):
            for p in permutations(range(1, n + 1)):
                hit = {}
                for c in classes:
                    if not any(
                        hit[q] if q in hit else hit.setdefault(q, contains(p, q)) for q in bases[c]
                    ):
                        brute[c][n].add(p)
        for k, j, i in classes:
            tree = monotone_members(k, j, i, max_n)
            for n in range(max_n + 1):
                assert tree[n] == brute[k, j, i][n], (k, j, i, n)


def test_c02_wilf_chain_counts():
    with criterion(2, "M(3,t,t) agree for n <= 10 and M(4,t,t) agree for n <= 9"):
        k3 = [monotone_counts(3, t, t, 10) for t in range(1, 5)]
        assert all(seq == k3[0] for seq in k3[1:]), k3
        k4 = [monotone_counts(4, t, t, 9) for t in range(1, 6)]
        assert all(seq == k4[0] for seq in k4[1:]), k4


def test_c03_map_F_certification():
    with criterion(3, "F bijective with exact roundtrip for k in {3,4}, all steps, n <= 8"):
        max_n = 8
        for k in (3, 4):
            for i in range(k):
                src = monotone_members(k, i + 1, i + 1, max_n)
                tgt_counts = monotone_counts(k, i + 2, i + 2, max_n)
                target = monotone_basis(k, i + 2, i + 2)
                for n in range(max_n + 1):
                    images = set()
                    for p in src[n]:
                        res = map_F(p, k, i, validate=False)
                        w = res.output
                        assert avoids_basis(w, target), (k, i, p, w)
                        assert invert_F(w, k, i, validate=False).output == p, (k, i, p, w)
                        images.add(w)
                        # the moving set is exactly preserved by the map
                        moved = tuple(sorted(res.roles.perm[t] for t in res.roles.b_positions))
                        assert capable_values(w, k, i + 1) == moved, (k, i, p, w)
                        # landing entries never sit left of their movers
                        assert all(
                            c is None or c > b for b, c in res.roles.f_map
                        ), (k, i, p)
                    assert len(images) == len(src[n]) == tgt_counts[n], (k, i, n)


def test_c04_reference_vector():
    with criterion(4, "the 14-element reference vector maps and recovers exactly"):
        p = parse_perm("8 3 2 11 12 5 6 9 10 14 4 1 13 7")
        expected = parse_perm("8 3 2 11 5 14 4 1 9 10 12 13 6 7")
        res = map_F(p, k=4, i=2)
        assert res.output == expected
        assert res.pre_checked and res.post_checked
        assert invert_F(expected, k=4, i=2).output == p


def test_c05_map_G_certification():
    with criterion(5, "G bijective both ways (n <= 9 for k=3, 8 for k=4), triple equality"):
        for k, max_n in ((3, 9), (4, 8)):
            src = monotone_members(k, 2, 2, max_n)
            tgt = monotone_members(k, 2, 1, max_n)
            for n in range(max_n + 1):
                images = set()
                for p in src[n]:
                    w = map_G(p, k, "to_21", validate=False).output
                    assert w in tgt[n], (k, p, w)
                    assert map_G(w, k, "to_22", validate=False).output == p, (k, p, w)
                    images.add(w)
                assert images == tgt[n], (k, n)
            a = monotone_counts(k, 2, 2, max_n)
            b = monotone_counts(k, 2, 1, max_n)
            c = monotone_counts(k, k, k + 1, max_n)
            assert a == b == c, (k, a, b, c)


def test_c06_map_H_certification():
    with criterion(6, "H injects for k=4, j in 2..4 at n <= 8; count order; naive escape"):
        k, max_n = 4, 8
        for j in (2, 3, 4):
            src = monotone_members(k, j, j - 1, max_n)
            tgt = monotone_members(k, j, j, max_n)
            for n in range(max_n + 1):
                images = set()
                for p in src[n]:
                    w = map_H(p, k, j, validate=False).output
                    assert w in tgt[n], (j, p, w)
                    images.add(w)
                assert len(images) == len(src[n]), (j, n)
            mid = monotone_counts(k, j, j, max_n)
            below = monotone_counts(k, j, j - 1, max_n)
            above = monotone_counts(k, j, j + 1, max_n)
            for n in range(max_n + 1):
                assert mid[n] >= below[n], (j, n)
                assert mid[n] >= above[n], (j, n)
        res = naive_reverse_H(parse_perm("312456"), k=4, j=3)
        assert res.output == parse_perm("314256")
        assert contains(res.output, parse_perm("23145"))
        assert parse_perm("23145") in monotone_basis(4, 3, 2)


def test_c07_explicit_bases_are_wilf_equal():
    with criterion(7, "M(k,3,2) matches its one-extra basis and M(k,4,3) its three-extra basis"):
        for k in (3, 4):
            extra = parse_perm(
                "".join(str(v) for v in (3, 1, 2) + tuple(range(4, k + 3)))
            )
            right = basis_union(
                [monotone_basis(k, 3, 3), make_basis([extra])],
                label=f"M({k},3,3)+extra",
            )
            assert verify_wilf(monotone_basis(k, 3, 2), right, 8).equal, k
            assert verify_wilf(
                monotone_basis(k, 4, 3), construct_S_explicit(k, 4), 8
            ).equal, k


def test_c08_basis_discovery():
    with criterion(8, "discovery returns the exact minimal bases and closure holds"):
        result = discover_basis(4, 3, 7)
        expected = monotone_basis(4, 3, 3).as_set() | {parse_perm("312456")}
        assert result.discovered.as_set() == expected
        assert result.matches_predicted is True
        result = discover_basis(3, 2, 6)
        assert result.discovered.as_set() == monotone_basis(3, 2, 2).as_set()
        assert result.matches_predicted is True


def test_c09_count_sandwich():
    with criterion(9, "counts and sets nest: Av(12..k) in Av(D(k,j)) in Av(M(k,j,j))"):
        for k, max_n in ((3, 9), (4, 8)):
            for j in range(2, k + 1):
                report = sandwich_check(k, j, max_n)
                assert report.max_n == max_n
                assert report.inclusions_checked_to == min(max_n, 8)


def test_c10_classical_anchors():
    with criterion(10, "Catalan values for Av({123}) and n! below the shortest pattern"):
        catalan = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862)
        assert count_sequence(9, make_basis([(1, 2, 3)], label="123")).values() == catalan
        for k in (2, 3, 4):
            basis = monotone_basis(k, 1, 1)  # patterns of length k+1
            seq = count_sequence(k, basis)
            assert seq.values() == tuple(math.factorial(n) for n in range(k + 1))


def test_c11a_reverse_complement_basis_identity():
    with criterion(11, "(a) reverse-complement basis identity for every spec with k <= 4"):
        for k in range(1, 5):
            for j in range(1, k + 2):
                for i in range(1, k + 2):
                    left = basis_reverse_complement(monotone_basis(k, j, i))
                    right = monotone_basis(k, k + 2 - j, k + 2 - i)
                    assert left.as_set() == right.as_set(), (k, j, i)


def test_c11b_containment_commutes_with_rc():
    with criterion(11, "(b) containment commutes with reverse-complement, |p|<=7, |q|<=4"):
        qs = list(all_perms_upto(4))
        rc_q = {q: reverse_complement(q) for q in qs}
        for p in all_perms_upto(7):
            rp = reverse_complement(p)
            for q in qs:
                assert contains(p, q) == contains(rp, rc_q[q]), (p, q)


def test_c11c_rank_table_matches_occurrence_search():
    with criterion(11, "(c) rank-capability table equals occurrence search, |p|<=8, k<=5"):
        for p in all_perms_upto(8):
            n = len(p)
            up, down = lis_tables(p)
            for k in range(1, 6):
                marks = oracle_rank_marks(p, k)
                for t in range(n):
                    up_t, down_t = up[t], down[t]
                    for r in range(1, k + 1):
                        predicted = up_t >= r and down_t >= k - r + 1
                        assert predicted == ((t, r) in marks), (p, k, t, r)


def test_c11d_cli_byte_determinism(capsys):
    with criterion(11, "(d) CLI output is byte-identical across runs and parallel modes"):
        outputs = []
        for extra in ([], [], ["--no-parallel"]):
            code = cli_main(
                ["count", "--class", "M(3,2,2)", "--n", "8", "--format", "json", *extra]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        for extra in ([], ["--no-parallel"]):
            code = cli_main(
                ["verify-wilf", "--left", "M(3,1,1)", "--right", "M(3,4,4)",
                 "--n", "7", "--format", "csv", *extra]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[3] == outputs[4]
