"""The rearrangement maps: reference vectors, exhaustive roundtrips on
enumerated classes, and the window/role invariants they rely on."""

import functools
from itertools import permutations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    capable_values,
    monotone_counts,
    monotone_members,
    oracle_lis_tables,
    perms,
    reference_f,
    reference_finv,
    reference_roles,
    reference_window,
)
from patlab import (
    DomainError,
    PatlabError,
    UsageError,
    avoids_basis,
    contains,
    invert_F,
    levels_avoiders,
    map_F,
    map_G,
    map_H,
    map_H_conjugate,
    monotone_basis,
    naive_reverse_H,
    parse_perm,
    reverse_complement,
    role_sets,
)
from patlab import maps
from patlab.maps import _MAPS, MapResult, _f_kernel, _window_kernel, map_classes


def _finv_kernel(w, k, i):
    """Finv's output-only kernel, read from the map table at call time."""
    return _MAPS["Finv"].kernel(w, k, i)[0]


P14 = parse_perm("8 3 2 11 12 5 6 9 10 14 4 1 13 7")
P14_IMAGE = parse_perm("8 3 2 11 5 14 4 1 9 10 12 13 6 7")


def values_at(roles, positions):
    """The sorted values of ``roles.perm`` at ``positions``."""
    return sorted(roles.perm[t] for t in positions)


class TestRoleSets:
    def test_fourteen_element_reference(self):
        roles = role_sets(P14, k=4, i=2)
        assert values_at(roles, roles.a_positions) == [5, 11]
        assert values_at(roles, roles.b_positions) == [6, 9, 10, 12]
        assert values_at(roles, roles.c_positions) == [7, 13, 14]
        f = {arrow["from_value"]: arrow["to_value"] for arrow in roles.as_json_dict()["f"]}
        assert f == {6: 7, 9: 13, 10: 13, 12: 13}

    def test_eight_element_literal_definition(self):
        # literal capability reading: 6 reaches rank 3 through 2,4,6,7
        roles = role_sets(parse_perm("82456173"), k=4, i=2)
        assert values_at(roles, roles.a_positions) == [4]
        assert values_at(roles, roles.b_positions) == [5, 6]
        assert values_at(roles, roles.c_positions) == [7]

    def test_start_anchor(self):
        roles = role_sets((1, 2, 3), k=2, i=0)
        assert roles.a_positions is None
        assert values_at(roles, roles.b_positions) == [1, 2]
        assert values_at(roles, roles.c_positions) == [3]

    def test_end_anchor(self):
        roles = role_sets((1, 2), k=2, i=1, validate=False)
        assert roles.c_positions is None
        assert all(c is None for _, c in roles.f_map)

    def test_no_capable_entries(self):
        roles = role_sets((3, 2, 1), k=3, i=1)
        assert roles.b_positions == ()

    def test_precondition_checked(self):
        # 213456 contains 21345, one of the four patterns behind M(4,1,1)
        with pytest.raises(DomainError):
            role_sets((2, 1, 3, 4, 5, 6), k=4, i=0)

    def test_step_index_range(self):
        with pytest.raises(UsageError):
            role_sets((1, 2), k=2, i=2)


class TestMapF:
    def test_reference_vector(self):
        res = map_F(P14, k=4, i=2)
        assert res.output == P14_IMAGE
        assert res.pre_checked and res.post_checked

    def test_reference_vector_inverse(self):
        res = invert_F(P14_IMAGE, k=4, i=2)
        assert res.output == P14

    def test_identity_when_no_movers(self):
        p = (4, 3, 2, 1)
        assert map_F(p, k=3, i=1).output == p
        assert invert_F(p, k=3, i=1).output == p

    def test_empty(self):
        assert map_F((), k=3, i=0).output == ()

    @pytest.mark.parametrize("k,i,max_n", [(3, 0, 7), (3, 1, 7), (3, 2, 7), (4, 2, 6)])
    def test_exhaustive_roundtrip(self, k, i, max_n):
        members = monotone_members(k, i + 1, i + 1, max_n)
        target = monotone_basis(k, i + 2, i + 2)
        for n in range(max_n + 1):
            images = set()
            for p in sorted(members[n]):
                w = map_F(p, k, i, validate=False).output
                assert avoids_basis(w, target), (p, w)
                assert invert_F(w, k, i, validate=False).output == p
                images.add(w)
            assert len(images) == len(members[n])

    def test_moved_set_keeps_capability(self):
        # entries able to act as rank i+1 are the same before and after
        k, i = 3, 1
        members = monotone_members(k, i + 1, i + 1, 6)
        for n in range(7):
            for p in sorted(members[n]):
                before = capable_values(p, k, i + 1)
                w = map_F(p, k, i, validate=False).output
                after = capable_values(w, k, i + 1)
                assert before == after, (p, w)

    def test_non_movers_keep_relative_order(self):
        roles = role_sets(P14, k=4, i=2)
        moved = {P14[t] for t in roles.b_positions}
        kept_in = [v for v in P14 if v not in moved]
        kept_out = [v for v in P14_IMAGE if v not in moved]
        assert kept_in == kept_out

    def test_chain_with_reverse_complement_permutes_first_class(self):
        # applying every step in order, then reverse-complement, must send
        # Av(M(3,1,1)) onto itself bijectively
        k = 3
        members = monotone_members(k, 1, 1, 8)
        for n in range(9):
            image = set()
            for p in members[n]:
                w = p
                for i in range(k):
                    w = map_F(w, k, i, validate=False).output
                image.add(reverse_complement(w))
            assert image == members[n]

    def test_composition_lands_in_next_diagonal(self):
        members = monotone_members(4, 1, 1, 6)
        t2 = monotone_basis(4, 2, 2)
        for p in sorted(members[6]):
            assert avoids_basis(map_F(p, 4, 0, validate=False).output, t2)

    def test_invert_rejects_non_image(self, monkeypatch, capsys):
        # F is a bijection, so no member of its target is outside its image;
        # a Finv kernel that reverses its input reconstructs 321 from 123,
        # which F does not map back to 123, and the roundtrip check refuses it
        from patlab import NotInImageError
        from patlab.cli import main

        monkeypatch.setitem(maps._MAPS, "Finv", maps._MAPS["Finv"]._replace(
            kernel=lambda w, k, i, free=False: (w[::-1], None),
        ))
        message = "123 is not in the image of the step (k=3, i=1): reconstruction does not map back"
        with pytest.raises(NotInImageError) as err:
            invert_F((1, 2, 3), 3, 1)
        assert str(err.value) == message
        assert main(["map", "--map", "Finv", "--k", "3", "--i", "1", "--perm", "123"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestMapG:
    def test_singleton_windows_fix_identity(self):
        assert map_G((1, 2, 3), k=3).output == (1, 2, 3)

    def test_increasing_windows_before_reversal(self):
        members = monotone_members(3, 2, 2, 7)
        for n in range(8):
            for p in sorted(members[n]):
                res = map_G(p, 3, "to_21", validate=False)
                for s, e in res.windows:
                    seg = p[s:e]
                    assert all(x < y for x, y in zip(seg, seg[1:])), (p, res.windows)

    def test_decreasing_windows_on_the_way_back(self):
        members = monotone_members(3, 2, 1, 7)
        for n in range(8):
            for p in sorted(members[n]):
                res = map_G(p, 3, "to_22", validate=False)
                for s, e in res.windows:
                    seg = p[s:e]
                    assert all(x > y for x, y in zip(seg, seg[1:])), (p, res.windows)

    @pytest.mark.parametrize("k,max_n", [(3, 7), (4, 6)])
    def test_exhaustive_bijection(self, k, max_n):
        src = monotone_members(k, 2, 2, max_n)
        tgt = monotone_members(k, 2, 1, max_n)
        for n in range(max_n + 1):
            images = set()
            for p in sorted(src[n]):
                w = map_G(p, k, "to_21", validate=False).output
                assert w in tgt[n], (p, w)
                assert map_G(w, k, "to_22", validate=False).output == p
                images.add(w)
            assert images == tgt[n]

    def test_triple_count_equality_small(self):
        for k in (3, 4):
            a = monotone_counts(k, 2, 2, 7)
            b = monotone_counts(k, 2, 1, 7)
            c = monotone_counts(k, k, k + 1, 7)
            assert a == b == c

    def test_direction_validated(self):
        with pytest.raises(UsageError):
            map_G((1, 2), 3, "sideways")
        with pytest.raises(DomainError):
            map_G((2, 1, 3, 4), 3, "to_21")  # 2134 itself is forbidden there


class TestMapH:
    def test_windows_decrease_before_reversal(self):
        members = monotone_members(4, 3, 2, 6)
        for n in range(7):
            for p in sorted(members[n]):
                res = map_H(p, 4, 3, validate=False)
                for s, e in res.windows:
                    seg = p[s:e]
                    assert all(x > y for x, y in zip(seg, seg[1:])), (p, res.windows)

    @pytest.mark.parametrize("k,j,max_n", [(3, 2, 7), (3, 3, 7), (4, 3, 6)])
    def test_exhaustive_injection(self, k, j, max_n):
        src = monotone_members(k, j, j - 1, max_n)
        tgt = monotone_members(k, j, j, max_n)
        for n in range(max_n + 1):
            images = set()
            for p in sorted(src[n]):
                w = map_H(p, k, j, validate=False).output
                assert w in tgt[n], (p, w)
                images.add(w)
            assert len(images) == len(src[n])
            assert len(images) <= len(tgt[n])

    def test_fixed_point_when_nothing_reaches_rank_j(self):
        p = (3, 2, 1)
        assert map_H(p, 4, 3).output == p

    def test_matches_G_inverse_for_j2(self):
        members = monotone_members(3, 2, 1, 6)
        for n in range(7):
            for p in sorted(members[n]):
                assert (
                    map_H(p, 3, 2, validate=False).output
                    == map_G(p, 3, "to_22", validate=False).output
                )

    def test_j_range(self):
        with pytest.raises(UsageError):
            map_H((1, 2), 3, 1)
        with pytest.raises(UsageError):
            map_H((1, 2), 3, 4)

    def test_conjugated_variant_injects(self):
        k, j, max_n = 4, 3, 6
        src = monotone_members(k, j, j + 1, max_n)
        tgt = monotone_members(k, j, j, max_n)
        for n in range(max_n + 1):
            images = {map_H_conjugate(p, k, j, validate=False).output for p in sorted(src[n])}
            assert len(images) == len(src[n])
            assert images <= tgt[n]


class TestNaiveReverse:
    def test_classic_escape(self):
        res = naive_reverse_H(parse_perm("312456"), k=4, j=3)
        assert res.output == parse_perm("314256")
        assert contains(res.output, parse_perm("23145"))
        assert parse_perm("23145") in monotone_basis(4, 3, 2)
        assert res.post_checked is False

    def test_harmless_for_j2(self):
        # for j = 2 the mirrored map is a genuine inverse, so it stays inside
        members = monotone_members(3, 2, 2, 6)
        src_basis = monotone_basis(3, 2, 1)
        for n in range(7):
            for p in sorted(members[n]):
                assert avoids_basis(naive_reverse_H(p, 3, 2, validate=False).output, src_basis)


class TestReportShape:
    def test_map_result_json(self):
        doc = map_F(P14, 4, 2).as_json_dict()
        assert doc["map"] == "F"
        assert doc["input"] == "8 3 2 11 12 5 6 9 10 14 4 1 13 7"
        assert doc["output"] == "8 3 2 11 5 14 4 1 9 10 12 13 6 7"
        assert doc["class_checks"] == {"pre": True, "post": True}
        roles = doc["windows_or_roles"]
        assert roles["B"]["values"] == [12, 6, 9, 10]
        assert {f["from_value"]: f["to_value"] for f in roles["f"]} == {
            6: 7,
            9: 13,
            10: 13,
            12: 13,
        }

    def test_window_json_positions_are_one_based(self):
        res = map_G(parse_perm("123"), 3, "to_21")
        doc = res.as_json_dict()
        assert doc["windows_or_roles"] == {"windows": [{"start": 1, "end": 1, "values": [1]}]}

    def test_keyword_construction_defaults(self):
        bare = MapResult(map_name="G", k=3, input=(2, 1, 3), output=(1, 2, 3))
        assert (bare.params, bare.roles, bare.windows) == ((), None, None)
        assert bare.as_json_dict() == {
            "map": "G", "k": 3, "input": "213", "output": "123",
            "windows_or_roles": None, "class_checks": {"pre": None, "post": None},
        }
        windowed = MapResult(map_name="H", k=3, input=(3, 1, 2), output=(1, 3, 2),
                             params=(("j", 2),), windows=((1, 3),))
        assert windowed.as_json_dict() == {
            "map": "H", "k": 3, "j": 2, "input": "312", "output": "132",
            "windows_or_roles": {"windows": [{"start": 2, "end": 3, "values": [1, 2]}]},
            "class_checks": {"pre": None, "post": None},
        }


# Each map by its MapResult.map_name, applied with validation, with the
# values of its i or j (None: the map takes neither) for a given k.
VALIDATED = {
    "F": (lambda p, k, x: map_F(p, k, x), lambda k: range(k)),
    "Finv": (lambda p, k, x: invert_F(p, k, x), lambda k: range(k)),
    "G": (lambda p, k, x: map_G(p, k, "to_21"), lambda k: [None]),
    "Ginv": (lambda p, k, x: map_G(p, k, "to_22"), lambda k: [None]),
    "H": (lambda p, k, x: map_H(p, k, x), lambda k: range(2, k + 1)),
    "Hrc": (lambda p, k, x: map_H_conjugate(p, k, x), lambda k: range(2, k + 1)),
    "HnaiveInv": (lambda p, k, x: naive_reverse_H(p, k, x), lambda k: range(2, k + 1)),
}


class TestMapClasses:
    @pytest.mark.parametrize("name", list(VALIDATED))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_members_pass_both_checks(self, name, k):
        apply, xs = VALIDATED[name]
        for x in xs(k):
            source, target = map_classes(name, k, x)
            levels = levels_avoiders(source, 6)
            escapes = set()
            for n in range(7):
                for p in sorted(levels[n]):
                    res = apply(p, k, x)
                    assert res.map_name == name
                    assert res.pre_checked is True, (x, p)
                    assert res.post_checked == avoids_basis(res.output, target), (x, p)
                    if not res.post_checked:
                        escapes.add(p)
            if name == "HnaiveInv" and x > 2:
                # the known escape of the mirrored H (see TestNaiveReverse)
                assert escapes
                if (k, x) == (4, 3):
                    assert escapes == {parse_perm("312456")}
            else:
                assert not escapes, (x, sorted(escapes)[:3])

    @pytest.mark.parametrize("name", list(VALIDATED))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_non_member_is_refused(self, name, k):
        apply, xs = VALIDATED[name]
        for x in xs(k):
            source, _ = map_classes(name, k, x)
            outsider = source.patterns[0]
            with pytest.raises(DomainError) as exc:
                apply(outsider, k, x)
            assert str(exc.value).startswith(
                f"{''.join(map(str, outsider))} is not in Av({source.label}); required by this "
            )

    def test_labels(self):
        labels = {
            name: tuple(c.label for c in map_classes(name, 4, None if name[0] == "G" else 3))
            for name in VALIDATED
        }
        assert labels == {
            "F": ("M(4,4,4)", "M(4,5,5)"),
            "Finv": ("M(4,5,5)", "M(4,4,4)"),
            "G": ("M(4,2,2)", "M(4,2,1)"),
            "Ginv": ("M(4,2,1)", "M(4,2,2)"),
            "H": ("M(4,3,2)", "M(4,3,3)"),
            "Hrc": ("M(4,3,4)", "M(4,3,3)"),
            "HnaiveInv": ("M(4,3,3)", "M(4,3,2)"),
        }

    def test_unknown_name_and_missing_index(self):
        with pytest.raises(UsageError):
            map_classes("K", 4, 1)
        with pytest.raises(UsageError):
            map_classes("F", 4)

    def test_each_basis_is_built_once(self, monkeypatch):
        first, again = map_classes("H", 4, 3), map_classes("H", 4, 3)
        assert first[0] is again[0] and first[1] is again[1]
        builds = []

        def counted(k, j, i):
            builds.append((k, j, i))
            return monotone_basis(k, j, i)

        monkeypatch.setattr(maps, "monotone_basis", counted)
        map_classes.cache_clear()
        try:
            for k in (3, 4):
                for j in range(2, k + 1):
                    for n in range(4):  # members: every basis pattern has length k+1
                        for p in permutations(range(1, n + 1)):
                            assert map_H(p, k, j).post_checked is True
        finally:
            map_classes.cache_clear()
        expected = [(k, j, i) for k in (3, 4) for j in range(2, k + 1) for i in (j - 1, j)]
        assert sorted(builds) == expected


# Each map by its MapResult.map_name: the output-only kernel that
# certification runs, and the public map without its class checks.
KERNELS = {
    "F": (lambda p, k, x: _f_kernel(p, k, x)[0], lambda p, k, x: map_F(p, k, x, False)),
    "Finv": (_finv_kernel, lambda p, k, x: invert_F(p, k, x, False)),
    "G": (lambda p, k, x: _window_kernel(p, k, 2, True)[0],
          lambda p, k, x: map_G(p, k, "to_21", False)),
    "Ginv": (lambda p, k, x: _window_kernel(p, k, 2, True)[0],
             lambda p, k, x: map_G(p, k, "to_22", False)),
    "H": (lambda p, k, x: _window_kernel(p, k, x, False)[0],
          lambda p, k, x: map_H(p, k, x, False)),
    "HnaiveInv": (lambda p, k, x: _window_kernel(p, k, x, True)[0],
                  lambda p, k, x: naive_reverse_H(p, k, x, False)),
}


def _outcome(apply, p, k, x):
    """The output of one application, or its error class and message."""
    try:
        out = apply(p, k, x)
    except PatlabError as exc:
        return type(exc), str(exc)
    return out.output if isinstance(out, MapResult) else out


class TestKernels:
    @pytest.mark.parametrize("name", list(KERNELS))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kernel_output_is_the_public_output(self, name, k):
        kernel, public = KERNELS[name]
        for x in VALIDATED[name][1](k):
            source, _ = map_classes(name, k, x)
            for members in levels_avoiders(source, 7).values():
                for p in sorted(members):
                    res = public(p, k, x)
                    assert kernel(p, k, x) == res.output, (x, p)
                    if name == "F":
                        assert _f_kernel(p, k, x)[1] == list(role_sets(p, k, x, False).f_map)
                    elif name != "Finv":
                        rank, lower = (2, True) if name[0] == "G" else (x, name != "H")
                        assert tuple(_window_kernel(p, k, rank, lower)[1]) == res.windows

    # each conjugated entry: its base kernel's output and mirrored parameter
    @pytest.mark.parametrize("name, base, mirror", [
        ("Finv", lambda q, k, x: _f_kernel(q, k, x)[0], lambda k, i: k - 1 - i),
        ("Hrc", lambda q, k, x: _window_kernel(q, k, x, False)[0], lambda k, j: k + 2 - j),
    ], ids=["Finv", "Hrc"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_conjugate_runs_the_window_kernel(self, name, base, mirror, k):
        public, xs = VALIDATED[name]
        for x in xs(k):
            source, _ = map_classes(name, k, x)
            for members in levels_avoiders(source, 6 if k == 5 else 7).values():
                for p in sorted(members):
                    expected = reverse_complement(base(reverse_complement(p), k, mirror(k, x)))
                    assert _MAPS[name].kernel(p, k, x)[0] == expected, (x, p)
                    assert public(p, k, x).output == expected, (x, p)

    @pytest.mark.parametrize("name", list(KERNELS))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kernel_fails_like_the_public_map_outside_the_class(self, name, k):
        kernel, public = KERNELS[name]
        errors = 0
        for x in VALIDATED[name][1](k):
            source, _ = map_classes(name, k, x)
            for n in range(7):
                for p in permutations(range(1, n + 1)):
                    if avoids_basis(p, source):
                        continue
                    expected = _outcome(public, p, k, x)
                    assert _outcome(kernel, p, k, x) == expected, (x, p)
                    errors += isinstance(expected[0], type)
        # the window maps refuse some non-members; F's and Finv's error
        # branches fire on no permutation at all (the argument is at the
        # raise in maps._f_kernel, which Finv runs conjugated)
        assert errors or name in ("F", "Finv")


# Each output-only kernel by MapResult.map_name beside its reference in
# conftest: (kernel(p, k, x), reference(p, k, x, tables)), where x is the
# step index i or the rank j and tables are oracle_lis_tables(p).
ORACLES = {
    "F": (_f_kernel, reference_f),
    "Finv": (_finv_kernel, reference_finv),
    "G": (lambda p, k, x: _window_kernel(p, k, 2, True),
          lambda p, k, x, tables: reference_window(p, k, 2, True, tables)),
    "Ginv": (lambda p, k, x: _window_kernel(p, k, 2, True),
             lambda p, k, x, tables: reference_window(p, k, 2, True, tables)),
    "H": (lambda p, k, x: _window_kernel(p, k, x, False),
          lambda p, k, x, tables: reference_window(p, k, x, False, tables)),
    "HnaiveInv": (lambda p, k, x: _window_kernel(p, k, x, True),
                  lambda p, k, x, tables: reference_window(p, k, x, True, tables)),
}

_oracle_tables = functools.cache(oracle_lis_tables)


def _check(name, p, k, x):
    """Kernel and reference agree on ``p``: the same output and landing map
    or windows, or the same error class."""
    kernel, reference = ORACLES[name]
    tables = _oracle_tables(p)
    try:
        got = kernel(p, k, x)
    except PatlabError as exc:
        with pytest.raises(type(exc)):
            reference(p, k, x, tables)
        return
    assert got == reference(p, k, x, tables), (name, x, p)


class TestKernelOracle:
    """Each kernel computes the bijection of its definition, not just some
    bijection that certifies: it is checked against a reference built from
    the rank tables of ``oracle_lis_tables``."""

    @pytest.mark.parametrize("name", list(ORACLES))
    def test_every_source_member_to_length_8(self, name):
        k = 4
        for x in VALIDATED[name][1](k):
            levels = monotone_members(k, *_MAPS[name].classes(x)[0], 8)
            for n in range(9):
                for p in sorted(levels[n]):
                    _check(name, p, k, x)

    @pytest.mark.parametrize("name", list(ORACLES))
    @pytest.mark.parametrize("k", [3, 4])
    def test_every_permutation_to_length_6(self, name, k):
        for x in VALIDATED[name][1](k):
            for n in range(7):
                for p in permutations(range(1, n + 1)):
                    _check(name, p, k, x)

    # on non-members the kernels' counterexample detectors fire, and the
    # window kernel's two in the order its one pass meets them
    @pytest.mark.parametrize("name", ["F", "G", "H", "HnaiveInv"])
    @pytest.mark.parametrize("k", [4, 5])
    def test_every_permutation_to_length_7(self, name, k):
        for x in VALIDATED[name][1](k):
            for n in range(8):
                for p in permutations(range(1, n + 1)):
                    _check(name, p, k, x)

    def test_finv_on_every_source_member_to_length_7_at_k5(self):
        # Finv of step i runs F of step k-1-i, so k=5 pairs steps 0-4, 1-3
        # and 2 with itself
        k = 5
        for i in range(k):
            levels = monotone_members(k, i + 2, i + 2, 7)
            for n in range(8):
                for p in sorted(levels[n]):
                    _check("Finv", p, k, i)

    def test_role_sets_on_every_source_member_to_length_8(self):
        k = 4
        for i in range(k):
            levels = monotone_members(k, i + 1, i + 1, 8)
            for n in range(9):
                for p in sorted(levels[n]):
                    _check_roles(p, k, i)

    @pytest.mark.parametrize("k", [3, 4])
    def test_role_sets_on_every_permutation_to_length_6(self, k):
        for i in range(k):
            for n in range(7):
                for p in permutations(range(1, n + 1)):
                    _check_roles(p, k, i)


def _check_roles(p, k, i):
    """``role_sets`` reads A, B, C and f of its definition off ``p``."""
    roles = role_sets(p, k, i, False)
    got = (roles.a_positions, roles.b_positions, roles.c_positions, roles.f_map)
    assert got == reference_roles(p, k, i, _oracle_tables(p)), (k, i, p)


@functools.cache
def _split_by_12k(k, max_n):
    """Every permutation of length <= ``max_n``, split by brute-force
    containment into those without and those with a 12...k."""
    free, ranked = [], []
    for n in range(max_n + 1):
        for p in permutations(range(1, n + 1)):
            (ranked if contains(p, tuple(range(1, k + 1))) else free).append(p)
    return free, ranked


class TestRankFree:
    """Every rank-capable entry lies on a 12...k, so no kernel moves an
    entry of a permutation without one (``maps._rank_up``)."""

    @pytest.mark.parametrize("name", list(_MAPS))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_every_kernel_returns_its_input(self, name, k):
        free, _ = _split_by_12k(k, 7)
        for x in VALIDATED[name][1](k):
            for p in free:
                output, extra = _MAPS[name].kernel(p, k, x)
                assert output == p and not extra, (x, p)
                # told so, the kernel returns the same at once
                assert _MAPS[name].kernel(p, k, x, True) == (output, extra), (x, p)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_role_sets_are_empty(self, k):
        free, _ = _split_by_12k(k, 7)
        for i in range(k):
            for p in free:
                roles = role_sets(p, k, i, False)
                assert roles.b_positions == () and roles.f_map == (), (i, p)
                assert roles.a_positions in (None, ()) and roles.c_positions in (None, ())

    @pytest.mark.parametrize("k", [3, 4])
    def test_every_other_input_has_a_mover(self, k):
        # a landing map or a window on every input with a 12...k, or the
        # refusal of an input outside the class
        _, ranked = _split_by_12k(k, 6)
        for name in ("F", "G", "H", "HnaiveInv"):
            for x in VALIDATED[name][1](k):
                for p in ranked:
                    try:
                        extra = _MAPS[name].kernel(p, k, x)[1]
                    except PatlabError:
                        continue
                    assert extra, (name, x, p)
