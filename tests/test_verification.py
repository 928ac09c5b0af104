"""Wilf reports, certification, basis discovery, growth, sandwich, survey."""

import math
from itertools import permutations

import pytest

import patlab.maps as maps
import patlab.verification as verification
from conftest import oracle_avoids_basis, oracle_discover_basis, oracle_pattern_of
from patlab import (
    UsageError,
    VerificationFailure,
    avoids_basis,
    certify_map,
    construct_S_explicit,
    count_sequence,
    discover_basis,
    distant_growth_bounds,
    format_perm,
    growth_diagnostics,
    invert_F,
    levels_avoiders,
    make_basis,
    map_F,
    map_G,
    map_H,
    monotone_basis,
    parse_class_expression,
    parse_perm,
    sandwich_check,
    survey_almost_distant,
    verify_wilf,
)
from patlab.enumeration import CountSequence
from patlab.maps import _MAPS, _window_kernel
from patlab.perms import _up_runs

# (map, k, params) for every map and parameter at k = 2 to 5
CERTIFY_CASES = (
    [("F", k, {"i": i}) for k in (2, 3, 4, 5) for i in range(k)]
    + [("G", k, {}) for k in (2, 3, 4, 5)]
    + [("H", k, {"j": j}) for k in (2, 3, 4, 5) for j in range(2, k + 1)]
)


def source_and_target(map_name, k, i=None, j=None):
    if map_name == "F":
        return monotone_basis(k, i + 1, i + 1), monotone_basis(k, i + 2, i + 2)
    if map_name == "G":
        return monotone_basis(k, 2, 2), monotone_basis(k, 2, 1)
    return monotone_basis(k, j, j - 1), monotone_basis(k, j, j)


def oracle_certify_rows(map_name, k, max_n, i=None, j=None):
    """The rows of ``certify_map``, rebuilt with one pattern search per image
    and the counting engine for the target sizes."""
    source, target = source_and_target(map_name, k, i, j)
    if map_name == "F":
        forward = lambda p: map_F(p, k, i).output
        backward = lambda w: invert_F(w, k, i).output
    elif map_name == "G":
        forward = lambda p: map_G(p, k, "to_21").output
        backward = lambda w: map_G(w, k, "to_22").output
    else:
        forward = lambda p: map_H(p, k, j).output
        backward = None
    levels = levels_avoiders(source, max_n)
    sizes = count_sequence(max_n, target)
    rows = []
    for n in range(max_n + 1):
        members = sorted(levels[n])
        images = [forward(p) for p in members]
        distinct = len(set(images))
        rows.append({
            "n": n,
            "source_size": len(members),
            "target_size": sizes.count(n),
            "image_size": distinct,
            "image_in_target": all(avoids_basis(w, target) for w in images),
            "injective": distinct == len(images),
            "surjective": distinct == sizes.count(n),
            "roundtrip_ok": None
            if backward is None
            else all(backward(w) == p for p, w in zip(members, images)),
        })
    return rows


# Broken kernels for TestCertifyFailures, with the signatures of
# maps._f_kernel (p, k, i, free) and maps._window_kernel (p, k, rank,
# exclude_lower, free). They ignore ``free``, or forward it to the kernel
# they wrap.


def _identity_map(p, *args):
    return p, ()


def _constant_map(p, *args):
    # every input of length n goes to n...21, which avoids every M(k,j,i)
    return tuple(range(len(p), 0, -1)), ()


class _G_without_inverse:
    """G's window kernel on forward calls, the identity on backward calls.
    certify_map runs G's kernel twice per input, forward and then backward."""

    def __init__(self):
        self.calls = 0

    def __call__(self, p, k, rank, exclude_lower, free=False):
        self.calls += 1
        if self.calls % 2:
            return _window_kernel(p, k, rank, exclude_lower, free)
        return p, ()


def certified_by_rows(report):
    """The verdict restated row by row: every row in the target, injective and
    with no failed roundtrip, and for a bijection surjective too."""
    return all(
        r["image_in_target"] and r["injective"] and r["roundtrip_ok"] is not False
        and (report.expectation == "injection" or r["surjective"])
        for r in report.rows
    )


class TestVerifyWilf:
    def test_reverse_symmetry_catalan(self):
        report = verify_wilf(make_basis([(1, 2, 3)]), make_basis([(3, 2, 1)]), 8)
        assert report.equal
        assert report.left.values() == (1, 1, 2, 5, 14, 42, 132, 429, 1430)

    def test_diagonal_pair(self):
        report = verify_wilf(monotone_basis(3, 1, 1), monotone_basis(3, 2, 2), 7)
        assert report.equal and report.diverges_at is None

    def test_reverse_complement_pairs(self):
        for k in (2, 3):
            for j in range(1, k + 2):
                for i in range(1, k + 2):
                    report = verify_wilf(
                        monotone_basis(k, j, i),
                        monotone_basis(k, k + 2 - j, k + 2 - i),
                        6,
                    )
                    assert report.equal, (k, j, i)

    def test_divergence_reported(self):
        report = verify_wilf(make_basis([(1, 2, 3)]), make_basis([(1, 2)]), 5)
        assert not report.equal
        assert report.diverges_at == 2
        doc = report.as_json_dict()
        assert doc["verdict"] == "diverges_at"
        assert doc["witnesses"] == [{"n": 2, "left": 2, "right": 1}]

    def test_json_shape_on_equality(self):
        doc = verify_wilf(monotone_basis(2, 1, 1), monotone_basis(2, 2, 2), 4).as_json_dict()
        assert doc["verdict"] == "equal"
        assert "witnesses" not in doc


class TestCertify:
    def test_F_bijection(self):
        report = certify_map("F", 3, i=1, max_n=6)
        assert report.certified
        assert report.expectation == "bijection"
        assert all(r["surjective"] and r["roundtrip_ok"] for r in report.rows)
        assert report.findings == ()

    def test_G_bijection(self):
        report = certify_map("G", 3, max_n=7)
        assert report.certified
        assert all(r["roundtrip_ok"] for r in report.rows)

    def test_H_injection_with_deficit(self):
        report = certify_map("H", 4, j=3, max_n=6)
        assert report.certified
        assert report.expectation == "injection"
        deficits = [r["target_size"] - r["image_size"] for r in report.rows]
        assert all(d >= 0 for d in deficits)
        assert any(d > 0 for d in deficits)  # H is not onto
        assert not all(r["surjective"] for r in report.rows)

    def test_rejects_unknown_map(self):
        with pytest.raises(UsageError):
            certify_map("Q", 3, max_n=4)
        with pytest.raises(UsageError):
            certify_map("F", 3, max_n=4)  # missing i
        with pytest.raises(UsageError):
            certify_map("H", 3, j=1, max_n=4)
        with pytest.raises(UsageError, match="k must be >= 2 for this map, got 1"):
            certify_map("G", 1, max_n=4)

    # the parameter a map does not take is refused, not ignored
    @pytest.mark.parametrize("name, params, message", [
        ("G", {"i": 5}, "map G takes no --i"),
        ("F", {"i": 1, "j": 9}, "map F takes no --j"),
        ("H", {"i": 5, "j": 3}, "map H takes no --i"),
    ], ids=["G-i", "F-j", "H-i"])
    def test_refuses_the_other_parameter(self, name, params, message):
        with pytest.raises(UsageError) as exc:
            certify_map(name, 3, max_n=3, **params)
        assert str(exc.value) == message

    # a bad k (F, G), i (F) or j (H): certify_map refuses it like the map
    @pytest.mark.parametrize("name, k, params, apply, message", [
        ("F", 0, {"i": 0}, lambda: map_F((), 0, 0), "k must be >= 1, got 0"),
        ("F", 3, {"i": 3}, lambda: map_F((), 3, 3), "step index i must be in 0..2, got 3"),
        ("F", 3, {"i": -1}, lambda: map_F((), 3, -1), "step index i must be in 0..2, got -1"),
        ("H", 3, {"j": 1}, lambda: map_H((), 3, 1), "j must be in 2..k, got j=1, k=3"),
        ("H", 3, {"j": 4}, lambda: map_H((), 3, 4), "j must be in 2..k, got j=4, k=3"),
        ("G", 1, {}, lambda: map_G((), 1), "k must be >= 2 for this map, got 1"),
    ], ids=["F-k0", "F-i3", "F-i-1", "H-j1", "H-j4", "G-k1"])
    def test_refuses_like_the_map(self, name, k, params, apply, message):
        with pytest.raises(UsageError) as by_map:
            apply()
        with pytest.raises(UsageError) as by_certify:
            certify_map(name, k, max_n=3, **params)
        assert str(by_map.value) == str(by_certify.value) == message

    @pytest.mark.parametrize("name, params, inverse", [
        ("F", {"i": 1}, "Finv"), ("G", {}, "Ginv"), ("H", {"j": 3}, None),
    ], ids=["F", "G", "H"])
    def test_kernel_then_inverse_once_per_member(self, monkeypatch, name, params, inverse):
        # every member with its siblings under their parent, the root on
        # its own: each meets the kernel once, and the inverse right after it
        log = []
        for entry, tag in ((name, "forward"), (inverse, "backward")):
            if entry is None:
                continue
            kernel = _MAPS[entry].kernel

            def logged(p, k, x, free=False, kernel=kernel, tag=tag):
                out = kernel(p, k, x, free)
                log.append((tag, p, out[0]))
                return out

            monkeypatch.setitem(_MAPS, entry, _MAPS[entry]._replace(kernel=logged))
        assert certify_map(name, 4, max_n=6, **params).certified
        step = 2 if inverse else 1
        forward, backward = log[::step], log[1::step]
        assert {tag for tag, _, _ in forward} == {"forward"}
        levels = levels_avoiders(source_and_target(name, 4, **params)[0], 6)
        members = sorted(p for level in levels.values() for p in level)
        assert sorted(p for _, p, _ in forward) == members
        if inverse:
            assert [(tag, p) for tag, p, _ in backward] == [("backward", w) for _, _, w in forward]

    def test_json_shape(self):
        doc = certify_map("F", 2, i=0, max_n=4).as_json_dict()
        assert doc["verdict"] == "certified"
        assert doc["witnesses"] == []
        assert {"n", "source_size", "target_size", "image_size"} <= set(doc["rows"][0])


class TestCertifyAgainstOracle:
    @pytest.mark.parametrize("map_name, k, params", CERTIFY_CASES, ids=[
        f"{m}-k{k}" + "".join(f"-{a}{v}" for a, v in p.items()) for m, k, p in CERTIFY_CASES
    ])
    def test_rows_match_pattern_search(self, map_name, k, params):
        report = certify_map(map_name, k, max_n=6, **params)
        assert list(report.rows) == oracle_certify_rows(map_name, k, 6, **params)
        assert report.certified == certified_by_rows(report)


def map_sources(k):
    """The (j, i) of every source class M(k,j,i) of the map table at k."""
    sources = set()
    for spec in _MAPS.values():
        if spec.param == "i":
            xs = range(k)
        elif spec.param == "j":
            xs = range(2, k + 1)
        else:
            xs = [spec.direction] if k >= 2 else []
        sources.update(spec.classes(x)[0] for x in xs)
    return sorted(sources)


class TestRankFreeWalk:
    """Certification and discovery read "p has no 12...k" off p's parent in
    the walk (``verification._walk_rank_free``); the oracle is one patience
    pass per member."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bit_on_every_source_member_to_length_8(self, k):
        # every source class of the maps at k, and Av(321), rich in 12...k;
        # each member arrives under its parent, with its slot's bound, and
        # the root, which has no parent, has no 12...k
        bases = [monotone_basis(k, j, i) for j, i in map_sources(k)]
        for basis in bases + [make_basis([(3, 2, 1)])]:
            seen, wrong = {True: 0, False: 0}, []

            def visit(p, free):
                seen[free] += 1
                if free != (k not in _up_runs(p)):
                    wrong.append(p)

            def family(p, live, bound):
                for s in range(len(p) + 1):
                    if live >> s & 1:
                        visit(p[:s] + (len(p) + 1,) + p[s:], s < bound)

            sizes = verification._walk_rank_free(basis, k, 8, family, None)
            visit((), True)
            assert wrong == [], (basis.label, wrong[:3])
            assert seen[False], basis.label  # every class here has a 12...k by n=8
            assert seen[True] + seen[False] == sum(sizes), basis.label

    def test_each_last_length_child_once_with_its_parent(self):
        # the hook sees the members shorter than max_n, each once and in
        # tree order; their live slots give every member past the root once
        basis = monotone_basis(3, 2, 2)
        parents = []
        verification._walk_rank_free(
            basis, 3, 6, lambda p, live, bound: parents.append((p, live)), None
        )
        levels = levels_avoiders(basis, 6)
        visited = [p for p, _ in parents]
        assert sorted(visited) == sorted(p for n in range(6) for p in levels[n])
        assert len(set(visited)) == len(visited)
        for n in range(1, 7):
            children = [
                p[:s] + (n,) + p[s:] for p, live in parents if len(p) == n - 1
                for s in range(n) if live >> s & 1
            ]
            assert sorted(children) == sorted(levels[n]), n


class TestCertifyFailures:
    """Broken maps patched into the module must fail with an exact witness."""

    COUNTEREXAMPLES = pytest.mark.parametrize("attr, broken, args, witness", [
        ("_f_kernel", _identity_map, ("F", 3, {"i": 0}), {
            "n": 4, "reason": "image leaves the target class",
            "input": "1324", "output": "1324",
        }),
        ("_window_kernel", _identity_map, ("H", 4, {"j": 3}), {
            "n": 5, "reason": "image leaves the target class",
            "input": "13245", "output": "13245",
        }),
        ("_window_kernel", _constant_map, ("H", 4, {"j": 3}), {
            "n": 2, "reason": "two inputs share an output",
        }),
        ("_window_kernel", _constant_map, ("G", 3, {}), {
            "n": 2, "reason": "roundtrip failed",
            "input": "12", "output": "21", "recovered": "21",
        }),
        ("_window_kernel", _G_without_inverse(), ("G", 3, {}), {
            "n": 4, "reason": "roundtrip failed",
            "input": "1234", "output": "2134", "recovered": "2134",
        }),
    ], ids=["F-identity", "H-identity", "H-constant", "G-constant", "G-no-inverse"])

    @COUNTEREXAMPLES
    def test_counterexample(self, monkeypatch, attr, broken, args, witness):
        self.check_counterexample(monkeypatch, attr, broken, args, witness, 6)

    @COUNTEREXAMPLES
    def test_counterexample_at_the_witness_length(self, monkeypatch, attr, broken, args, witness):
        # at max_n = the witness's n, the witness arrives with its siblings,
        # per parent; the same witness is named
        self.check_counterexample(monkeypatch, attr, broken, args, witness, witness["n"])

    @staticmethod
    def check_counterexample(monkeypatch, attr, broken, args, witness, max_n):
        if isinstance(broken, _G_without_inverse):
            broken = _G_without_inverse()  # a fresh call count per run
        monkeypatch.setattr(maps, attr, broken)
        map_name, k, params = args
        report = certify_map(map_name, k, max_n=max_n, **params)
        assert not report.certified
        assert report.certified == certified_by_rows(report)
        assert report.counterexample == witness
        doc = report.as_json_dict()
        assert doc["verdict"] == "failed" and doc["witnesses"] == [witness]
        if witness["reason"] == "image leaves the target class":
            _, target = source_and_target(map_name, k, **params)
            assert not oracle_avoids_basis(parse_perm(witness["output"]), target.patterns)

    def test_image_failure_named_before_roundtrip_of_the_same_input(self, monkeypatch):
        # with F the identity, 1324 is the least input whose image escapes
        # (see F-identity); its roundtrip fails too, and the image is named
        monkeypatch.setattr(maps, "_f_kernel", _identity_map)
        monkeypatch.setitem(maps._MAPS, "Finv", maps._MAPS["Finv"]._replace(
            kernel=lambda w, k, i, free=False: ((4, 3, 2, 1) if w == (1, 3, 2, 4) else w, None),
        ))
        report = certify_map("F", 3, i=0, max_n=5)
        assert report.counterexample == {
            "n": 4, "reason": "image leaves the target class", "input": "1324", "output": "1324",
        }
        assert [r["roundtrip_ok"] for r in report.rows] == [True] * 4 + [False, True]

    def test_collision_across_subtrees(self, monkeypatch):
        # 213 (under 21) takes the image of 132 (under 12); the tree visits
        # them far apart, and the hit masks still see the shared output
        def broken_H(p, k, rank, exclude_lower, free=False):
            return _window_kernel((1, 3, 2) if p == (2, 1, 3) else p, k, rank, exclude_lower, free)

        monkeypatch.setattr(maps, "_window_kernel", broken_H)
        report = certify_map("H", 4, j=3, max_n=5)
        assert report.counterexample == {"n": 3, "reason": "two inputs share an output"}
        rows = {r["n"]: r for r in report.rows}
        assert not rows[3]["injective"]
        assert rows[3]["image_size"] == rows[3]["source_size"] - 1
        assert all(rows[n]["injective"] for n in (0, 1, 2, 4, 5))

    @pytest.mark.parametrize("sibling, moved", [
        ((1, 4, 2, 3), (1, 2, 4, 3)),  # the sibling's 4 at slot 1, the moved child's at 2
        ((1, 2, 4, 3), (1, 4, 2, 3)),  # the sibling's 4 at slot 2, the moved child's at 1
    ], ids=["sibling-lower", "sibling-higher"])
    @pytest.mark.parametrize("max_n", [4, 6])
    def test_collision_inside_one_parent(self, monkeypatch, sibling, moved, max_n):
        # the children of 123 arrive together, at the last length (4) or an
        # inner one (6): one is sent onto a sibling whose image is itself,
        # keyed by the tree, not by a split
        source, _ = source_and_target("H", 4, j=3)
        assert {sibling, moved} <= levels_avoiders(source, 4)[4]

        def broken_H(p, k, rank, exclude_lower, free=False):
            if p in (sibling, moved):
                return sibling, ()
            return _window_kernel(p, k, rank, exclude_lower, free)

        monkeypatch.setattr(maps, "_window_kernel", broken_H)
        report = certify_map("H", 4, j=3, max_n=max_n)
        assert report.counterexample == {"n": 4, "reason": "two inputs share an output"}
        rows = report.rows
        assert not rows[4]["injective"] and rows[4]["image_size"] == rows[4]["source_size"] - 1
        assert all(r["injective"] for r in rows if r["n"] != 4)

    def test_images_with_keys_outside_the_target_are_counted(self, monkeypatch):
        # with H the identity, members of Av(M(4,3,2)) whose parent leaves
        # Av(M(4,3,3)) keep their hit bits off the target masks; they are
        # counted and told apart like the rest
        source, target = source_and_target("H", 4, j=3)
        levels = levels_avoiders(source, 6)
        parent = lambda p: tuple(v for v in p if v < len(p))
        stray = sorted(p for p in levels[6] if not avoids_basis(parent(p), target))
        assert len(stray) >= 2
        monkeypatch.setattr(maps, "_window_kernel", _identity_map)
        rows = certify_map("H", 4, j=3, max_n=6).rows
        assert [r["image_size"] for r in rows] == [len(levels[n]) for n in range(7)]
        assert all(r["injective"] for r in rows)
        # send the second stray member onto the first: a collision among them
        monkeypatch.setattr(
            maps, "_window_kernel", lambda p, *args: (stray[0] if p == stray[1] else p, ())
        )
        rows = certify_map("H", 4, j=3, max_n=6).rows
        assert not rows[6]["injective"] and rows[6]["image_size"] == len(levels[6]) - 1
        assert all(r["injective"] for r in rows[:6])

    def test_image_whose_key_leaves_the_target_is_named(self, monkeypatch):
        # H sends one member of Av(M(4,3,2)) whose parent leaves Av(M(4,3,3))
        # to itself: its key has no target mask, so it enters with every slot
        # dead, the pattern search names the image, and it adds no member
        source, target = source_and_target("H", 4, j=3)
        parent = lambda p: tuple(v for v in p if v < len(p))
        stray = min(p for p in levels_avoiders(source, 6)[6] if not avoids_basis(parent(p), target))

        def broken_H(p, k, rank, exclude_lower, free=False):
            return (p, ()) if p == stray else _window_kernel(p, k, rank, exclude_lower, free)

        monkeypatch.setattr(maps, "_window_kernel", broken_H)
        report = certify_map("H", 4, j=3, max_n=6)
        assert not report.certified
        assert report.counterexample == {
            "n": 6, "reason": "image leaves the target class",
            "input": format_perm(stray), "output": format_perm(stray),
        }
        assert [r["target_size"] for r in report.rows] == list(count_sequence(6, target).values())

    def test_least_escape_wins_over_tree_order(self, monkeypatch):
        # Av(M(2,2,1)) at n=3 is {213, 231, 312, 321}, visited in tree order
        # 321, 231, 213, 312; both 231 and 213 are sent outside Av(M(2,2,2)),
        # and the named input is the least, 213, not the first visited
        escapes = {(2, 3, 1): (1, 3, 2), (2, 1, 3): (2, 1, 3)}

        def broken_H(p, k, rank, exclude_lower, free=False):
            if p in escapes:
                return escapes[p], ()
            return _window_kernel(p, k, rank, exclude_lower, free)

        monkeypatch.setattr(maps, "_window_kernel", broken_H)
        visited = []
        walk = verification._walk

        def logged_walk(basis, max_n, budget, family):
            return walk(basis, max_n, budget, lambda p, live: visited.append(p) or family(p, live))

        monkeypatch.setattr(verification, "_walk", logged_walk)
        report = certify_map("H", 2, j=2, max_n=4)
        assert [p for p in visited if len(p) == 3] == [(3, 2, 1), (2, 3, 1), (2, 1, 3), (3, 1, 2)]
        assert report.counterexample == {
            "n": 3, "reason": "image leaves the target class", "input": "213", "output": "213",
        }
        assert [r["image_in_target"] for r in report.rows] == [True, True, True, False, True]

    @pytest.mark.parametrize("swap, message, witness", [
        # 21 leaves the image; 132 is the least member that drops to it
        ({(2, 1): (1, 2)}, "132 drops to the non-member 21", (1, 3, 2)),
        # 12 leaves the image; 123 drops to it by deleting its maximum
        ({(1, 2): (2, 1)}, "123 drops to the non-member 12", (1, 2, 3)),
        # 123 and 132 leave the image; 1243 drops to both, 123 is named
        ({(1, 2, 3): (2, 3, 1), (1, 3, 2): (3, 2, 1)},
         "1243 drops to the non-member 123", (1, 2, 4, 3)),
    ])
    def test_closure_failure_names_the_least_witness(self, monkeypatch, swap, message, witness):
        def broken_H(p, k, rank, exclude_lower, free=False):
            return swap.get(p, p), ()

        monkeypatch.setattr(maps, "_window_kernel", broken_H)
        with pytest.raises(VerificationFailure) as err:
            discover_basis(3, 2, 5)
        n = len(witness)
        assert str(err.value) == (
            f"image of H (k=3, j=2) is not deletion closed at n={n}: {message}"
        )
        assert err.value.witness == witness

    @pytest.mark.parametrize("dropped", [
        (1, 2, 5, 4, 3),  # the least witness, 126543, has the dropped member as its parent
        (5, 4, 3, 2, 1),  # the least witness, 165432, drops to it by deleting 1: read off the index
    ])
    def test_deeper_closure_failure_names_the_least_witness(self, monkeypatch, dropped):
        # H is the identity on M(3,2,1) but sends one member of length 5 to
        # another, so the image loses it and the first violation is at n=6
        source = monotone_basis(3, 2, 1).patterns
        level5, level6 = (
            [p for p in permutations(range(1, n + 1)) if oracle_avoids_basis(p, source)]
            for n in (5, 6)
        )
        image5 = set(level5) - {dropped}
        other = min(image5)

        def broken_H(p, k, rank, exclude_lower, free=False):
            return other if p == dropped else p, ()

        monkeypatch.setattr(maps, "_window_kernel", broken_H)
        witness = min(
            w for w in level6 if any(
                oracle_pattern_of(w[:t] + w[t + 1 :]) not in image5 for t in range(6)
            )
        )
        with pytest.raises(VerificationFailure) as err:
            discover_basis(3, 2, 7)
        assert str(err.value) == (
            "image of H (k=3, j=2) is not deletion closed at n=6: "
            f"{format_perm(witness)} drops to the non-member {format_perm(dropped)}"
        )
        assert err.value.witness == witness


class TestExplicitBasis:
    def test_j2_is_plain_diagonal(self):
        assert construct_S_explicit(4, 2) == monotone_basis(4, 2, 2)

    def test_j3_adds_one_pattern(self):
        s = construct_S_explicit(4, 3)
        assert s.as_set() == monotone_basis(4, 3, 3).as_set() | {parse_perm("312456")}
        assert construct_S_explicit(3, 3).as_set() == monotone_basis(3, 3, 3).as_set() | {
            parse_perm("31245")
        }

    def test_j4_adds_three_direct_sums(self):
        s = construct_S_explicit(3, 4)
        extras = {parse_perm("14235"), parse_perm("451236"), parse_perm("351246")}
        assert s.as_set() == monotone_basis(3, 4, 4).as_set() | extras

    def test_label_reparses_to_same_basis(self):
        for k, j in [(3, 2), (4, 3), (3, 4), (4, 4)]:
            s = construct_S_explicit(k, j)
            assert parse_class_expression(s.label).as_set() == s.as_set()

    def test_unsupported_j_points_to_discovery(self):
        with pytest.raises(UsageError) as err:
            construct_S_explicit(5, 5)
        assert "discover_basis" in str(err.value)

    def test_equalities_at_small_n(self):
        assert verify_wilf(monotone_basis(3, 3, 2), construct_S_explicit(3, 3), 7).equal
        assert verify_wilf(monotone_basis(3, 2, 1), construct_S_explicit(3, 2), 7).equal
        assert verify_wilf(monotone_basis(3, 4, 3), construct_S_explicit(3, 4), 7).equal


class TestDiscoverBasis:
    def test_j2_discovers_nothing_extra(self):
        result = discover_basis(3, 2, 6)
        assert result.discovered.as_set() == monotone_basis(3, 2, 2).as_set()
        assert result.matches_predicted is True

    def test_j3_discovers_the_extra_pattern(self):
        result = discover_basis(3, 3, 6)
        expected = monotone_basis(3, 3, 3).as_set() | {parse_perm("31245")}
        assert result.discovered.as_set() == expected
        assert result.matches_predicted is True

    def test_image_sizes_recorded(self):
        result = discover_basis(3, 2, 5)
        assert result.image_sizes[0] == (0, 1)
        sizes = dict(result.image_sizes)
        assert sizes[4] == math.factorial(4) - len(monotone_basis(3, 2, 2))

    @pytest.mark.parametrize("k, j", [(k, j) for k in (3, 4, 5) for j in range(2, k + 1)])
    def test_matches_the_full_sweep(self, k, j):
        for max_len in range(7 if k == 3 else 8):
            result = discover_basis(k, j, max_len)
            minimal, sizes = oracle_discover_basis(k, j, max_len)
            assert result.discovered.as_set() == minimal, (k, j, max_len)
            assert result.image_sizes == sizes

    def test_j_range(self):
        with pytest.raises(UsageError):
            discover_basis(3, 4, 5)
        with pytest.raises(UsageError):
            discover_basis(3, 2, 10)


class TestGrowth:
    def test_catalan_roots_stay_below_reference(self):
        diag = growth_diagnostics(make_basis([(1, 2, 3)], label="123"), 9)
        roots = [float(s) for _, s in diag.roots]
        assert all(r < 4.0 for r in roots)
        assert roots == sorted(roots)  # increasing toward the limit

    def test_ratios_are_exact(self):
        from fractions import Fraction

        diag = growth_diagnostics(make_basis([(1, 2, 3)], label="123"), 6)
        by_n = dict(diag.ratios)
        assert by_n[5] == Fraction(42, 14)
        assert by_n[6] == Fraction(132, 42)

    def test_roots_reproducible(self):
        a = growth_diagnostics(monotone_basis(3, 2, 2), 7)
        b = growth_diagnostics(monotone_basis(3, 2, 2), 7)
        assert a.roots == b.roots

    def test_reference_bounds(self):
        assert distant_growth_bounds(4) == (9.0, 10.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_end_gap_counts_are_n_times_the_monotone_counts(self, k):
        # the end gaps of distant_growth_bounds' docstring: |Av_n(D(k,1))| =
        # |Av_n(D(k,k+1))| = n |Av_{n-1}(12...k)|, so growth (k-1)^2
        monotone = count_sequence(8, make_basis([tuple(range(1, k + 1))]))
        for j in (1, k + 1):
            seq = count_sequence(9, parse_class_expression(f"D({k},{j})"))
            assert [seq.count(n) for n in range(1, 10)] == [
                n * monotone.count(n - 1) for n in range(1, 10)
            ], j

    def test_json_mentions_finite_n(self):
        doc = growth_diagnostics(make_basis([(2, 1)], label="21"), 4, (0.0, 1.0)).as_json_dict()
        assert doc["note"] == "finite-n diagnostics"
        assert doc["reference_bounds"] == [0.0, 1.0]


class TestSandwich:
    def test_holds_small(self):
        report = sandwich_check(3, 2, 7)
        rows = {r["n"]: r for r in report.rows}
        for n in range(3):  # strictly below the shortest pattern: everything is n!
            assert rows[n]["lower"] == rows[n]["mid"] == rows[n]["upper"] == math.factorial(n)
        # at n = k the lower class already drops below n!, the others not yet
        assert rows[3]["lower"] == math.factorial(3) - 1
        assert rows[3]["mid"] == rows[3]["upper"] == math.factorial(3)
        assert report.as_json_dict()["verdict"] == "holds"

    def test_strictness_appears_eventually(self):
        report = sandwich_check(3, 2, 7)
        last = report.rows[-1]
        assert last["lower"] < last["mid"] < last["upper"]

    def test_j_range(self):
        with pytest.raises(UsageError):
            sandwich_check(3, 1, 5)

    def test_violation_raises(self):
        # sanity: a deliberately broken comparison cannot sneak through;
        # sandwich_check itself must never raise on valid input
        report = sandwich_check(4, 3, 6)
        assert all(r["lower"] <= r["mid"] <= r["upper"] for r in report.rows)

    @pytest.mark.parametrize("layer, label, message, witness", [
        # D(3,2) counts 1000 more from n=4 on, above M(3,2,2) first at n=4
        ("count_sequence", "D(3,2)", "count sandwich fails at n=4 for k=3, j=2: 14, 1020, 21", 4),
        # 2134, 1423 and 21345 contain D(3,2) and M(3,2,2)
        ("levels_avoiders", "123",
         "set inclusion fails at n=4 for k=3, j=2: 1423 avoids 12...k but not D(3,2)",
         (1, 4, 2, 3)),
        ("levels_avoiders", "D(3,2)",
         "set inclusion fails at n=4 for k=3, j=2: 1423 avoids D(3,2) but not M(3,2,2)",
         (1, 4, 2, 3)),
    ], ids=["counts", "lower-in-mid", "mid-in-upper"])
    def test_each_violation_names_the_least_witness(
        self, monkeypatch, layer, label, message, witness
    ):
        real = getattr(verification, layer)

        def more_counts(max_n, basis, **kwargs):
            seq = real(max_n, basis, **kwargs)
            if basis.label != label:
                return seq
            counts = tuple((n, c + 1000 * (n >= 4)) for n, c in seq.counts)
            return CountSequence(seq.basis_label, counts, seq.method)

        def more_members(basis, max_n, **kwargs):
            levels = real(basis, max_n, **kwargs)
            if basis.label == label:
                for p in [(2, 1, 3, 4), (1, 4, 2, 3), (2, 1, 3, 4, 5)]:
                    levels[len(p)].add(p)
            return levels

        broken = more_counts if layer == "count_sequence" else more_members
        monkeypatch.setattr(verification, layer, broken)
        with pytest.raises(VerificationFailure) as err:
            sandwich_check(3, 2, 6)
        assert str(err.value) == message
        assert err.value.witness == witness


class TestSurvey:
    def test_monotone_diagonal_groups_together(self):
        report = survey_almost_distant((1, 2, 3), 6)
        diagonal = {(j, j) for j in range(1, 5)}
        groups = [set(specs) for _, specs in report.groups]
        assert any(diagonal <= g for g in groups)

    def test_reverse_complement_pairing(self):
        # variants of q and of rc(q) with mirrored coordinates count the same
        q = (1, 4, 3, 2)
        rc_q = (3, 2, 1, 4)
        left = survey_almost_distant(q, 5)
        right = survey_almost_distant(rc_q, 5)
        k = 4

        def seq_of(report, j, i):
            for counts, specs in report.groups:
                if (j, i) in specs:
                    return counts
            raise AssertionError("spec missing")

        for j in range(1, k + 2):
            for i in range(1, k + 2):
                assert seq_of(left, j, i) == seq_of(right, k + 2 - j, k + 2 - i)

    def test_json_is_experiment(self):
        doc = survey_almost_distant((1, 2), 4).as_json_dict()
        assert doc["verdict"] == "experiment"
        assert doc["underlying"] == "12"


# Each result record by its fields in order, and one instance built by the
# public call that returns it.
RECORDS = {
    "CountSequence": (("basis_label", "counts", "method"),
                      lambda: count_sequence(4, make_basis([(1, 2, 3)]))),
    "RoleSets": (("perm", "k", "i", "b_positions", "a_positions", "c_positions", "f_map"),
                 lambda: maps.role_sets((3, 2, 1), k=3, i=1)),
    "MapResult": (("map_name", "k", "input", "output", "params", "roles", "windows",
                   "pre_checked", "post_checked"),
                  lambda: map_G(parse_perm("123"), 3, "to_21")),
    "WilfReport": (("left", "right", "max_n", "equal", "diverges_at"),
                   lambda: verify_wilf(monotone_basis(2, 1, 1), monotone_basis(2, 2, 2), 4)),
    "CertifyReport": (("map_name", "k", "params", "max_n", "expectation", "rows", "certified",
                       "counterexample", "findings"),
                      lambda: certify_map("F", 2, i=0, max_n=4)),
    "BasisResult": (("k", "j", "max_len", "discovered", "predicted", "matches_predicted",
                     "image_sizes"),
                    lambda: discover_basis(3, 3, 5)),
    "GrowthDiagnostics": (("basis_label", "counts", "ratios", "roots", "reference_bounds"),
                          lambda: growth_diagnostics(make_basis([(2, 1)], label="21"), 4)),
    "SandwichReport": (("k", "j", "max_n", "rows", "inclusions_checked_to"),
                       lambda: sandwich_check(3, 2, 5)),
    "SurveyReport": (("underlying", "max_n", "groups"),
                     lambda: survey_almost_distant((1, 2), 4)),
}


class TestRecords:
    @pytest.mark.parametrize("name", list(RECORDS))
    def test_immutable_tuple_of_its_fields(self, name):
        fields, build = RECORDS[name]
        record = build()
        assert type(record).__name__ == name and record._fields == fields
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        values = tuple(getattr(record, field) for field in fields)
        assert record == values and tuple(record) == values

    def test_certify_report_findings_default(self):
        report = verification.CertifyReport(
            map_name="F", k=2, params=(("i", 0),), max_n=1, expectation="bijection",
            rows=({"n": 1},), certified=True, counterexample=None,
        )
        assert report.findings == ()
        assert report.as_json_dict() == {
            "verdict": "certified", "map": "F", "k": 2, "i": 0, "expectation": "bijection",
            "max_n": 1, "rows": [{"n": 1}], "witnesses": [], "findings": [],
        }
