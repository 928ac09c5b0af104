"""Exact verification machinery: Wilf-equivalence checks, map certification
over fully enumerated classes, explicit and empirical forbidden-pattern
bases for the image of H, growth diagnostics, and the almost-distant survey.

Everything here is exact integer computation over finite ranges. Growth
numbers are finite-n diagnostics only: limits are out of reach at desk scale
and no verdict is ever attached to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .enumeration import (
    CountSequence,
    avoider_masks,
    avoids_basis,
    count_sequence,
    levels_avoiders,
    walk_avoiders,
)
from .errors import UsageError, VerificationFailure
from .maps import _MAPS, _enter, _param, map_classes

# Not called here since certification runs the kernels of the map table, but
# still imported: the benchmark's tracer wraps these names on this module.
from .maps import invert_F, map_F, map_G, map_H  # noqa: F401
from .patterns import (
    PatternBasis,
    basis_union,
    distant_monotone_basis,
    expand_distant,
    make_basis,
    monotone_basis,
)
from .perms import Perm, deletions, direct_sum, format_perm, identity

__all__ = [
    "WilfReport",
    "CertifyReport",
    "BasisResult",
    "GrowthDiagnostics",
    "SandwichReport",
    "SurveyReport",
    "verify_wilf",
    "certify_map",
    "construct_S_explicit",
    "discover_basis",
    "growth_diagnostics",
    "distant_growth_bounds",
    "sandwich_check",
    "survey_almost_distant",
]


# -- Wilf equivalence -------------------------------------------------------


@dataclass(frozen=True)
class WilfReport:
    left: CountSequence
    right: CountSequence
    max_n: int
    equal: bool
    diverges_at: int | None

    def as_json_dict(self) -> dict:
        doc = {
            "verdict": "equal" if self.equal else "diverges_at",
            "max_n": self.max_n,
            "counts": {
                "left": {"class": self.left.basis_label, "values": list(self.left.counts)},
                "right": {"class": self.right.basis_label, "values": list(self.right.counts)},
            },
        }
        if not self.equal:
            n = self.diverges_at
            doc["witnesses"] = [
                {"n": n, "left": self.left.count(n), "right": self.right.count(n)}
            ]
        return doc


def verify_wilf(
    left: PatternBasis,
    right: PatternBasis,
    max_n: int,
    *,
    parallel: bool = False,
    node_budget: int | None = None,
) -> WilfReport:
    """Compare the two avoidance count sequences exactly for n <= max_n."""
    lc = count_sequence(max_n, left, parallel=parallel, node_budget=node_budget)
    rc = count_sequence(max_n, right, parallel=parallel, node_budget=node_budget)
    diverges = None
    for (n, a), (_, b) in zip(lc.counts, rc.counts):
        if a != b:
            diverges = n
            break
    return WilfReport(lc, rc, max_n, diverges is None, diverges)


# -- map certification ------------------------------------------------------


@dataclass(frozen=True)
class CertifyReport:
    """Per-length evidence that a map is what it claims to be on a class.

    F and G are expected to certify as bijections with exact roundtrips; H
    certifies as an injection and its per-length surjectivity deficits are
    reported, not judged.
    """

    map_name: str
    k: int
    params: tuple[tuple[str, int | str], ...]
    max_n: int
    expectation: str  # "bijection" | "injection"
    rows: tuple[dict, ...]
    certified: bool
    counterexample: dict | None
    findings: tuple[str, ...] = ()  # no check records one; the JSON key stays

    def as_json_dict(self) -> dict:
        return {
            "verdict": "certified" if self.certified else "failed",
            "map": self.map_name,
            "k": self.k,
            **{name: value for name, value in self.params},
            "expectation": self.expectation,
            "max_n": self.max_n,
            "rows": list(self.rows),
            "witnesses": [] if self.counterexample is None else [self.counterexample],
            "findings": list(self.findings),
        }


def _split(w: Perm) -> tuple[Perm, int]:
    """Nonempty ``w`` as an ``avoider_masks`` key and bit: w without its
    maximum, and the slot of that maximum."""
    s = w.index(len(w))
    return w[:s] + w[s + 1 :], s


def _unpack(bits: dict[Perm, int], n: int):
    """The permutations of length n whose bits are set in ``bits``."""
    for key, live in bits.items():
        while live:
            low = live & -live
            live ^= low
            s = low.bit_length() - 1
            yield key[:s] + (n,) + key[s:]


def certify_map(
    map_name: str,
    k: int,
    *,
    i: int | None = None,
    j: int | None = None,
    max_n: int,
    node_budget: int | None = None,
) -> CertifyReport:
    """Push every member of the source class with length <= max_n through
    the map, and check image membership, injectivity, surjectivity
    (by count), and the roundtrip where an inverse exists.

    The target class is walked first, by ``avoider_masks``, up to length
    max_n - 1 and never at max_n. An image is a member when the dead-slot
    mask of the image without its maximum has the slot of that maximum
    live; the target sizes are the live slots summed over those masks. An
    image the masks reject is confirmed by the pattern search
    ``avoids_basis`` before it is reported, as is the empty image, which
    has no parent mask.

    The source is then streamed through ``walk_avoiders``, and the map's
    output-only kernel, read from the map table in ``maps``, runs at each
    member; no level of either class is kept as a set. Each image sets one
    hit bit keyed the same way, above the dead slots of its key in the
    target masks. A key the target lacks enters with all its slots dead, so
    its images go to the pattern search and it adds no target member. A hit
    bit found set is a collision, and the image sizes are popcounts.
    The counterexample is the one a sorted sweep meets first: at the least
    length with a violation, the least input whose image leaves the target
    or fails the roundtrip (the image check first), else the collision."""
    if map_name not in ("F", "G", "H"):
        raise UsageError(f"cannot certify map {map_name!r} (expected F, G, or H)")
    x = _param(map_name, i, j)
    spec = _enter(map_name, k, x)
    backward = spec.inverse and _MAPS[spec.inverse].kernel
    source, target = map_classes(map_name, k, x)
    masks = avoider_masks(target, max_n, node_budget=node_budget)
    escaped = [False] * (max_n + 1)
    unrecovered = [False] * (max_n + 1)
    collided = [False] * (max_n + 1)
    least: list = [None] * (max_n + 1)  # per length: (input, counterexample)

    def visit(p: Perm, _mask) -> None:
        n = len(p)
        w, _ = spec.kernel(p, k, x)
        bad = None
        # one key and slot per image: the membership bit, then the hit bit
        # above the key's n dead-slot bits; a key outside the target gets
        # all n slots dead. The empty image has no key: its slot reads dead.
        dead, s = 1, 0
        if n:
            key, s = _split(w)
            dead = masks.setdefault(key, (1 << n) - 1)
        if dead >> s & 1 and not avoids_basis(w, target):
            escaped[n] = True
            bad = {
                "n": n,
                "reason": "image leaves the target class",
                "input": format_perm(p),
                "output": format_perm(w),
            }
        if backward is not None:
            back = backward(w, k, x)[0]
            if back != p:
                unrecovered[n] = True
                bad = bad or {
                    "n": n,
                    "reason": "roundtrip failed",
                    "input": format_perm(p),
                    "output": format_perm(w),
                    "recovered": format_perm(back),
                }
        if bad is not None and (least[n] is None or p < least[n][0]):
            least[n] = (p, bad)
        if n:
            if dead >> (s + n) & 1:
                collided[n] = True
            masks[key] = dead | 1 << (s + n)

    src_sizes = walk_avoiders(source, max_n, visit, node_budget=node_budget)
    tgt_sizes = [int(avoids_basis((), target))] + [0] * max_n
    image_sizes = src_sizes[:1] + [0] * max_n  # () has one image, itself
    for key, bits in masks.items():
        n1 = len(key) + 1
        tgt_sizes[n1] += (~bits & ((1 << n1) - 1)).bit_count()
        image_sizes[n1] += (bits >> n1).bit_count()
    rows: list[dict] = []
    counterexample: dict | None = None
    certified = True
    for n in range(max_n + 1):
        if counterexample is None and least[n] is not None:
            counterexample = least[n][1]
        elif counterexample is None and collided[n]:
            counterexample = {"n": n, "reason": "two inputs share an output"}
        surjective = image_sizes[n] == tgt_sizes[n]
        rows.append(
            {
                "n": n,
                "source_size": src_sizes[n],
                "target_size": tgt_sizes[n],
                "image_size": image_sizes[n],
                "image_in_target": not escaped[n],
                "injective": not collided[n],
                "surjective": surjective,
                "roundtrip_ok": None if backward is None else not unrecovered[n],
            }
        )
        ok = not (escaped[n] or collided[n] or unrecovered[n])
        if backward is not None:  # a bijection
            ok = ok and surjective
        certified = certified and ok
    return CertifyReport(
        map_name=map_name,
        k=k,
        params=((spec.param, x),),
        max_n=max_n,
        expectation="injection" if backward is None else "bijection",
        rows=tuple(rows),
        certified=certified,
        counterexample=counterexample,
    )


# -- the finite extra-pattern set S for the image of H ----------------------


def construct_S_explicit(k: int, j: int) -> PatternBasis:
    """The known closed forms of the forbidden set S with Av(M(k,j,j-1)) =
    Av(S): plain M(k,2,2) for j = 2, one extra pattern for j = 3, three
    direct-sum extras for j = 4. Other j have no closed form here; use
    ``discover_basis``."""
    if j == 2:
        if k < 2:
            raise UsageError("j=2 needs k >= 2")
        return monotone_basis(k, 2, 2)
    if j == 3:
        if k < 2:
            raise UsageError("j=3 needs k >= 2")
        extra = (3, 1, 2) + tuple(range(4, k + 3))
        return basis_union(
            [monotone_basis(k, 3, 3), make_basis([extra])],
            label=f"M({k},3,3);{format_perm(extra)}",
        )
    if j == 4:
        if k < 3:
            raise UsageError("j=4 needs k >= 3")
        tail = identity(k - 2)
        extras = [
            direct_sum((1, 4, 2, 3), tail),
            direct_sum((4, 5, 1, 2, 3), tail),
            direct_sum((3, 5, 1, 2, 4), tail),
        ]
        label = ";".join([f"M({k},4,4)"] + [format_perm(q) for q in extras])
        return basis_union([monotone_basis(k, 4, 4), make_basis(extras)], label=label)
    raise UsageError(
        f"no explicit basis is known for j={j}; discover it empirically with discover_basis"
    )


@dataclass(frozen=True)
class BasisResult:
    """Empirical forbidden-pattern basis of the image of H up to max_len."""

    k: int
    j: int
    max_len: int
    discovered: PatternBasis
    predicted: PatternBasis | None
    matches_predicted: bool | None
    image_sizes: tuple[tuple[int, int], ...]

    def as_json_dict(self) -> dict:
        if self.matches_predicted is None:
            verdict = "discovered"
        elif self.matches_predicted:
            verdict = "matches-predicted"
        else:
            verdict = "prediction-mismatch"
        return {
            "verdict": verdict,
            "k": self.k,
            "j": self.j,
            "max_len": self.max_len,
            "discovered": [format_perm(q) for q in self.discovered],
            "predicted": None
            if self.predicted is None
            else [format_perm(q) for q in self.predicted],
            "image_sizes": [list(pair) for pair in self.image_sizes],
        }


def discover_basis(k: int, j: int, max_len: int, *, node_budget: int | None = None) -> BasisResult:
    """Compute the image of H length by length, confirm it is deletion
    closed, and collect its minimal non-members: permutations outside the
    image whose every single-entry deletion lies inside.

    The source is streamed through ``walk_avoiders`` and H's output-only
    kernel; image[n] is kept as live masks, {w without its maximum: the
    slots of that maximum}, like ``avoider_masks`` with the bits inverted.
    No sweep over all n! permutations: a minimal non-member q of length n
    has q without its maximum in image[n-1], so the candidates are the n
    insertions of a new maximum into each parent in image[n-1]. Deleting
    the parent's entry x (at position pos) from such a candidate leaves an
    insertion into the parent without x, so one key lookup in image[n-1]
    gives, lifted past pos, the slots whose deletion of x stays inside. The
    AND of those over x are the closed slots: closed members are counted by
    ``closed & live``, and ``closed & ~live`` are minimal non-members. The
    image is deletion closed iff its closed members number |image[n]|.

    A deletion-closure violation is a hard finding (it would contradict the
    image being an avoidance class) and raises VerificationFailure naming
    the least violating member and its least deletion outside image[n-1].
    """
    kernel = _enter("H", k, j).kernel
    if max_len > 9:
        raise UsageError(f"max_len is capped at 9, got {max_len}")
    image: list[dict[Perm, int]] = [{} for _ in range(max_len + 1)]

    def visit(p: Perm, _mask) -> None:
        w = kernel(p, k, j)[0]
        if w:  # H maps () to itself
            key, s = _split(w)
            level = image[len(w)]
            level[key] = level.get(key, 0) | 1 << s

    sizes = walk_avoiders(map_classes("H", k, j)[0], max_len, visit, node_budget=node_budget)
    for n in range(1, max_len + 1):
        sizes[n] = sum(live.bit_count() for live in image[n].values())
    def members(n: int):
        return _unpack(image[n], n) if n else [()][: sizes[0]]

    minimal: list[Perm] = []
    for n in range(1, max_len + 1):
        prev, here = image[n - 1], image[n]
        closed_members = 0
        for parent in members(n - 1):
            closed = (1 << n) - 1
            for pos, x in enumerate(parent):
                lower = prev.get(tuple([v - (v > x) for v in parent if v != x]), 0)
                # the shift of _grow's child masks: slots <= pos stay, slots >= pos move up
                closed &= (lower & ((1 << (pos + 1)) - 1)) | ((lower >> pos) << (pos + 1))
                if not closed:
                    break
            live = here.get(parent, 0)
            closed_members += (closed & live).bit_count()
            outside = closed & ~live
            while outside:
                low = outside & -outside
                outside ^= low
                s = low.bit_length() - 1
                minimal.append(parent[:s] + (n,) + parent[s:])
        if closed_members != sizes[n]:
            inside = set(members(n - 1))
            w = min(w for w in members(n) if not deletions(w) <= inside)
            d = min(deletions(w) - inside)
            raise VerificationFailure(
                f"image of H (k={k}, j={j}) is not deletion closed at "
                f"n={n}: {format_perm(w)} drops to the non-member "
                f"{format_perm(d)}",
                witness=w,
            )
    discovered = make_basis(minimal, label=f"discovered(k={k},j={j},len<={max_len})")
    predicted = None
    matches = None
    if j <= 4:
        predicted = construct_S_explicit(k, j)
        trimmed = make_basis(
            [q for q in predicted if len(q) <= max_len], label=predicted.label
        )
        matches = trimmed.as_set() == discovered.as_set()
    return BasisResult(
        k=k,
        j=j,
        max_len=max_len,
        discovered=discovered,
        predicted=predicted,
        matches_predicted=matches,
        image_sizes=tuple((n, sizes[n]) for n in range(max_len + 1)),
    )


# -- growth diagnostics -----------------------------------------------------


def distant_growth_bounds(k: int) -> tuple[float, float]:
    """Reference interval for the growth rate of any monotone distant class
    D(k,j) with an interior gap: [(k-1)^2, (k-1)^2 + 1]."""
    return (float((k - 1) ** 2), float((k - 1) ** 2 + 1))


@dataclass(frozen=True)
class GrowthDiagnostics:
    """Finite-n growth data: successive ratios and n-th roots of the counts.

    Ratios are exact rationals; roots carry 12 significant digits and are
    reproducible bit for bit from the counts. No convergence claim is made.
    """

    basis_label: str
    counts: CountSequence
    ratios: tuple[tuple[int, Fraction], ...]
    roots: tuple[tuple[int, str], ...]
    reference_bounds: tuple[float, float] | None

    def as_json_dict(self) -> dict:
        return {
            "class": self.basis_label,
            "note": "finite-n diagnostics",
            "counts": [list(pair) for pair in self.counts.counts],
            "ratios": [
                {"n": n, "ratio": f"{r.numerator}/{r.denominator}"} for n, r in self.ratios
            ],
            "roots": [{"n": n, "root": s} for n, s in self.roots],
            "reference_bounds": list(self.reference_bounds)
            if self.reference_bounds
            else None,
        }


def _nth_root_str(count: int, n: int) -> str:
    # Decimal keeps this reproducible across platforms; 12 significant digits.
    with localcontext() as ctx:
        ctx.prec = 30
        root = (Decimal(count).ln() / n).exp()
    return str(root.normalize(Context(prec=12)))


def growth_diagnostics(
    basis: PatternBasis,
    max_n: int,
    bounds: tuple[float, float] | None = None,
    *,
    parallel: bool = False,
    node_budget: int | None = None,
) -> GrowthDiagnostics:
    seq = count_sequence(max_n, basis, parallel=parallel, node_budget=node_budget)
    ratios = []
    roots = []
    prev = None
    for n, c in seq.counts:
        if prev is not None and prev > 0:
            ratios.append((n, Fraction(c, prev)))
        if n >= 1 and c > 0:
            roots.append((n, _nth_root_str(c, n)))
        prev = c
    return GrowthDiagnostics(
        basis_label=basis.label,
        counts=seq,
        ratios=tuple(ratios),
        roots=tuple(roots),
        reference_bounds=bounds,
    )


# -- the count sandwich around monotone distant classes ----------------------


@dataclass(frozen=True)
class SandwichReport:
    k: int
    j: int
    max_n: int
    rows: tuple[dict, ...]
    inclusions_checked_to: int

    def as_json_dict(self) -> dict:
        return {
            "verdict": "holds",
            "k": self.k,
            "j": self.j,
            "max_n": self.max_n,
            "rows": list(self.rows),
            "inclusions_checked_to": self.inclusions_checked_to,
            "witnesses": [],
        }


def sandwich_check(
    k: int, j: int, max_n: int, *, node_budget: int | None = None
) -> SandwichReport:
    """Verify |Av_n(12...k)| <= |Av_n(D(k,j))| <= |Av_n(M(k,j,j))| exactly for
    n <= max_n, and the set inclusions themselves for n <= min(max_n, 8).
    Raises VerificationFailure with a witness on any violation."""
    if not 2 <= j <= k:
        raise UsageError(f"j must be in 2..k, got j={j}, k={k}")
    mid = distant_monotone_basis(k, j)  # refuses a huge k before 12...k is built
    lower = make_basis([identity(k)], label=format_perm(identity(k)))
    upper = monotone_basis(k, j, j)
    lo_seq = count_sequence(max_n, lower, node_budget=node_budget)
    mid_seq = count_sequence(max_n, mid, node_budget=node_budget)
    up_seq = count_sequence(max_n, upper, node_budget=node_budget)
    rows = []
    for n in range(max_n + 1):
        a, b, c = lo_seq.count(n), mid_seq.count(n), up_seq.count(n)
        if not a <= b <= c:
            raise VerificationFailure(
                f"count sandwich fails at n={n} for k={k}, j={j}: {a}, {b}, {c}",
                witness=n,
            )
        rows.append({"n": n, "lower": a, "mid": b, "upper": c})
    incl_to = min(max_n, 8)
    lo_levels = levels_avoiders(lower, incl_to, node_budget=node_budget)
    mid_levels = levels_avoiders(mid, incl_to, node_budget=node_budget)
    up_levels = levels_avoiders(upper, incl_to, node_budget=node_budget)
    for n in range(incl_to + 1):
        bad = lo_levels[n] - mid_levels[n]
        if bad:
            raise VerificationFailure(
                f"set inclusion fails at n={n} for k={k}, j={j}: "
                f"{format_perm(min(bad))} avoids 12...k but not D({k},{j})",
                witness=min(bad),
            )
        bad = mid_levels[n] - up_levels[n]
        if bad:
            raise VerificationFailure(
                f"set inclusion fails at n={n} for k={k}, j={j}: "
                f"{format_perm(min(bad))} avoids D({k},{j}) but not M({k},{j},{j})",
                witness=min(bad),
            )
    return SandwichReport(k=k, j=j, max_n=max_n, rows=tuple(rows), inclusions_checked_to=incl_to)


# -- almost-distant survey (experiment) --------------------------------------


@dataclass(frozen=True)
class SurveyReport:
    """Empirical Wilf classes of all almost-distant variants of one pattern."""

    underlying: Perm
    max_n: int
    groups: tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]

    def as_json_dict(self) -> dict:
        return {
            "verdict": "experiment",
            "underlying": format_perm(self.underlying),
            "max_n": self.max_n,
            "groups": [
                {"counts": list(counts), "specs": [list(s) for s in specs]}
                for counts, specs in self.groups
            ],
        }


def survey_almost_distant(
    q_prime: Perm,
    max_n: int,
    *,
    parallel: bool = False,
    node_budget: int | None = None,
) -> SurveyReport:
    """Count Av_n for every (box position, removed value) variant of
    ``q_prime`` and group variants with identical sequences."""
    k = len(q_prime)
    if k < 1:
        raise UsageError("survey needs a nonempty underlying pattern")
    by_counts: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for j in range(1, k + 2):
        for i in range(1, k + 2):
            basis = expand_distant(q_prime, j, i)
            seq = count_sequence(max_n, basis, parallel=parallel, node_budget=node_budget)
            by_counts.setdefault(seq.values(), []).append((j, i))
    groups = sorted(
        ((counts, tuple(sorted(specs))) for counts, specs in by_counts.items()),
        key=lambda item: item[1],
    )
    return SurveyReport(underlying=q_prime, max_n=max_n, groups=tuple(groups))
