"""Exact verification machinery: Wilf-equivalence checks, map certification
over fully enumerated classes, explicit and empirical forbidden-pattern
bases for the image of H, growth diagnostics, and the almost-distant survey.

Everything here is exact integer computation over finite ranges. Growth
numbers are finite-n diagnostics only: limits are out of reach at desk scale
and no verdict is ever attached to them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .enumeration import (
    CountSequence,
    _NodeBudget,
    _walk,
    avoider_masks,
    avoids_basis,
    count_sequence,
    levels_avoiders,
)
from .errors import UsageError, VerificationFailure
from .maps import _MAPS, _enter, _free_below, _param, map_classes

# Not called here since certification runs the kernels of the map table, but
# still imported: the benchmark's tracer wraps these names on this module.
from .maps import invert_F, map_F, map_G, map_H  # noqa: F401
from .patterns import (
    PatternBasis,
    distant_monotone_basis,
    expand_distant,
    make_basis,
    monotone_basis,
)
from .perms import Perm, deletions, direct_sum, format_perm, identity

if TYPE_CHECKING:
    from fractions import Fraction

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


class WilfReport(NamedTuple):
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


class CertifyReport(NamedTuple):
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


def _walk_rank_free(source, k: int, max_n: int, family, node_budget) -> list[int]:
    """Walk ``source`` to length max_n, returning its sizes: one call
    ``family(p, live, bound)`` per member p shorter than max_n, whose child
    with a new maximum at a slot s set in ``live`` has no 12...k iff s <
    bound (k >= 1); a true return cuts those children.

    The walk visits in depth-first preorder: the parent of a member p of
    length n (p without its maximum) is the last member of length n-1
    visited before it. So p is free iff its parent is and the slot of its
    maximum lies below the parent's ``maps._free_below``, kept per length
    for the last member visited (0 when it is not free). Only free members
    with children make that patience pass."""
    below = [0] * max_n

    def rank_free(p: Perm, live: int) -> bool:
        n = len(p)
        free = p.index(n) < below[n - 1] if n else True
        below[n] = _free_below(p, k) if free and live else 0
        return family(p, live, below[n])

    return _walk(source, max_n, _NodeBudget(node_budget), rank_free)


def _unpack(bits: dict[Perm, int], n: int):
    """The permutations of length n whose bits are set in ``bits``."""
    for key, live in bits.items():
        while live:
            low = live & -live
            live ^= low
            s = low.bit_length() - 1
            yield key[:s] + (n,) + key[s:]


def _closed_slots(prev: dict[Perm, int], n: int):
    """(u, closed) for each member u of length n-1 >= 1 in ``prev`` (live
    masks) with closed slots s: u with n at s has every deletion of an entry
    of u in prev. A sibling u is a key K with n-1 at a slot t. Deleting n-1
    leaves K, at the siblings' slots; deleting K's entry x leaves K without x
    with n-2 at slot t-1 if x lies left of t, else at t, read from an index
    once for all of K's siblings. Each is lifted past x's position in u as
    ``_grow`` shifts its child masks: slots <= pos stay, slots >= pos move up."""
    index: dict[Perm, dict[int, int]] = {}  # J -> {slot of J's maximum: mask of J}
    for key, live in prev.items() if n > 2 else ():
        sub, t = _split(key)
        index.setdefault(sub, {})[t] = live
    for key, siblings in prev.items():
        drops = [index.get(tuple([v - (v > x) for v in key if v != x])) for x in key]
        if None in drops:  # some deletion leaves prev at every slot
            continue
        live = siblings
        while live:
            low = live & -live
            live ^= low
            t = low.bit_length() - 1
            closed = (siblings & ((2 << t) - 1)) | ((siblings >> t) << (t + 1))
            for i, slots in enumerate(drops):
                pos, lower = (i, slots.get(t - 1, 0)) if i < t else (i + 1, slots.get(t, 0))
                closed &= (lower & ((2 << pos) - 1)) | ((lower >> pos) << (pos + 1))
                if not closed:
                    break
            else:
                yield key[:t] + (n - 1,) + key[t:], closed


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

    The source is then streamed through ``_walk_rank_free``, every member
    with its siblings under their parent (the root () on its own); the
    map's output-only kernel (from the map table in ``maps``) runs once at
    each member, the inverse right after it, and neither makes the patience
    pass when the walk says the member has no 12...k. No level of either
    class is kept as a set. Each image sets one hit bit keyed the same way,
    above the dead slots of its key in the target masks. An image equal to
    its member is keyed by the tree (key the parent, slot the child's), and
    the parent's hit bits are OR-ed in once, after one collision test. A
    key the target lacks enters with all its slots dead, so its images go
    to the pattern search and it adds no target member. A hit bit found set
    is a collision, and the image sizes are popcounts. The counterexample
    is the one a sorted sweep meets first: at the least length with a
    violation, the least input whose image leaves the target or fails the
    roundtrip (the image check first), else the collision."""
    if map_name not in ("F", "G", "H"):
        raise UsageError(f"cannot certify map {map_name!r} (expected F, G, or H)")
    x = _param(map_name, i, j)
    spec = _enter(map_name, k, x)
    kernel, backward = spec.kernel, spec.inverse and _MAPS[spec.inverse].kernel
    source, target = map_classes(map_name, k, x)
    masks = avoider_masks(target, max_n, node_budget=node_budget)
    escaped = [False] * (max_n + 1)
    unrecovered = [False] * (max_n + 1)
    collided = [False] * (max_n + 1)
    least: list = [None] * (max_n + 1)  # per length: (input, counterexample)

    def place(w: Perm) -> tuple[int, int]:
        # set w's hit bit, above the n slots of its key's mask (all dead off the target)
        n = len(w)
        if not n:
            return 1, 0  # () has no key: its slot reads dead
        key, s = _split(w)
        dead = masks.setdefault(key, (1 << n) - 1)
        if dead >> (s + n) & 1:
            collided[n] = True
        masks[key] = dead | 1 << (s + n)
        return dead, s

    def check(p: Perm, w: Perm, back: Perm, dead: int, s: int) -> None:
        # the membership bit, slot s of the image's key mask, then the
        # roundtrip: ``back`` is the inverse's output (p without an inverse)
        n = len(p)
        reason = None
        if dead >> s & 1 and not avoids_basis(w, target):
            escaped[n] = True
            reason = "image leaves the target class"
        if back != p:
            unrecovered[n] = True
            reason = reason or "roundtrip failed"
        if reason is not None and (least[n] is None or p < least[n][0]):
            bad = {"n": n, "reason": reason, "input": format_perm(p), "output": format_perm(w)}
            if reason == "roundtrip failed":
                bad["recovered"] = format_perm(back)
            least[n] = (p, bad)

    def family(p: Perm, live: int, bound: int) -> None:
        n = len(p) + 1
        dead, hits = masks.get(p, (1 << n) - 1), 0
        for s in range(n):
            if not live >> s & 1:
                continue
            child = p[:s] + (n,) + p[s:]
            free = s < bound
            w = kernel(child, k, x, free)[0]
            back = child if backward is None else backward(w, k, x, free and w == child)[0]
            if w != child:
                check(child, w, back, *place(w))
                continue
            hits |= 1 << s  # keyed by the tree: key p, slot s
            if dead >> s & 1 or back != child:
                check(child, w, back, dead, s)
        if hits:
            dead = masks.setdefault(p, dead)
            if dead >> n & hits:
                collided[n] = True
            masks[p] = dead | hits << n

    src_sizes = _walk_rank_free(source, k, max_n, family, node_budget)
    if src_sizes[0]:  # the root has no parent to take it
        w = kernel((), k, x, True)[0]
        check((), w, () if backward is None else backward(w, k, x, w == ())[0], *place(w))
    tgt_sizes = [int(avoids_basis((), target))] + [0] * max_n
    image_sizes = src_sizes[:1] + [0] * max_n  # () has one image, itself
    for key, bits in masks.items():
        n1 = len(key) + 1
        tgt_sizes[n1] += (~bits & ((1 << n1) - 1)).bit_count()
        image_sizes[n1] += (bits >> n1).bit_count()
    rows: list[dict] = []
    counterexample: dict | None = None
    for n in range(max_n + 1):
        if counterexample is None and least[n] is not None:
            counterexample = least[n][1]
        elif counterexample is None and collided[n]:
            counterexample = {"n": n, "reason": "two inputs share an output"}
        rows.append(
            {
                "n": n,
                "source_size": src_sizes[n],
                "target_size": tgt_sizes[n],
                "image_size": image_sizes[n],
                "image_in_target": not escaped[n],
                "injective": not collided[n],
                "surjective": image_sizes[n] == tgt_sizes[n],
                "roundtrip_ok": None if backward is None else not unrecovered[n],
            }
        )
    # there is a counterexample iff some length has an escape, a failed roundtrip or a collision
    certified = counterexample is None and (backward is None or image_sizes == tgt_sizes)
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


# T_j, for each j with a closed form of S: its extras are sigma (+) 12...(k-j+2)
_T = {2: (), 3: ((3, 1, 2),), 4: ((1, 4, 2, 3), (4, 5, 1, 2, 3), (3, 5, 1, 2, 4))}


def construct_S_explicit(k: int, j: int) -> PatternBasis:
    """The known closed forms of the forbidden set S with Av(M(k,j,j-1)) =
    Av(S): M(k,j,j) plus sigma (+) 12...(k-j+2) for each sigma in T_j, a set
    that does not depend on k (``_T``): T_2 is empty, T_3 = {312} and T_4 =
    {1423, 45123, 35124}. The label lists M(k,j,j), then the extras in T_j's
    order. Other j have no closed form here; use ``discover_basis``."""
    if j not in _T:
        raise UsageError(
            f"no explicit basis is known for j={j}; discover it empirically with discover_basis"
        )
    if k < max(2, j - 1):
        raise UsageError(f"j={j} needs k >= {max(2, j - 1)}")
    diagonal = monotone_basis(k, j, j)  # refuses a huge k before any extra is built
    extras = [direct_sum(sigma, identity(k - j + 2)) for sigma in _T[j]]
    label = ";".join([diagonal.label] + [format_perm(q) for q in extras])
    return make_basis([*diagonal, *extras], label=label)


class BasisResult(NamedTuple):
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

    The source is streamed through ``_walk_rank_free``, every member with
    its siblings under their parent, and H's output-only kernel; image[n]
    is kept as live masks, {w without its maximum: the slots of that
    maximum}, like ``avoider_masks`` with the bits inverted. An image equal
    to its member takes its key and slot from the tree, the parent and the
    slot of the child, and the parent's bits are OR-ed in once.
    No sweep over all n! permutations: a minimal non-member q of length n
    has q without its maximum in image[n-1], so the candidates are the n
    insertions of a new maximum into each parent in image[n-1]. Deleting
    the parent's entry x from such a candidate leaves an insertion into the
    parent without x; ``_closed_slots`` reads the slots where it stays in
    image[n-1] off an index, and ANDs them over x into the closed slots:
    closed members are counted by ``closed & live``, and ``closed & ~live``
    are minimal non-members. The image is deletion closed iff its closed
    members number |image[n]|.

    A deletion-closure violation is a hard finding (it would contradict the
    image being an avoidance class) and raises VerificationFailure naming
    the least violating member and its least deletion outside image[n-1].
    """
    kernel = _enter("H", k, j).kernel
    if max_len > 9:
        raise UsageError(f"max_len is capped at 9, got {max_len}")
    image: list[dict[Perm, int]] = [{} for _ in range(max_len + 1)]

    def family(p: Perm, live: int, bound: int) -> None:
        n, hits = len(p) + 1, 0
        for s in range(n):
            if live >> s & 1:
                child = p[:s] + (n,) + p[s:]
                w = kernel(child, k, j, s < bound)[0]
                if w == child:  # keyed by the tree: key p, slot s
                    hits |= 1 << s
                else:
                    key, t = _split(w)
                    image[n][key] = image[n].get(key, 0) | 1 << t
        if hits:
            image[n][p] = image[n].get(p, 0) | hits

    sizes = _walk_rank_free(map_classes("H", k, j)[0], k, max_len, family, node_budget)
    for n in range(1, max_len + 1):
        sizes[n] = sum(live.bit_count() for live in image[n].values())
    def members(n: int):
        return _unpack(image[n], n) if n else [()][: sizes[0]]

    minimal: list[Perm] = []
    for n in range(1, max_len + 1):
        here, closed_members = image[n], 0
        # the empty member's one candidate, (1), has no entry of it to delete
        for parent, closed in _closed_slots(image[n - 1], n) if n > 1 else [((), 1)][: sizes[0]]:
            live = here.get(parent, 0)
            closed_members += (closed & live).bit_count()
            if outside := closed & ~live:
                minimal.extend(_unpack({parent: outside}, n))
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
    predicted = construct_S_explicit(k, j) if j in _T else None
    matches = None if predicted is None else (
        {q for q in predicted if len(q) <= max_len} == discovered.as_set())
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
    D(k,j) with an interior gap: [(k-1)^2, (k-1)^2 + 1]. An end gap counts
    exactly: p avoids D(k,1) iff p after its first entry avoids 12...k, so
    |Av_n(D(k,1))| = |Av_n(D(k,k+1))| = n |Av_{n-1}(12...k)| for n >= 1,
    whose growth is (k-1)^2, the interval's lower end."""
    return (float((k - 1) ** 2), float((k - 1) ** 2 + 1))


class GrowthDiagnostics(NamedTuple):
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
    from decimal import Context, Decimal  # only growth loads decimal and fractions

    ctx = Context(prec=30)
    return str(ctx.exp(ctx.divide(ctx.ln(Decimal(count)), n)).normalize(Context(prec=12)))


def growth_diagnostics(
    basis: PatternBasis,
    max_n: int,
    bounds: tuple[float, float] | None = None,
    *,
    parallel: bool = False,
    node_budget: int | None = None,
) -> GrowthDiagnostics:
    from fractions import Fraction

    seq = count_sequence(max_n, basis, parallel=parallel, node_budget=node_budget)
    pairs = zip(seq.counts, seq.counts[1:])
    return GrowthDiagnostics(
        basis_label=basis.label,
        counts=seq,
        ratios=tuple((n, Fraction(c, prev)) for (_, prev), (n, c) in pairs if prev > 0),
        roots=tuple((n, _nth_root_str(c, n)) for n, c in seq.counts if n >= 1 and c > 0),
        reference_bounds=bounds,
    )


# -- the count sandwich around monotone distant classes ----------------------


class SandwichReport(NamedTuple):
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
    # the chain of (basis, name) links, each class inside the next
    chain = [
        (make_basis([identity(k)], label=format_perm(identity(k))), "12...k"),
        (mid, f"D({k},{j})"),
        (monotone_basis(k, j, j), f"M({k},{j},{j})"),
    ]
    seqs = [count_sequence(max_n, basis, node_budget=node_budget) for basis, _ in chain]
    rows = []
    for n in range(max_n + 1):
        counts = [seq.count(n) for seq in seqs]
        if any(a > b for a, b in zip(counts, counts[1:])):
            raise VerificationFailure(
                f"count sandwich fails at n={n} for k={k}, j={j}: "
                + ", ".join(map(str, counts)),
                witness=n,
            )
        rows.append({"n": n, **dict(zip(("lower", "mid", "upper"), counts))})
    incl_to = min(max_n, 8)
    levels = [(levels_avoiders(b, incl_to, node_budget=node_budget), name) for b, name in chain]
    for n in range(incl_to + 1):
        for (inner, name), (outer, wider) in zip(levels, levels[1:]):
            bad = inner[n] - outer[n]
            if bad:
                raise VerificationFailure(
                    f"set inclusion fails at n={n} for k={k}, j={j}: "
                    f"{format_perm(min(bad))} avoids {name} but not {wider}",
                    witness=min(bad),
                )
    return SandwichReport(k=k, j=j, max_n=max_n, rows=tuple(rows), inclusions_checked_to=incl_to)


# -- almost-distant survey (experiment) --------------------------------------


class SurveyReport(NamedTuple):
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
