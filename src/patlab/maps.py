"""Structure-preserving maps between monotone almost-distant classes.

Three families of rearrangements, all driven by rank capability inside
occurrences of 12...k (an entry can act as rank r when an increasing run of
length r ends there and one of length k-r+1 starts there):

* ``map_F`` / ``invert_F``: move every rank-(i+1)-capable entry directly in
  front of its landing entry (the rightmost larger rank-(i+2) entry outside
  the moving set), ties placed in increasing order. A bijection from
  Av(M(k,i+1,i+1)) onto Av(M(k,i+2,i+2)).
* ``map_G`` and its inverse: reverse, for every entry that can act as a 2 but
  not a 1, the contiguous window of possible 1-partners in front of it. A
  bijection between Av(M(k,2,2)) and Av(M(k,2,1)).
* ``map_H``: the rank-j analogue of G's inverse, an injection from
  Av(M(k,j,j-1)) into Av(M(k,j,j)). The mirrored shortcut in the other
  direction fails (see ``naive_reverse_H``), which is exactly why the image
  of H is a proper avoidance class of its own.

``map_classes`` says which classes each map connects; the ``validate``
checks, map certification and basis discovery all read it.

Each construction has one body, an output-only kernel that checks nothing
and builds no record: ``_f_kernel`` returns F's output and its landing map,
``_finv_kernel`` Finv's output, and ``_window_kernel`` the output and the
reversal windows of G (both ways), H, ``naive_reverse_H`` and, through
reverse-complement, ``map_H_conjugate``. A kernel classifies ranks while it
scans: one left-to-right patience pass (``perms._up_runs``) gives ``up``,
and one right-to-left pass finds each position's ``down`` and sorts the
position into its role on the spot. A set difference of two ranks has an
exact form: capable for r but not for r-1 is up >= r and down == k-r+1,
capable for r but not for r+1 is up == r and down >= k-r+1. A kernel
returns its input unchanged when nothing moves. ``lis_tables`` is the
reference for the rank tables and the source of the report-only A and C
sets of ``role_sets``. The public maps wrap a kernel in the class checks
(``_enter``) and the ``MapResult`` (``_result``); certification and basis
discovery call the kernels directly.

Edge steps use virtual anchors: for i = 0 the moving entries return to the
very front, for i = k-1 they land at the very end. Anchors are never
permutation values.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

from .enumeration import avoids_basis
from .errors import DomainError, InternalCheckError, NotInImageError, UsageError
from .patterns import PatternBasis, monotone_basis
from .perms import Perm, _up_runs, format_perm, lis_tables, reverse_complement

__all__ = [
    "RoleSets",
    "MapResult",
    "map_classes",
    "role_sets",
    "map_F",
    "invert_F",
    "map_G",
    "map_H",
    "map_H_conjugate",
    "naive_reverse_H",
    "apply_named_map",
]


@dataclass(frozen=True)
class RoleSets:
    """The (A, B, C) index triple plus the landing map f for one F step.

    ``a_positions`` is None when i = 0 (start anchor) and ``c_positions`` is
    None when i = k-1 (end anchor). ``f_map`` pairs each B position with its
    landing C position, or None for the end anchor. Positions are 0-based.
    """

    perm: Perm
    k: int
    i: int
    b_positions: tuple[int, ...]
    a_positions: tuple[int, ...] | None
    c_positions: tuple[int, ...] | None
    f_map: tuple[tuple[int, int | None], ...]

    def as_json_dict(self) -> dict:
        def side(positions):
            if positions is None:
                return None
            return {
                "positions": [t + 1 for t in positions],
                "values": [self.perm[t] for t in positions],
            }

        return {
            "k": self.k,
            "i": self.i,
            "A": side(self.a_positions) or "start-anchor",
            "B": side(self.b_positions),
            "C": side(self.c_positions) or "end-anchor",
            "f": [
                {"from_value": self.perm[b], "to_value": "end" if c is None else self.perm[c]}
                for b, c in self.f_map
            ],
        }


@dataclass(frozen=True)
class MapResult:
    map_name: str
    k: int
    input: Perm
    output: Perm
    params: tuple[tuple[str, int | str], ...] = ()
    roles: RoleSets | None = None
    windows: tuple[tuple[int, int], ...] | None = None
    pre_checked: bool | None = None
    post_checked: bool | None = None

    def as_json_dict(self) -> dict:
        return {
            "map": self.map_name,
            "k": self.k,
            **{name: value for name, value in self.params},
            "input": format_perm(self.input),
            "output": format_perm(self.output),
            "windows_or_roles": self._windows_or_roles(),
            "class_checks": {"pre": self.pre_checked, "post": self.post_checked},
        }

    def _windows_or_roles(self):
        if self.windows is not None:
            return {
                "windows": [
                    {"start": s + 1, "end": e, "values": list(self.input[s:e])}
                    for s, e in self.windows
                ]
            }
        if self.roles is not None:
            return self.roles.as_json_dict()
        return None


# (j, i) of the source and the target class M(k,j,i) of each map, given the
# map's step index i (F, Finv) or rank j (H, Hrc, HnaiveInv) as x.
_CLASS_ARGS = {
    "F": lambda x: ((x + 1, x + 1), (x + 2, x + 2)),
    "Finv": lambda x: ((x + 2, x + 2), (x + 1, x + 1)),
    "G": lambda x: ((2, 2), (2, 1)),
    "Ginv": lambda x: ((2, 1), (2, 2)),
    "H": lambda x: ((x, x - 1), (x, x)),
    "Hrc": lambda x: ((x, x + 1), (x, x)),
    "HnaiveInv": lambda x: ((x, x), (x, x - 1)),
}


def map_classes(name: str, k: int, x: int | None = None) -> tuple[PatternBasis, PatternBasis]:
    """The (source, target) classes of the map called ``name`` in
    ``MapResult.map_name``, where ``x`` is its step index i (F, Finv) or its
    rank j (H, Hrc, HnaiveInv); G and Ginv take none.

    >>> [c.label for c in map_classes("H", 4, 3)]
    ['M(4,3,2)', 'M(4,3,3)']
    """
    if name not in _CLASS_ARGS:
        raise UsageError(f"unknown map {name!r} (expected one of {', '.join(_CLASS_ARGS)})")
    if x is None and name not in ("G", "Ginv"):
        raise UsageError(f"map {name} needs its step index or rank")
    source, target = _CLASS_ARGS[name](x)
    return monotone_basis(k, *source), monotone_basis(k, *target)


def _enter(name: str, p: Perm, k: int, x: int | None, validate: bool):
    """Check the step index i or rank j ``x`` of map ``name`` (G checks its
    own arguments) and, with ``validate``, that ``p`` lies in the source
    class. Returns the target class to check the output against, or None."""
    if name in ("F", "Finv"):
        if k < 1:
            raise UsageError(f"k must be >= 1, got {k}")
        if not 0 <= x <= k - 1:
            raise UsageError(f"step index i must be in 0..{k - 1}, got {x}")
    elif name not in ("G", "Ginv") and not 2 <= x <= k:
        raise UsageError(f"j must be in 2..k for this map, got j={x}, k={k}")
    if not validate:
        return None
    source, target = map_classes(name, k, x)
    if not avoids_basis(p, source):
        what = "required by this step" if name in ("F", "Finv") else "required by this map"
        raise DomainError(f"{format_perm(p) or 'empty'} is not in Av({source.label}); {what}")
    return target


def _result(
    name: str, p: Perm, k: int, output: Perm, params: tuple, target, roles=None, windows=None
) -> MapResult:
    """One application's report; ``target`` is None when the input went unchecked."""
    checked = target is not None
    return MapResult(
        map_name=name,
        k=k,
        input=p,
        output=output,
        params=params,
        roles=roles,
        windows=windows,
        pre_checked=True if checked else None,
        post_checked=avoids_basis(output, target) if checked else None,
    )


def _capable(up: tuple[int, ...], down: tuple[int, ...], k: int, r: int, skip=()) -> list[int]:
    """Positions outside ``skip`` that can act as rank r of 12...k, by ``lis_tables``."""
    need = k - r + 1
    return [t for t in range(len(up)) if up[t] >= r and down[t] >= need and t not in skip]


def _move(p: Perm, f) -> Perm:
    """Move every B entry of the landing map ``f`` directly before its
    landing entry (end anchor: to the end), ties in increasing order;
    everything else keeps its order."""
    moving = 0
    pending: dict[int | None, list[int]] = defaultdict(list)  # None: the end anchor
    for b, c in f:
        moving |= 1 << b
        pending[c].append(p[b])
    out: list[int] = []
    for t in range(len(p)):
        if moving >> t & 1:
            continue
        if t in pending:
            out.extend(sorted(pending[t]))
        out.append(p[t])
    out.extend(sorted(pending[None]))
    return tuple(out)


def _f_kernel(p: Perm, k: int, i: int):
    """F with no checks and no record: (output, landing map f).

    ``up`` comes first; one right-to-left patience pass then finds each
    position's ``down`` and sorts it on the spot. B (rank-(i+1)-capable) is
    up >= i+1 and down >= k-i; C (rank-(i+2)-capable, outside B) is exactly
    up >= i+2 and down == k-i-1. The landing entry of a B entry t is the
    first larger C entry met, so the rightmost larger one; it always lies
    right of t (see the raise). f pairs each B position, ascending, with its
    landing position (None for the end anchor, i = k-1, where no C exists)."""
    n = len(p)
    up = _up_runs(p)
    need = k - i
    tails = [0] + [n + 1] * n  # patience tails on the complemented values
    cs: list[int] = []
    f: list[tuple[int, int | None]] = []
    for t in range(n - 1, -1, -1):
        pt = p[t]
        v = n + 1 - pt
        d = bisect_left(tails, v)
        tails[d] = v
        if up[t] > i and d >= need:
            landing = None  # stays None for the end anchor
            for c in cs:
                if p[c] > pt:
                    landing = c
                    break
            if landing is None and i < k - 1:
                # unreachable: a longest increasing run from t has down values
                # down[t], ..., 1, and down[t] >= k-i > k-i-1 >= 1, so some later,
                # larger u on it has down[u] == k-i-1 and up[u] >= up[t]+1 >= i+2:
                # in C and met before t. Kept as a counterexample detector.
                raise InternalCheckError(
                    f"no landing entry above value {pt} in {format_perm(p)} "
                    f"(k={k}, i={i}); input violates the step's guarantees"
                )
            f.append((t, landing))
        elif up[t] > i + 1 and d == need - 1:
            cs.append(t)
    if not f:
        return p, f
    f.reverse()
    return _move(p, f), f


def role_sets(p: Perm, k: int, i: int, validate: bool = True) -> RoleSets:
    """Compute B (rank-(i+1)-capable), A (rank-i-capable outside B, or the
    start anchor for i = 0), C (rank-(i+2)-capable outside B, or the end
    anchor for i = k-1), and the landing map f."""
    _enter("F", p, k, i, validate)
    return _roles(p, k, i, _f_kernel(p, k, i)[1])


def _roles(p: Perm, k: int, i: int, f) -> RoleSets:
    """The ``RoleSets`` of one F step: B and f from ``_f_kernel``'s landing
    map ``f``, the report-only A and C from ``lis_tables``."""
    b = [t for t, _ in f]
    up, down = lis_tables(p)
    return RoleSets(
        perm=p,
        k=k,
        i=i,
        b_positions=tuple(b),
        a_positions=None if i == 0 else tuple(_capable(up, down, k, i, b)),
        c_positions=None if i == k - 1 else tuple(_capable(up, down, k, i + 2, b)),
        f_map=tuple(f),
    )


def map_F(p: Perm, k: int, i: int, validate: bool = True) -> MapResult:
    """Move every B entry directly before its landing entry (end anchor for
    i = k-1), ties in increasing order; everything else keeps its order."""
    target = _enter("F", p, k, i, validate)
    output, f = _f_kernel(p, k, i)
    return _result("F", p, k, output, (("i", i),), target, roles=_roles(p, k, i, f))


def _finv_kernel(w: Perm, k: int, i: int) -> Perm:
    """Finv with no checks and no record: the reconstructed preimage.

    One right-to-left patience pass after ``up`` sorts each position: A
    (rank-i-capable, outside B) is exactly up == i and down >= k-i+1, B
    (rank-(i+1)-capable) up >= i+1 and down >= k-i. Each B entry's partner
    is the leftmost earlier, smaller A entry (the start anchor for i = 0)."""
    n = len(w)
    up = _up_runs(w)
    need = k - i
    tails = [0] + [n + 1] * n  # patience tails on the complemented values
    a: list[int] = []
    b: list[int] = []
    for t in range(n - 1, -1, -1):
        v = n + 1 - w[t]
        d = bisect_left(tails, v)
        tails[d] = v
        if up[t] == i and d > need:
            a.append(t)
        elif up[t] > i and d >= need:
            b.append(t)
    if not b:
        return w
    a.reverse()
    moving = 0
    attach: dict[int, list[int]] = defaultdict(list)  # -1: the start anchor
    for t in b:
        partner = None if i else -1
        for cand in a:
            if cand >= t:
                break
            if w[cand] < w[t]:
                partner = cand
                break
        if partner is None:
            # unreachable: for i >= 1, a longest increasing run ending at t
            # has up values 1, ..., up[t] with up[t] >= i+1, so some earlier,
            # smaller s on it has up[s] == i and down[s] > down[t] >= k-i:
            # rank-i-capable, outside B, so in A and a partner. Kept as a
            # counterexample detector.
            raise NotInImageError(
                f"{format_perm(w)} is not in the image of the step "
                f"(k={k}, i={i}): value {w[t]} has no partner entry"
            )
        moving |= 1 << t
        attach[partner].append(w[t])
    out = sorted(attach[-1])
    for t in range(n):
        if moving >> t & 1:
            continue
        out.append(w[t])
        if t in attach:
            out.extend(sorted(attach[t]))
    return tuple(out)


def invert_F(w: Perm, k: int, i: int, validate: bool = True) -> MapResult:
    """Send every rank-(i+1)-capable entry of ``w`` back directly after its
    partner A entry (to the very front for i = 0), ties in increasing order.

    The partner is the leftmost A entry left of the moving entry with smaller
    value; when several qualify, only the leftmost can be the original
    neighbor, since any candidate further left would have qualified in the
    preimage as well and collide with the uniqueness of joint (i, i+1) roles
    there. With ``validate`` the reconstruction is confirmed by re-applying
    the forward map.
    """
    target = _enter("Finv", w, k, i, validate)
    output = _finv_kernel(w, k, i)
    if validate and _f_kernel(output, k, i)[0] != w:
        raise NotInImageError(
            f"{format_perm(w)} is not in the image of the step (k={k}, i={i}): "
            "reconstruction does not map back"
        )
    return _result("Finv", w, k, output, (("i", i),), target)


def _window_kernel(p: Perm, k: int, rank: int, exclude_lower: bool):
    """Reverse the window [h(a), a) in front of every anchor a, with no
    checks and no record: (output, windows).

    Anchors are the rank-capable entries, minus the (rank-1)-capable ones
    when ``exclude_lower``; one right-to-left patience pass after ``up``
    finds them: up >= rank and down >= k-rank+1, and with
    ``exclude_lower`` exactly down == k-rank+1. h(a) is the leftmost
    earlier, smaller entry with up >= rank-1, one that can act as rank-1
    toward the anchor. Windows must come out pairwise disjoint on class
    members; overlap means the input was outside the class.
    """
    n = len(p)
    up = _up_runs(p)
    need = k - rank + 1
    tails = [0] + [n + 1] * n  # patience tails on the complemented values
    windows: list[tuple[int, int]] = []
    for a in range(n - 1, -1, -1):
        pa = p[a]
        v = n + 1 - pa
        d = bisect_left(tails, v)
        tails[d] = v
        if up[a] >= rank and (d == need or d > need and not exclude_lower):
            for h in range(a):
                if p[h] < pa and up[h] >= rank - 1:
                    break
            else:
                # unreachable: up[a] >= rank >= 2, so a longest increasing run
                # ending at a has an earlier, smaller entry with up == up[a]-1
                # >= rank-1. Kept as a counterexample detector.
                raise InternalCheckError(
                    f"anchor value {pa} in {format_perm(p)} has no window start "
                    f"(k={k}, rank={rank}); input violates the map's guarantees"
                )
            windows.append((h, a))
    if not windows:
        return p, windows
    windows.sort()
    for (s1, e1), (s2, _) in zip(windows, windows[1:]):
        if e1 > s2:
            raise InternalCheckError(
                f"overlapping reversal windows in {format_perm(p)} "
                f"(k={k}, rank={rank}); input violates the map's guarantees"
            )
    out = list(p)
    for s, e in windows:
        out[s:e] = reversed(out[s:e])
    return tuple(out), windows


def _window_map(
    name: str, p: Perm, k: int, rank: int, exclude_lower: bool, params: tuple, validate: bool
) -> MapResult:
    """The window reversal of ``_window_kernel`` as map ``name``, with its
    checks and its record."""
    target = _enter(name, p, k, rank, validate)
    output, windows = _window_kernel(p, k, rank, exclude_lower)
    return _result(name, p, k, output, params, target, windows=tuple(windows))


def map_G(p: Perm, k: int, direction: str = "to_21", validate: bool = True) -> MapResult:
    """Reverse each anchor's window of possible 1-partners.

    ``to_21`` maps Av(M(k,2,2)) onto Av(M(k,2,1)); ``to_22`` is the inverse
    direction. Both directions run the identical construction; only the
    precondition differs (windows are increasing on one side, decreasing on
    the other).
    """
    if k < 2:
        raise UsageError(f"k must be >= 2 for this map, got {k}")
    if direction not in ("to_21", "to_22"):
        raise UsageError(f"direction must be to_21 or to_22, got {direction!r}")
    name = "G" if direction == "to_21" else "Ginv"
    return _window_map(name, p, k, 2, True, (("direction", direction),), validate)


def map_H(p: Perm, k: int, j: int, validate: bool = True) -> MapResult:
    """Reverse each rank-j anchor's window of possible (j-1)-partners:
    an injection from Av(M(k,j,j-1)) into Av(M(k,j,j))."""
    return _window_map("H", p, k, j, False, (("j", j),), validate)


def map_H_conjugate(p: Perm, k: int, j: int, validate: bool = True) -> MapResult:
    """The i = j+1 companion of ``map_H``: an injection from Av(M(k,j,j+1))
    into Av(M(k,j,j)), realized by conjugating H with reverse-complement."""
    target = _enter("Hrc", p, k, j, validate)
    inner, _ = _window_kernel(reverse_complement(p), k, k + 2 - j, False)
    return _result("Hrc", p, k, reverse_complement(inner), (("j", j),), target)


def naive_reverse_H(p: Perm, k: int, j: int, validate: bool = True) -> MapResult:
    """The would-be inverse of ``map_H``, mirroring its construction on
    Av(M(k,j,j)). It does not always land in Av(M(k,j,j-1)) for j > 2;
    kept as a diagnostic (312456 with k=4, j=3 is the classic escape)."""
    return _window_map("HnaiveInv", p, k, j, True, (("j", j),), validate)


def apply_named_map(
    name: str,
    p: Perm,
    k: int,
    *,
    i: int | None = None,
    j: int | None = None,
    validate: bool = True,
) -> MapResult:
    """Dispatch for the CLI-facing map names F, Finv, G, Ginv, H."""
    if name in ("G", "Ginv"):
        return map_G(p, k, "to_21" if name == "G" else "to_22", validate)
    if name not in ("F", "Finv", "H"):
        raise UsageError(f"unknown map {name!r} (expected F, Finv, G, Ginv, or H)")
    flag, x = ("j", j) if name == "H" else ("i", i)
    if x is None:
        raise UsageError(f"map {name} needs --{flag}")
    return {"F": map_F, "Finv": invert_F, "H": map_H}[name](p, k, x, validate)
