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

Each map is defined once, by its ``MapResult.map_name`` in the table
``_MAPS`` (F, Finv, G, Ginv, H, Hrc, HnaiveInv). An entry holds the name of
the map's parameter (the step index i, the rank j, or G's direction), the
(j, i) of its source and target classes M(k,j,i), its output-only kernel
and its inverse (None for the H family). ``map_classes`` builds the classes
from it, and ``_enter`` checks k and the parameter against it. ``_apply``
is the one place a kernel meets its class checks and its ``MapResult``:
every public map is ``_apply`` of its entry, and ``invert_F`` adds its
roundtrip check. Map certification (``verification.certify_map``) and
basis discovery take their argument checks, kernels and inverses from the
same table, so they and the CLI refuse the same arguments with the same
text.

Each construction has one body, an output-only kernel that checks nothing
and builds no record: ``_f_kernel`` returns F's output and its landing map,
and ``_window_kernel`` the output and the reversal windows of G (both
ways), H, ``naive_reverse_H`` and, through reverse-complement,
``map_H_conjugate``. Finv (``_finv_kernel``) is F of the mirrored step,
conjugated by reverse-complement the same way. A kernel classifies ranks
while it scans: one left-to-right patience pass (``perms._up_runs``) gives
``up``, and one right-to-left pass finds each position's ``down`` and sorts
the position into its role on the spot (``_scan`` for the A, B and C of an
F step, which ``role_sets`` reports). A set difference of two ranks has an
exact form: capable for r but not for r-1 is up >= r and down == k-r+1,
capable for r but not for r+1 is up == r and down >= k-r+1. A kernel
returns its input unchanged when nothing moves. ``perms.lis_tables`` is
only the tests' reference for the rank tables.

Edge steps use virtual anchors: for i = 0 the moving entries return to the
very front, for i = k-1 they land at the very end. Anchors are never
permutation values.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .enumeration import avoids_basis
from .errors import DomainError, InternalCheckError, NotInImageError, UsageError
from .patterns import PatternBasis, monotone_basis
from .perms import Perm, _up_runs, format_perm, reverse_complement

# Not called here since the kernels classify ranks in their own scans, but
# still imported: the benchmark's tracer wraps this name on this module.
from .perms import lis_tables  # noqa: F401

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


class _Map(NamedTuple):
    """One map, by its ``MapResult.map_name`` in ``_MAPS``."""

    param: str  # the parameter x's name: "i", "j" or "direction"
    classes: Callable  # x -> the (j, i) of the source and of the target class M(k,j,i)
    kernel: Callable  # (p, k, x) -> (output, landing map | windows | None), no checks
    inverse: str | None  # the inverse's map_name; None for the H family
    direction: str | None = None  # G's parameter, fixed by its map_name


# Each kernel is named inside a lambda, so it is looked up at call time: a
# kernel replaced on this module is the one the maps, certification and
# basis discovery all run.
_MAPS = {
    "F": _Map("i", lambda x: ((x + 1, x + 1), (x + 2, x + 2)),
              lambda p, k, x: _f_kernel(p, k, x), "Finv"),
    "Finv": _Map("i", lambda x: ((x + 2, x + 2), (x + 1, x + 1)),
                 lambda w, k, x: (_finv_kernel(w, k, x), None), "F"),
    # both directions of G are the same window reversal
    "G": _Map("direction", lambda x: ((2, 2), (2, 1)),
              lambda p, k, x: _window_kernel(p, k, 2, True), "Ginv", "to_21"),
    "Ginv": _Map("direction", lambda x: ((2, 1), (2, 2)),
                 lambda p, k, x: _window_kernel(p, k, 2, True), "G", "to_22"),
    "H": _Map("j", lambda x: ((x, x - 1), (x, x)),
              lambda p, k, x: _window_kernel(p, k, x, False), None),
    # H conjugated by reverse-complement, which turns rank j into rank k+2-j
    "Hrc": _Map("j", lambda x: ((x, x + 1), (x, x)), lambda p, k, x: (reverse_complement(
        _window_kernel(reverse_complement(p), k, k + 2 - x, False)[0]), None), None),
    "HnaiveInv": _Map("j", lambda x: ((x, x), (x, x - 1)),
                      lambda p, k, x: _window_kernel(p, k, x, True), None),
}


def map_classes(name: str, k: int, x: int | None = None) -> tuple[PatternBasis, PatternBasis]:
    """The (source, target) classes of the map called ``name`` in
    ``MapResult.map_name``, where ``x`` is its step index i (F, Finv) or its
    rank j (H, Hrc, HnaiveInv); G and Ginv take none.

    >>> [c.label for c in map_classes("H", 4, 3)]
    ['M(4,3,2)', 'M(4,3,3)']
    """
    if name not in _MAPS:
        raise UsageError(f"unknown map {name!r} (expected one of {', '.join(_MAPS)})")
    if x is None and _MAPS[name].param != "direction":
        raise UsageError(f"map {name} needs its step index or rank")
    source, target = _MAPS[name].classes(x)
    return monotone_basis(k, *source), monotone_basis(k, *target)


def _param(name: str, i: int | None, j: int | None):
    """The parameter of map ``name`` from a caller's ``i`` and ``j``: the one
    its entry names, or G's fixed direction."""
    spec = _MAPS[name]
    x = spec.direction or (i if spec.param == "i" else j)
    if x is None:
        raise UsageError(f"map {name} needs --{spec.param}")
    return x


def _enter(name: str, k: int, x) -> _Map:
    """Check ``k`` and the parameter ``x`` of map ``name`` against its
    entry, and return the entry."""
    spec = _MAPS[name]
    if spec.param == "i":
        if k < 1:
            raise UsageError(f"k must be >= 1, got {k}")
        if not 0 <= x <= k - 1:
            raise UsageError(f"step index i must be in 0..{k - 1}, got {x}")
    elif spec.param == "j":
        if not 2 <= x <= k:
            raise UsageError(f"j must be in 2..k, got j={x}, k={k}")
    elif k < 2:
        raise UsageError(f"k must be >= 2 for this map, got {k}")
    elif x != spec.direction:
        raise UsageError(f"direction must be to_21 or to_22, got {x!r}")
    return spec


def _apply(name: str, p: Perm, k: int, x, validate: bool) -> MapResult:
    """One application of map ``name``: with ``validate``, ``p`` checked
    against the source class and the output against the target; the record
    holds the F step's roles, read off its landing map, or the windows."""
    spec = _enter(name, k, x)
    if validate:
        source, target = map_classes(name, k, x)
        if not avoids_basis(p, source):
            what = "required by this step" if spec.param == "i" else "required by this map"
            raise DomainError(f"{format_perm(p) or 'empty'} is not in Av({source.label}); {what}")
    output, extra = spec.kernel(p, k, x)
    landing = extra is not None and spec.param == "i"
    return MapResult(
        map_name=name,
        k=k,
        input=p,
        output=output,
        params=((spec.param, x),),
        roles=_roles(p, k, x, extra) if landing else None,
        windows=None if extra is None or landing else tuple(extra),
        pre_checked=True if validate else None,
        post_checked=avoids_basis(output, target) if validate else None,
    )


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


def _scan(p: Perm, k: int, i: int) -> tuple[list[int], list[int], list[int]]:
    """The positions of A, B and C of one F step, each list right to left.

    ``up`` comes first; one right-to-left patience pass then finds each
    position's ``down`` and sorts it on the spot. B (rank-(i+1)-capable) is
    up >= i+1 and down >= k-i; A (rank-i-capable, outside B) is exactly
    up == i and down >= k-i+1; C (rank-(i+2)-capable, outside B) is exactly
    up >= i+2 and down == k-i-1. A is empty for i = 0 and C for i = k-1."""
    n = len(p)
    up = _up_runs(p)
    need = k - i
    tails = [0] + [n + 1] * n  # patience tails on the complemented values
    a: list[int] = []
    b: list[int] = []
    c: list[int] = []
    for t in range(n - 1, -1, -1):
        v = n + 1 - p[t]
        d = bisect_left(tails, v)
        tails[d] = v
        if up[t] > i and d >= need:
            b.append(t)
        elif up[t] > i + 1 and d == need - 1:
            c.append(t)
        elif up[t] == i and d > need:
            a.append(t)
    return a, b, c


def _f_kernel(p: Perm, k: int, i: int):
    """F with no checks and no record: (output, landing map f).

    The landing entry of a B entry t is the rightmost larger C entry, the
    first larger one in ``_scan``'s order; it always lies right of t (see
    the raise). f pairs each B position, ascending, with its landing
    position (None for the end anchor, i = k-1, where C is empty)."""
    _, b, cs = _scan(p, k, i)
    f: list[tuple[int, int | None]] = []
    for t in reversed(b):
        pt = p[t]
        for c in cs:
            if p[c] > pt:
                break
        else:
            if i < k - 1:
                # unreachable: a longest increasing run from t has down values
                # down[t], ..., 1, and down[t] >= k-i > k-i-1 >= 1, so some later,
                # larger u on it has down[u] == k-i-1 and up[u] >= up[t]+1 >= i+2:
                # in C, so the rightmost larger C entry exists and lies at or
                # right of u. Kept as a counterexample detector.
                raise InternalCheckError(
                    f"no landing entry above value {pt} in {format_perm(p)} "
                    f"(k={k}, i={i}); input violates the step's guarantees"
                )
            c = None  # the end anchor
        f.append((t, c))
    if not f:
        return p, f
    return _move(p, f), f


def role_sets(p: Perm, k: int, i: int, validate: bool = True) -> RoleSets:
    """Compute B (rank-(i+1)-capable), A (rank-i-capable outside B, or the
    start anchor for i = 0), C (rank-(i+2)-capable outside B, or the end
    anchor for i = k-1), and the landing map f."""
    return map_F(p, k, i, validate).roles


def _roles(p: Perm, k: int, i: int, f) -> RoleSets:
    """The ``RoleSets`` of one F step: A, B and C from ``_scan``, the
    landing map ``f`` from ``_f_kernel``."""
    a, b, c = _scan(p, k, i)
    return RoleSets(
        perm=p,
        k=k,
        i=i,
        b_positions=tuple(reversed(b)),
        a_positions=None if i == 0 else tuple(reversed(a)),
        c_positions=None if i == k - 1 else tuple(reversed(c)),
        f_map=tuple(f),
    )


def map_F(p: Perm, k: int, i: int, validate: bool = True) -> MapResult:
    """Move every B entry directly before its landing entry (end anchor for
    i = k-1), ties in increasing order; everything else keeps its order."""
    return _apply("F", p, k, i, validate)


def _finv_kernel(w: Perm, k: int, i: int) -> Perm:
    """Finv with no checks and no record: the reconstructed preimage.

    Reverse-complement sends rank r to rank k+1-r, so it turns step i's A
    and B into step k-1-i's C and B, a partner (the leftmost earlier,
    smaller A entry) into a landing (the rightmost later, larger C entry),
    "right after" into "right before" and the start anchor into the end
    anchor, and keeps ties increasing: Finv of step i is F of step k-1-i
    conjugated by reverse-complement."""
    return reverse_complement(_f_kernel(reverse_complement(w), k, k - 1 - i)[0])


def invert_F(w: Perm, k: int, i: int, validate: bool = True) -> MapResult:
    """Send every rank-(i+1)-capable entry of ``w`` back directly after its
    partner A entry (to the very front for i = 0), ties in increasing order.

    The partner is the leftmost A entry left of the moving entry with smaller
    value; when several qualify, only the leftmost can be the original
    neighbor, since any candidate further left would have qualified in the
    preimage as well and collide with the uniqueness of joint (i, i+1) roles
    there. ``_finv_kernel`` computes it as F of step k-1-i conjugated by
    reverse-complement. With ``validate`` the reconstruction is confirmed by
    re-applying the forward map.
    """
    result = _apply("Finv", w, k, i, validate)
    if validate and _f_kernel(result.output, k, i)[0] != w:
        raise NotInImageError(
            f"{format_perm(w)} is not in the image of the step (k={k}, i={i}): "
            "reconstruction does not map back"
        )
    return result


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


def map_G(p: Perm, k: int, direction: str = "to_21", validate: bool = True) -> MapResult:
    """Reverse each anchor's window of possible 1-partners.

    ``to_21`` maps Av(M(k,2,2)) onto Av(M(k,2,1)); ``to_22`` is the inverse
    direction. Both directions run the identical construction; only the
    precondition differs (windows are increasing on one side, decreasing on
    the other).
    """
    return _apply("G" if direction == "to_21" else "Ginv", p, k, direction, validate)


def map_H(p: Perm, k: int, j: int, validate: bool = True) -> MapResult:
    """Reverse each rank-j anchor's window of possible (j-1)-partners:
    an injection from Av(M(k,j,j-1)) into Av(M(k,j,j))."""
    return _apply("H", p, k, j, validate)


def map_H_conjugate(p: Perm, k: int, j: int, validate: bool = True) -> MapResult:
    """The i = j+1 companion of ``map_H``: an injection from Av(M(k,j,j+1))
    into Av(M(k,j,j)), realized by conjugating H with reverse-complement."""
    return _apply("Hrc", p, k, j, validate)


def naive_reverse_H(p: Perm, k: int, j: int, validate: bool = True) -> MapResult:
    """The would-be inverse of ``map_H``, mirroring its construction on
    Av(M(k,j,j)). It does not always land in Av(M(k,j,j-1)) for j > 2;
    kept as a diagnostic (312456 with k=4, j=3 is the classic escape)."""
    return _apply("HnaiveInv", p, k, j, validate)


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
    if name not in ("F", "Finv", "G", "Ginv", "H"):
        raise UsageError(f"unknown map {name!r} (expected F, Finv, G, Ginv, or H)")
    x = _param(name, i, j)
    if name == "Finv":
        return invert_F(p, k, x, validate)
    return _apply(name, p, k, x, validate)
