"""Permutations in one-line notation: containment, symmetries, and the
increasing-run tables behind every rank-capability question.

A permutation of length ``n`` is a tuple holding each of ``1..n`` exactly
once. Positions passed to and returned by functions in this package are
0-based Python indices; the text formats (and every serialized report built
on them) speak 1-based values and positions, matching one-line notation.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import UsageError

Perm = tuple[int, ...]

__all__ = [
    "Perm",
    "check_perm",
    "identity",
    "parse_perm",
    "format_perm",
    "deletions",
    "contains",
    "reverse_complement",
    "direct_sum",
    "lis_tables",
]


def check_perm(values: Iterable[int]) -> Perm:
    """Return ``values`` as a tuple after checking it permutes 1..n.

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    """
    p = tuple(values)
    n = len(p)
    if n == 0:
        return p
    seen = [False] * (n + 1)
    for v in p:
        if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= n or seen[v]:
            raise UsageError(f"not a permutation of 1..{n}: {p!r}")
        seen[v] = True
    return p


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def parse_perm(text: str) -> Perm:
    """Parse one-line notation.

    Accepts either a compact digit string ("82456173", only possible for
    n <= 9) or space-separated integers ("8 3 2 11 12 5 6 9 10 14 4 1 13 7").
    """
    s = text.strip()
    if not s:
        return ()
    if any(ch.isspace() for ch in s):
        try:
            values = [int(tok) for tok in s.split()]
        except ValueError:
            raise UsageError(f"bad permutation text: {text!r}") from None
    elif s.isdecimal():
        values = [int(ch) for ch in s]
    else:
        raise UsageError(f"bad permutation text: {text!r}")
    return check_perm(values)


def format_perm(p: Perm) -> str:
    """One-line text form: compact iff n <= 9, space-separated otherwise."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return " ".join(str(v) for v in p)


def deletions(p: Perm) -> set[Perm]:
    """The set of patterns obtained by deleting one entry of ``p``: drop a
    value x and lower every value above it by one, with no sort.

    >>> sorted(deletions((2, 3, 1)))
    [(1, 2), (2, 1)]
    """
    return {tuple([v - (v > x) for v in p if v != x]) for x in p}


@lru_cache(maxsize=4096)
def _bound_refs(q: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # For each pattern slot, the earlier slot holding its tightest lower /
    # upper value bound (-1 when unbounded).
    lo: list[int] = []
    hi: list[int] = []
    for t, qt in enumerate(q):
        lo_t = -1
        hi_t = -1
        for s in range(t):
            if q[s] < qt and (lo_t < 0 or q[s] > q[lo_t]):
                lo_t = s
            if q[s] > qt and (hi_t < 0 or q[s] < q[hi_t]):
                hi_t = s
        lo.append(lo_t)
        hi.append(hi_t)
    return tuple(lo), tuple(hi)


def contains(p: Perm, q: Perm) -> bool:
    """True iff some subsequence of ``p`` is order-isomorphic to ``q``.

    Depth-first matching with an earliest-feasible-position bound; worst case
    O(n^k), which is fine at desk scale and fully general.

    >>> contains((3, 2, 1), (1, 2))
    False
    >>> contains((8, 2, 4, 5, 6, 1, 7, 3), (1, 2, 3, 4, 5))
    True
    """
    k = len(q)
    if k == 0:
        return True
    n = len(p)
    if k > n:
        return False
    lo_ref, hi_ref = _bound_refs(q)
    vals = [0] * k
    big = n + 1

    def descend(t: int, start: int) -> bool:
        stop = n - (k - 1 - t)
        lo = vals[lo_ref[t]] if lo_ref[t] >= 0 else 0
        hi = vals[hi_ref[t]] if hi_ref[t] >= 0 else big
        last = t == k - 1
        for pos in range(start, stop):
            v = p[pos]
            if lo < v < hi:
                if last:
                    return True
                vals[t] = v
                if descend(t + 1, pos + 1):
                    return True
        return False

    return descend(0, 0)


def reverse_complement(p: Perm) -> Perm:
    """The involution p -> (n+1-p_n)(n+1-p_{n-1})...(n+1-p_1).

    >>> reverse_complement((2, 3, 1, 4))
    (1, 4, 2, 3)
    """
    n1 = len(p) + 1
    return tuple([n1 - v for v in reversed(p)])


def direct_sum(p: Perm, q: Perm) -> Perm:
    """Concatenate ``p`` with ``q`` shifted above p's values.

    >>> direct_sum((1, 4, 2, 3), (1, 2))
    (1, 4, 2, 3, 5, 6)
    """
    shift = len(p)
    return p + tuple(v + shift for v in q)


def _up_runs(p: Sequence[int]) -> list[int]:
    """The longest increasing run ending at each index, the index included,
    in the patience form: ``tails[r]`` is the least value that ends an
    increasing run of length r so far (``tails[0] = 0`` lies below every
    value), so the run ending at p[t] has length ``bisect_left(tails, p[t])``.

    >>> _up_runs((2, 3, 1, 4))
    [1, 2, 1, 3]
    """
    n = len(p)
    # n + 1 exceeds every value, so unfilled tails never count as smaller
    tails = [0] + [n + 1] * n
    up = []
    for v in p:
        r = bisect_left(tails, v)
        tails[r] = v
        up.append(r)
    return up


def lis_tables(p: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(up, down): longest increasing run ending / starting at each index.

    Both are inclusive of the index itself and come from ``_up_runs``, one
    pass per direction: ``down`` is ``up`` of the reverse-complement, read
    backwards.

    >>> lis_tables((2, 3, 1, 4))
    ((1, 2, 1, 3), (3, 2, 2, 1))
    """
    n1 = len(p) + 1
    down = _up_runs([n1 - v for v in reversed(p)])
    down.reverse()
    return tuple(_up_runs(p)), tuple(down)
