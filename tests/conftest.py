"""Shared fixtures: independent oracles and cached class enumerations.

The oracles here deliberately reimplement containment and rank capability
from scratch (combinations / chain search) so tests never trust the code
paths they check.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from patlab import count_sequence, levels_avoiders, lis_tables, map_H, monotone_basis
from patlab.errors import InternalCheckError, NotInImageError

settings.register_profile(
    "patlab",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("patlab")


# -- hypothesis strategies ---------------------------------------------------


def perms(max_n: int, min_n: int = 0):
    """Random one-line permutations with length between min_n and max_n."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


# -- independent oracles -----------------------------------------------------


def oracle_pattern_of(values):
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


def oracle_contains(p, q):
    k = len(q)
    if k == 0:
        return True
    if k > len(p):
        return False
    return any(oracle_pattern_of(sub) == q for sub in combinations(p, k))


def oracle_avoids_basis(p, patterns):
    return all(not oracle_contains(p, q) for q in patterns)


def oracle_rank_marks(p, k):
    """All (position, rank) pairs realized by occurrences of 12...k in p,
    found by explicit chain extension."""
    n = len(p)
    marks = set()

    def extend(chain):
        depth = len(chain)
        if depth == k:
            marks.update((pos, r + 1) for r, pos in enumerate(chain))
            return
        start = chain[-1] + 1 if chain else 0
        floor = p[chain[-1]] if chain else 0
        for t in range(start, n - (k - depth) + 1):
            if p[t] > floor:
                chain.append(t)
                extend(chain)
                chain.pop()

    extend([])
    return marks


def _partitions(n: int, largest: int):
    """The partitions of n into parts <= largest, parts in decreasing order."""
    if not n:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


@functools.cache
def oracle_monotone_count(n: int, k: int) -> int:
    """|Av_n(12...k)| for k >= 1 without the generating tree: by RSK, the sum
    of (f^lam)^2 over the partitions lam of n with every part <= k - 1 (the
    longest increasing subsequence is the first row), where the hook-length
    formula gives f^lam = n! / (the product of lam's hook lengths)."""
    total = 0
    for lam in _partitions(n, k - 1):
        cols = [sum(part > c for part in lam) for c in range(lam[0])] if lam else []
        hooks = math.prod(
            (part - c) + (cols[c] - r) - 1 for r, part in enumerate(lam) for c in range(part)
        )
        total += (math.factorial(n) // hooks) ** 2
    return total


def oracle_lis_tables(p):
    """(up, down) by the O(n^2) dynamic program: the longest increasing run
    ending at t extends the longest one ending at a smaller earlier value,
    and the run starting at t the longest one starting at a larger later
    value."""
    n = len(p)
    up = [1] * n
    for t in range(n):
        up[t] = 1 + max((up[s] for s in range(t) if p[s] < p[t]), default=0)
    down = [1] * n
    for t in range(n - 1, -1, -1):
        down[t] = 1 + max((down[s] for s in range(t + 1, n) if p[s] > p[t]), default=0)
    return tuple(up), tuple(down)


def oracle_discover_basis(k, j, max_len):
    """The image of H by length and its minimal non-members, found the slow
    way: every permutation of each length is tested, and its deletions come
    from ``oracle_pattern_of``. Returns (minimal non-members, image sizes)."""
    levels = levels_avoiders(monotone_basis(k, j, j - 1), max_len)
    image = {}
    minimal = set()
    for n in range(max_len + 1):
        image[n] = {map_H(p, k, j).output for p in levels[n]}
        for q in permutations(range(1, n + 1)):
            drops = {oracle_pattern_of(q[:t] + q[t + 1 :]) for t in range(n)}
            inside = not n or drops <= image[n - 1]
            if q in image[n]:
                assert inside, f"image of H not deletion closed at {q}"
            elif inside:
                minimal.add(q)
    return minimal, tuple((n, len(image[n])) for n in range(max_len + 1))


# -- reference map kernels ---------------------------------------------------
#
# One reference per output-only kernel in ``patlab.maps``, by the definitions
# on the rank tables of ``oracle_lis_tables``: an entry is capable for rank r
# iff up >= r and down >= k-r+1, and every role set is a set difference of
# those. Each returns what its kernel returns, or raises the same error class.


def _capable_set(tables, k, r):
    need = k - r + 1
    return {t for t, (u, d) in enumerate(zip(*tables)) if u >= r and d >= need}


def _ordered(p, keys):
    """The values of ``p`` sorted by the key of their position."""
    return tuple(p[t] for t in sorted(range(len(p)), key=keys.__getitem__))


def reference_f(p, k, i, tables):
    """(output, landing map) of F: each B entry lands before the rightmost
    larger C entry (the end anchor for i = k-1), ties by value."""
    b = _capable_set(tables, k, i + 1)
    c = None if i == k - 1 else _capable_set(tables, k, i + 2) - b
    f = []
    for t in sorted(b):
        larger = [u for u in c or () if p[u] > p[t]]
        if c is not None and not larger:
            raise InternalCheckError(f"no landing entry above {p[t]}")
        f.append((t, max(larger) if larger else None))
    keys = {t: (t, 1, 0) for t in range(len(p))}
    keys.update((t, (len(p) if u is None else u, 0, p[t])) for t, u in f)
    return _ordered(p, keys), f


def reference_roles(p, k, i, tables):
    """(A, B, C, f) of ``role_sets``: B is capable for i+1, A for i and C for
    i+2, both outside B (None for the start and the end anchor), each as
    ascending positions, and f as ``reference_f``."""
    b = _capable_set(tables, k, i + 1)
    a = None if i == 0 else tuple(sorted(_capable_set(tables, k, i) - b))
    c = None if i == k - 1 else tuple(sorted(_capable_set(tables, k, i + 2) - b))
    return a, tuple(sorted(b)), c, tuple(reference_f(p, k, i, tables)[1])


def reference_finv(w, k, i, tables):
    """Finv's output: each B entry goes right after its partner, the leftmost
    earlier, smaller A entry (the front for i = 0), ties by value."""
    b = _capable_set(tables, k, i + 1)
    a = _capable_set(tables, k, i) - b if i else set()
    keys = {t: (t, 0, 0) for t in range(len(w))}
    for t in b:
        partners = [s for s in a if s < t and w[s] < w[t]]
        if i and not partners:
            raise NotInImageError(f"no partner for {w[t]}")
        keys[t] = (min(partners) if i else -1, 1, w[t])
    return _ordered(w, keys)


def reference_window(p, k, rank, exclude_lower, tables):
    """(output, windows) of the window reversal: each anchor's window starts
    at the leftmost earlier, smaller entry with up >= rank-1."""
    up = tables[0]
    anchors = _capable_set(tables, k, rank)
    if exclude_lower:
        anchors -= _capable_set(tables, k, rank - 1)
    windows = []
    for a in anchors:
        starts = [h for h in range(a) if p[h] < p[a] and up[h] >= rank - 1]
        if not starts:
            raise InternalCheckError(f"no window start for {p[a]}")
        windows.append((min(starts), a))
    windows.sort()
    if any(e1 > s2 for (_, e1), (s2, _) in zip(windows, windows[1:])):
        raise InternalCheckError("overlapping windows")
    out = list(p)
    for s, e in windows:
        out[s:e] = reversed(out[s:e])
    return tuple(out), windows


def capable_values(p, k, r):
    """Sorted values of ``p`` that can act as rank r of an occurrence of
    12...k, read off ``lis_tables`` (checked against ``oracle_rank_marks``
    in test_perms and criterion 11c)."""
    up, down = lis_tables(p)
    return tuple(sorted(v for v, u, d in zip(p, up, down) if u >= r and d >= k - r + 1))


# -- cached enumerations of the monotone classes -----------------------------

_level_cache: dict[tuple[int, int, int], tuple[int, dict[int, frozenset]]] = {}


def monotone_members(k: int, j: int, i: int, max_n: int) -> dict[int, frozenset]:
    """Avoider sets of M(k,j,i) for every length <= max_n, cached so deeper
    requests refresh shallower ones."""
    key = (k, j, i)
    cached = _level_cache.get(key)
    if cached is None or cached[0] < max_n:
        levels = levels_avoiders(monotone_basis(k, j, i), max_n)
        frozen = {n: frozenset(s) for n, s in levels.items()}
        _level_cache[key] = (max_n, frozen)
        cached = _level_cache[key]
    return {n: s for n, s in cached[1].items() if n <= max_n}


@functools.cache
def monotone_counts(k: int, j: int, i: int, max_n: int) -> tuple[int, ...]:
    key = (k, j, i)
    cached = _level_cache.get(key)
    if cached is not None and cached[0] >= max_n:
        return tuple(len(cached[1][n]) for n in range(max_n + 1))
    return count_sequence(max_n, monotone_basis(k, j, i)).values()


# -- reference kill search ---------------------------------------------------


def reference_new_kills(p, live, patterns):
    """The generating-tree kernel's kill step by its occurrence search alone:
    every occurrence of q'' (q without its maximum and q' = q without its
    maximum, then without that) is listed and scattered to the live slots
    s0 it serves, killing the child slots between the child positions of q'
    indices m-1 and m. Entry s0 is the new dead-slot mask of the child with
    the maximum at slot s0; a child's mask is the parent's, shifted past s0,
    OR this entry."""
    n = len(p)
    new, pos, vals, stops = [0] * (n + 1), [0] * n, [0] * n, [0] * n

    def scatter():
        # None stands for s0 itself; a is -1 when m = 0, b is n + 1 when m is last
        a = -1 if not m else None if m - 1 == m2 else pos[m - 1] if m - 1 < m2 else pos[m - 2] + 1
        b = n + 1 if m > kq else None if m == m2 else pos[m] if m < m2 else pos[m - 1] + 1
        for s0 in range(pos[m2 - 1] + 1 if m2 else 0, (pos[m2] if m2 < kq else n) + 1):
            if live >> s0 & 1:
                lo = s0 if a is None else a
                hi = s0 if b is None else b
                new[s0] |= ((1 << (hi + 1)) - 1) ^ ((1 << (lo + 1)) - 1)

    def place(t, start):
        if t in gaps:
            after = live >> start << start
            if not after:
                return
            start = (after & -after).bit_length() - 1
        r = lo_ref[t]
        lo = vals[r] if r >= 0 else 0
        r = hi_ref[t]
        hi = vals[r] if r >= 0 else n + 1
        for x in range(start, stops[t]):
            v = p[x]
            if lo < v < hi:
                pos[t] = x
                if t + 1 == kq:
                    scatter()
                else:
                    vals[t] = v
                    place(t + 1, x + 1)

    top = live.bit_length() - 1
    for q in patterns:
        k = len(q)
        if k < 2:
            continue
        m = q.index(k)
        q1 = q[:m] + q[m + 1 :]
        m2 = q1.index(k - 1)
        q2 = q1[:m2] + q1[m2 + 1 :]
        kq = k - 2
        if kq > n:
            continue
        # the value bounds of each q'' index: the nearest earlier index below
        # and above it (-1 when none)
        lo_ref = [max((s for s in range(t) if q2[s] < q2[t]), key=q2.__getitem__, default=-1)
                  for t in range(kq)]
        hi_ref = [min((s for s in range(t) if q2[s] > q2[t]), key=q2.__getitem__, default=-1)
                  for t in range(kq)]
        gaps = {m2, m - 1 if m2 < m - 1 else m if m < m2 else m2}
        stop = n + 1
        for t in range(kq - 1, -1, -1):
            stop = min(stop - 1, top) if t + 1 in gaps else stop - 1
            stops[t] = stop
        if kq:
            place(0, 0)
        else:
            scatter()
    return new
