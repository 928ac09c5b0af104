"""Shared fixtures: independent oracles and cached class enumerations.

The oracles here deliberately reimplement containment and rank capability
from scratch (combinations / chain search) so tests never trust the code
paths they check.
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from patlab import count_sequence, levels_avoiders, lis_tables, map_H, monotone_basis

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
