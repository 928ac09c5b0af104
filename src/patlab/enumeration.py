"""Exact enumeration of Av_n(Q) for finite classical bases Q.

The engine is a depth-first generating tree: children of an avoider arise by
inserting the new maximum n+1 at one of the n+1 slots (slot s puts it before
position s). Soundness rests on deletion closure: removing the maximum from
an avoider leaves an avoider.

Every node carries an int bitmask of its dead slots, the slots whose
insertion would create a basis pattern. For a basis pattern q, let q' be q
without its maximum. Inserting a maximum at slot s of an avoider creates q
exactly when some occurrence of q' straddles s: the entries left of q's
maximum lie before the slot, the rest at or after it. An occurrence therefore
kills the slot range (a, b], where a is the position of the entry just left
of q's maximum (-1 if none) and b the position of the entry just right of it
(the length if none). A child keeps its parent's dead slots, shifted past the
inserted maximum; the only new ones come from occurrences of q' that use the
new maximum, which must play the maximum of q'. Without it they are the
occurrences of q'' (q' without its maximum) in the parent, which do not
depend on the slot. Each parent takes one kill step per basis pattern, and
the last two levels are counted from masks without building a permutation.
For a fixed slot, the kill ranges with at most one end at an entry of q''
share the other end, so their union is one range, set by the extremum of the
free end; for q'' of length 3 one sweep over the parent finds it for every
slot (``_sweep``), and ORs up the ranges with both ends at adjacent entries
of a 123 or 321 shape too. Other entries search for every occurrence and
scatter each to the live slots it serves. The brute-force filter is the
oracle this answers to.

Counting mode never materializes permutations. A walk may take a private
hook ``family(p, live)``, called once on every avoider p shorter than the
last length, in depth-first preorder, with the live slots of p's children
(``_grow``). ``levels_avoiders`` builds the avoiders of every length from
it; ``avoider_masks`` keeps the masks of every avoider below the last
length, which answer membership at the last length by one bit each; and
certification and basis discovery take each parent's children at once.
Parallel counting is a fork-join: the subtrees cut at a fixed depth are
dealt in strided shares, the parent counts one share (and any no child
takes), each other share goes to a forked child that sends its counts back
through its own pipe, and nothing else is shared. Each share spends its own
copy of the node budget; as every avoider costs one node, the join refuses
summed counts over the limit, as the sequential walk would.
"""

from __future__ import annotations

import os
import signal
import sys
from itertools import permutations
from typing import BinaryIO, NamedTuple

from .errors import BudgetExceededError, InternalCheckError, UsageError
from .patterns import PatternBasis
from .perms import Perm, _bound_refs, contains

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "BRUTE_FORCE_CAP",
    "CountSequence",
    "avoids_basis",
    "levels_avoiders",
    "avoider_masks",
    "count_sequence",
    "brute_force_avoiders",
    "brute_force_counts",
]

DEFAULT_NODE_BUDGET = 10**8
BRUTE_FORCE_CAP = 9

_PARALLEL_SPLIT_DEPTH = 6
_PARALLEL_MIN_N = 8
_EXHAUSTED = b"budget\n"  # a child's answer when its copy of the budget ran out


class CountSequence(NamedTuple):
    """(n, |Av_n(Q)|) pairs with provenance; counts are exact ints."""

    basis_label: str
    counts: tuple[tuple[int, int], ...]
    method: str  # "pruned_tree" | "brute_force"

    def count(self, n: int) -> int:
        for m, c in self.counts:
            if m == n:
                return c
        raise UsageError(f"no count recorded for n={n}")

    def values(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.counts)


def avoids_basis(p: Perm, basis: PatternBasis) -> bool:
    """True iff ``p`` avoids every pattern in the basis."""
    return all(not contains(p, q) for q in basis.patterns)


def _budget_exhausted(limit: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"node budget of {limit} exhausted; the request is beyond "
        "desk scale (raise it with --budget or PATLAB_BUDGET)"
    )


class _NodeBudget:
    __slots__ = ("remaining", "limit")

    def __init__(self, node_budget: int | None):
        self.remaining = self.limit = DEFAULT_NODE_BUDGET if node_budget is None else node_budget

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise _budget_exhausted(self.limit)


# -- the generating-tree kernel ---------------------------------------------


def _kind(kq: int, m: int, m2: int) -> str | None:
    """Which end of the kill range (a, b] an occurrence of q'' sets, named by
    the one q'' index it reads; None when both ends are entries of q''.

    - "A" (-1, pos[0]]: m = 0 < m2, so the largest pos[0] wins;
    - "B" (pos[m2-1], s0]: m = m2 >= 1, the least pos[m2-1];
    - "C" (s0, pos[m2] + 1]: m = m2 + 1 <= kq, the largest pos[m2];
    - "D" (pos[kq-1] + 1, n + 1]: m = kq + 1 > m2 + 1, the least pos[kq-1];
    - "E" (s0, n + 1] or (-1, s0]: no end depends on the occurrence."""
    if m < m2:
        return None if m else "A"
    if m == m2:
        return "B" if m else "E"
    if m == m2 + 1:
        return "E" if m > kq else "C"
    return "D" if m > kq else None


def _kill_table(patterns) -> tuple[tuple, ...]:
    """One entry ``(len q'', m, m2, lo_ref, hi_ref, gaps, sweep)`` per basis
    pattern q of length >= 2, where q' is q without its maximum and q'' is q'
    without its maximum, m and m2 are the positions of the maxima of q and q',
    and the refs are the value bounds of q''.

    Each entry's method is fixed here. ``sweep`` is None for the occurrence
    search (``_search``). For a q'' of length 3 whose kill range has one
    free end (``_kind``), or whose middle entry has the middle value and
    whose kill range is (pos[0], pos[1]] ("01") or (pos[1], pos[2]] ("12")
    at m2 = 3, it is ``_sweep``'s last argument: ``(kind, scalar, path,
    own, far, d, largest, flip0, flip2, joint)``. ``scalar`` marks the kinds
    one number per parent settles, ``path`` names the reduction of the
    others, and the kill rule's side(s0) holds low(s0) when ``own``, top
    when ``far``; d is 1 for C and D, 0 for A and B, None for E; ``largest``
    marks A and C, whose best end is the largest. ``flip0`` is -1 when q''s
    first entry lies below its middle one (else 0), ``flip2`` -1 when its
    last lies below it; ``joint`` is 0 when the middle entry has the middle
    value, else the sign of last minus first. An entry that reads one outer
    entry of q'' while the other outer entry bounds the served slots (A at
    m2 >= 2, D at m2 <= 1) keeps the search when joint != 0."""
    table = []
    for q in patterns:
        k = len(q)
        if k < 2:
            continue
        m = q.index(k)
        q1 = q[:m] + q[m + 1 :]
        m2 = q1.index(k - 1)
        q2 = q1[:m2] + q1[m2 + 1 :]
        # U is in gaps when (pos[U-1], pos[U]] must hold a live slot of p:
        # the slots an occurrence serves, and its kill range when both ends
        # are entries of q'' (a range of dead slots adds nothing)
        gaps = frozenset((m2, m - 1 if m2 < m - 1 else m if m < m2 else m2))
        kind = _kind(k - 2, m, m2)
        sweep = None
        if k == 5:
            u0, u1, u2 = q2
            joint = 0 if u1 == 2 else 1 if u0 < u2 else -1
            if kind is None and m2 == 3 and not joint:
                kind = "01" if m == 1 else "12"  # (pos[0], pos[1]] or (pos[1], pos[2]]
            if kind is not None and (
                not joint or not (kind == "A" and m2 > 1 or kind == "D" and m2 < 2)
            ):
                scalar = kind == "E" or kind == "B" and m2 == 3 or kind == "C" and not m2
                inner = "pick" if (kind in "AB") == (m2 == 1) else "per-y"
                path = None if scalar else "bucket" if m2 in (0, 3) else inner
                own, far = kind in "BCE", kind == "D" or kind == "E" and m2 > 0
                d, largest = None if kind == "E" else int(kind in "CD"), kind in "AC"
                sweep = (kind, scalar, path, own, far, d, largest, -(u0 < u1), -(u2 < u1), joint)
        table.append((k - 2, m, m2, *_bound_refs(q2), gaps, sweep))
    return tuple(table)


def _search(p: Perm, live: int, new: list, kq, m, m2, lo_ref, hi_ref, gaps) -> None:
    """Add one kill-table entry's kills to ``new`` by listing the occurrences
    of q'' in p. An occurrence at positions ``pos`` serves every live s0 in
    (pos[m2-1], pos[m2]], taking pos[-1] = -1 and pos[len q''] = len(p). It
    kills the child slots (a, b]: the child positions of q' indices m-1 and
    m, each s0 (index m2) or an entry of ``pos``, one place right when past
    s0."""
    n = len(p)
    pos, vals, stops = [0] * n, [0] * n, [0] * n

    def scatter() -> None:
        # None stands for s0 itself; a is -1 when m = 0, b is n + 1 when m is last
        a = -1 if not m else None if m - 1 == m2 else pos[m - 1] if m - 1 < m2 else pos[m - 2] + 1
        b = n + 1 if m > kq else None if m == m2 else pos[m] if m < m2 else pos[m - 1] + 1
        for s0 in range(pos[m2 - 1] + 1 if m2 else 0, (pos[m2] if m2 < kq else n) + 1):
            if live >> s0 & 1:
                lo = s0 if a is None else a
                hi = s0 if b is None else b
                new[s0] |= ((1 << (hi + 1)) - 1) ^ ((1 << (lo + 1)) - 1)

    def place(t: int, start: int) -> None:
        # q'' index t goes at a position in [start, stops[t]); when t is in
        # gaps, at or right of the first live slot from start on
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

    # index t leaves room for the indices after it, and a live slot right
    # of it when t + 1 is in gaps
    top = live.bit_length() - 1
    stop = n + 1
    for t in range(kq - 1, -1, -1):
        stop = min(stop - 1, top) if t + 1 in gaps else stop - 1
        stops[t] = stop
    if kq:
        place(0, 0)
    else:
        scatter()


def _sweep(p: Perm, live: int, new: list, above: list, m2: int, sweep: tuple) -> None:
    """Add one kill-table entry's kills to ``new`` by one sweep over p;
    ``sweep`` is the entry's argument tuple (``_kill_table``).

    For a fixed live slot s0, every occurrence of q'' serving s0 kills a
    range with the same fixed end, so their union is one range, set by the
    best other end (``_kind``). Each y is tried as q''s middle entry: bit
    masks x0 and x2 hold the positions that complete an occurrence through y
    as its first and its last entry (``above[v]`` holds the positions of the
    values above v), which serves the slots [0, x0], (x0, y], (y, x2] or
    (x2, n] as m2 is 0..3.

    One rule writes a range with one free end: side(s0) ^ low(end + d), with
    low(x) = (2 << x) - 1 the child slots <= x and side(s0) 0 (A), low(s0)
    (B, C) or top = low(n + 1) (D); E has no end, and kills low(s0) or
    top ^ low(s0). Off the last or first bit of a mask x, low(end + d) is
    (1 << x.bit_length() + d) - 1 or ((x & -x) << d + 1) - 1. Four paths:

    - scalar: the first end (m2 = 3) or the last start (m2 = 0) of any
      occurrence settles every slot.
    - bucket: at m2 = 3 a y serves every slot past its least x2, so its
      range (A, "01"; for "12" each x2's (y, x2], with the least y
      completing it) is bucketed at the slot it counts from and OR-ed up; so
      is D's at m2 = 0, from y's last x0 down. x0 and x2 range independently
      there, as the middle value lies between.
    - pick (A, B at m2 = 1; C, D at m2 = 2): the end is an x0 of any y at or
      right of s0, or an x2 of any y left of it: the last or first bit of
      the union of those masks, cut to s0's side.
    - per-y (the rest): the end is y or an extreme of y's masks, and each
      slot keeps the best over the y serving it."""
    kind, scalar, path, own, far, d, largest, flip0, flip2, joint = sweep
    n = len(p)
    full, top = (1 << n) - 1, (1 << (n + 2)) - 1
    first = scalar and m2  # the first end: no y at or past it can lower it
    e = n if m2 else -1
    if not scalar:
        xs0, xs2 = [0] * n, [0] * n
    seen = 1 << p[0]  # the values left of y, then up to y
    for y in range(1, n - 1):
        if first and y + 1 >= e:
            break
        v = p[y]
        left, seen = seen, seen | 1 << v
        # a flip of -1 turns the positions above v into those below it
        x0 = (above[v] ^ flip0) & ((1 << y) - 1)
        if not x0:
            continue
        x2 = ((above[v] ^ flip2) & full) >> (y + 1) << (y + 1)
        if not x2:
            continue
        if joint:
            # both outer entries lie on one side of v: keep the positions
            # the other side's extreme value still completes
            side = (1 << v) - 1 if flip0 else ~((2 << v) - 1)
            left, right = left & side, ((2 << n) - 2 ^ seen) & side
            if joint > 0:  # the first entry below the last
                lo, hi = (left & -left).bit_length() - 1, right.bit_length() - 1
                x0, x2 = x0 & (full ^ above[hi - 1]), x2 & above[lo]
            else:
                lo, hi = (right & -right).bit_length() - 1, left.bit_length() - 1
                x0, x2 = x0 & above[lo], x2 & (full ^ above[hi - 1])
            if lo > hi:
                continue
        if not scalar:
            xs0[y], xs2[y] = x0, x2
        elif m2:
            e = min(e, (x2 & -x2).bit_length() - 1)
        else:
            e = max(e, x0.bit_length() - 1)
    if scalar:  # one end e for every served slot: B (e, s0], C (s0, e + 1]; E has none
        fixed = (top if far else 0) if d is None else (2 << e + d) - 1
        slots = live >> (e + 1) << (e + 1) if m2 else live & ((1 << (e + 1)) - 1)
        while slots:
            low = slots & -slots
            slots ^= low
            new[low.bit_length() - 1] |= ((low << 1) - 1) ^ fixed
        return
    far = top if far else 0
    if path == "bucket":
        at, taken = [0] * (n + 1), 0
        for y in range(1, n - 1):
            x0, x2 = xs0[y], xs2[y]
            if not x0:
                continue
            if kind == "01":  # (min x0, y] from the first x2 on
                at[(x2 & -x2).bit_length()] |= ((2 << y) - 1) ^ (((x0 & -x0) << 1) - 1)
            elif kind == "12":  # (y, x2] from x2 on, for the first y completing each x2
                fresh, taken = x2 & ~taken, taken | x2
                while fresh:
                    low = fresh & -fresh
                    fresh ^= low
                    at[low.bit_length()] |= ((low << 1) - 1) ^ ((2 << y) - 1)
            elif m2:  # A: (-1, max x0] from the first x2 on
                at[(x2 & -x2).bit_length()] |= (1 << x0.bit_length() + d) - 1
            else:  # D: (min x2 + 1, n + 1] up to the last x0
                at[x0.bit_length() - 1] |= far ^ (((x2 & -x2) << d + 1) - 1)
        run = 0
        for s0 in range(1, n + 1) if m2 else range(n - 1, -1, -1):
            run |= at[s0]
            if run and live >> s0 & 1:
                new[s0] |= run
        return
    if path == "pick":  # the last or first bit of the masks of every y across s0
        after = m2 - 1  # D, C: the x2 of every y left of s0; A, B: the x0 of y >= s0
        xs, union = xs2 if after else xs0, 0
        for s0 in range(2, n) if after else range(n - 2, 0, -1):
            union |= xs[s0 - after]
            near = union >> s0 << s0 if after else union & ((1 << s0) - 1)
            if near and live >> s0 & 1:
                low = (1 << near.bit_length() + d) - 1 if largest else ((near & -near) << d + 1) - 1
                new[s0] |= (far ^ (2 << s0) - 1 if own else far) ^ low
        return
    best = [None] * (n + 1)  # per-y: y serves (y, max x2] or (min x0, y]
    for y in range(1, n - 1):
        x0, x2 = xs0[y], xs2[y]
        if not x0:
            continue
        if m2 == 2:
            lo, hi = y, x2.bit_length() - 1
            end = y if kind == "B" else x0.bit_length() - 1
        else:
            lo, hi = (x0 & -x0).bit_length() - 1, y
            end = y if kind == "C" else (x2 & -x2).bit_length() - 1
        for s0 in range(lo + 1, hi + 1):
            if best[s0] is None or (end > best[s0] if largest else end < best[s0]):
                best[s0] = end
    for s0, end in enumerate(best):
        if end is not None and live >> s0 & 1:
            new[s0] |= (far ^ (2 << s0) - 1 if own else far) ^ ((2 << end + d) - 1)


def _new_kills(p: Perm, live: int, table) -> list[int]:
    """The new dead slots of each child of ``p``: entry s0 is the mask of
    child slots killed by a maximum inserted at live slot s0, the union over
    the kill table's entries of ``_sweep`` or ``_search``. A sweep may also
    kill slots that are dead in p already, which the search skips; the child
    masks, each the parent's shifted past s0 OR entry s0, are the same."""
    n = len(p)
    new = [0] * (n + 1)
    above = None
    for kq, m, m2, lo_ref, hi_ref, gaps, sweep in table:
        if kq > n:
            continue
        if sweep is None:
            _search(p, live, new, kq, m, m2, lo_ref, hi_ref, gaps)
            continue
        if above is None:
            # above[v]: the positions of p holding a value above v, a
            # running OR of each value's position bit from value n down
            above = [0] * (n + 1)
            for x, v in enumerate(p):
                above[v - 1] = 1 << x
            for v in range(n - 2, -1, -1):
                above[v] |= above[v + 1]
        _sweep(p, live, new, above, m2, sweep)
    return new


def _grow(p: Perm, dead: int, table, max_n: int, counts: list, budget, family=None) -> None:
    """Add every strict descendant of ``p`` (dead slots ``dead``) of length
    <= max_n to ``counts`` by length, charging one budget unit per node.

    One ``_new_kills`` call gives the new dead slots of all of p's children.
    ``family``, when given, is called as ``family(p, live)`` with the live
    slots of p's children before they are counted; a true return cuts them.
    Without it a child one below max_n is never built: its live slots are
    counted."""
    n1 = len(p) + 1
    live = ~dead & ((1 << n1) - 1)
    if family is not None and family(p, live):
        return
    found = live.bit_count()
    counts[n1] += found
    budget.spend(found)
    if n1 == max_n:
        return
    new = _new_kills(p, live, table)
    last = family is None and n1 + 1 == max_n
    grand = 0
    for s0 in range(n1):
        if dead >> s0 & 1:
            continue
        # parent slot t <= s0 is child slot t, and t >= s0 is child slot t + 1
        mask = (dead & ((1 << (s0 + 1)) - 1)) | ((dead >> s0) << (s0 + 1)) | new[s0]
        if last:
            grand += n1 + 1 - mask.bit_count()
        else:
            _grow(p[:s0] + (n1,) + p[s0:], mask, table, max_n, counts, budget, family)
    if grand:
        counts[max_n] += grand
        budget.spend(grand)


def _walk(basis: PatternBasis, max_n: int, budget, family=None) -> list[int]:
    """Run the kernel from the root (); counts of avoiders by length. The
    hook ``family`` (see ``_grow``) sees every avoider shorter than max_n."""
    if max_n < 0:
        raise UsageError(f"max_n must be >= 0, got {max_n}")
    counts = [0] * (max_n + 1)
    if any(len(q) == 0 for q in basis.patterns):
        return counts
    # the root's one slot is dead iff a pattern of length 1 forbids everything
    dead = int(any(len(q) == 1 for q in basis.patterns))
    counts[0] = 1
    budget.spend()
    if max_n:
        _grow((), dead, _kill_table(basis.patterns), max_n, counts, budget, family)
    return counts


def levels_avoiders(
    basis: PatternBasis, max_n: int, *, node_budget: int | None = None
) -> dict[int, set[Perm]]:
    """All avoiders for every length 0..max_n from a single traversal."""
    out: dict[int, set[Perm]] = {n: set() for n in range(max_n + 1)}

    def family(p: Perm, live: int) -> None:
        n1 = len(p) + 1
        out[n1].update(p[:s] + (n1,) + p[s:] for s in range(n1) if live >> s & 1)

    if _walk(basis, max_n, _NodeBudget(node_budget), family)[0]:
        out[0].add(())
    return out


def avoider_masks(
    basis: PatternBasis, max_n: int, *, node_budget: int | None = None
) -> dict[Perm, int]:
    """The dead-slot mask of every avoider shorter than ``max_n``.

    A permutation w of length n in 1..max_n avoids the basis iff w without
    its maximum is a key and slot ``w.index(n)`` is live in that key's mask,
    so |Av_n| is the number of live slots over the keys of length n - 1.
    Length max_n itself is never built."""
    masks: dict[Perm, int] = {}

    def family(p: Perm, live: int) -> bool:
        masks[p] = live ^ ((1 << (len(p) + 1)) - 1)
        return len(p) == max_n - 1

    if max_n:  # a negative max_n is refused by the walk
        _walk(basis, max_n, _NodeBudget(node_budget), family)
    return masks


def count_sequence(
    max_n: int, basis: PatternBasis, *, parallel: bool = False, node_budget: int | None = None
) -> CountSequence:
    """Counts of Av_n(Q) for n = 0..max_n, computed without materializing
    permutations; deterministic regardless of the parallel flag."""
    if parallel and max_n >= _PARALLEL_MIN_N and hasattr(os, "fork"):
        counts = _count_parallel(basis, max_n, _NodeBudget(node_budget))
    else:
        counts = _walk(basis, max_n, _NodeBudget(node_budget))
    return CountSequence(basis.label, tuple(enumerate(counts)), "pruned_tree")


# -- parallel counting ------------------------------------------------------


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _count_share(roots, table, max_n: int, counts: list, budget) -> None:
    """Add the strict descendants of each (root, mask) pair to ``counts``."""
    for root, dead in roots:
        _grow(root, dead, table, max_n, counts, budget)


def _fork_share(roots, table, max_n: int, budget) -> tuple[int, BinaryIO]:
    """Fork a child that counts ``roots`` on its own copy of ``budget`` and
    writes the count vector, or ``_EXHAUSTED``, to a new pipe; (pid, read end).
    It leaves by ``os._exit``: no return into the caller's stack, no stdio flush."""
    r, w = os.pipe()
    try:
        pid = os.fork()
        if not pid:
            try:
                counts = [0] * (max_n + 1)
                try:
                    _count_share(roots, table, max_n, counts, budget)
                    data = " ".join(map(str, counts)).encode() + b"\n"
                except BudgetExceededError:
                    data = _EXHAUSTED
                os.write(w, data)  # far below PIPE_BUF: whole, or read as a failure
                os._exit(0)
            finally:
                os._exit(1)  # reached only by an exception
    except OSError:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, open(r, "rb")


def _count_parallel(basis: PatternBasis, max_n: int, budget: _NodeBudget) -> list[int]:
    split = min(_PARALLEL_SPLIT_DEPTH, max_n - 1)
    roots: list[tuple[Perm, int]] = []

    def cut(p: Perm, live: int) -> bool:
        if len(p) < split:
            return False
        roots.append((p, live ^ ((1 << (split + 1)) - 1)))
        return True

    counts = _walk(basis, max_n, budget, cut)
    if not roots:
        return counts
    table = _kill_table(basis.patterns)
    shares = max(2, min(_usable_cpus(), len(roots)))
    here, unread = [0], []  # shares this process counts: before the join, after it
    children: list[tuple[int, int, BinaryIO]] = []  # (share, pid, read end)
    try:
        for w in range(1, shares):
            try:
                children.append((w, *_fork_share(roots[w::shares], table, max_n, budget)))
            except OSError as exc:  # no process support (a sandbox): the counts are the same
                sys.stderr.write(
                    f"patlab: worker processes unavailable ({exc}); counted sequentially\n"
                )
                here += range(w, shares)
                break
        _count_share([r for w in here for r in roots[w::shares]], table, max_n, counts, budget)
        for w, pid, pipe in children[:]:
            try:
                with pipe:
                    data = pipe.read()
            except OSError as exc:  # the child is killed and reaped below
                sys.stderr.write(f"patlab: worker {pid} unreadable ({exc}); counted sequentially\n")
                unread.append(w)
                continue
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.remove((w, pid, pipe))
            if code == 0 and data == _EXHAUSTED:
                raise _budget_exhausted(budget.limit)
            fields = data.split()
            if code or not data.endswith(b"\n") or len(fields) != max_n + 1:
                raise InternalCheckError(
                    f"counting worker {pid} exited with code {code} after {len(data)} bytes"
                )
            counts = [c + int(f) for c, f in zip(counts, fields)]
    finally:
        for _, pid, pipe in children:  # on any exception, interrupts included
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    _count_share([r for w in unread for r in roots[w::shares]], table, max_n, counts, budget)
    # one node per avoider, so this is the sequential walk's verdict
    if sum(counts) > budget.limit:
        raise _budget_exhausted(budget.limit)
    return counts


# -- independent oracle -----------------------------------------------------


def brute_force_avoiders(n: int, basis: PatternBasis) -> set[Perm]:
    """Filter of all n! permutations; the oracle the tree engine answers to."""
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    if n > BRUTE_FORCE_CAP:
        raise UsageError(
            f"brute force is capped at n={BRUTE_FORCE_CAP} (asked for {n}); "
            "use the generating-tree engine beyond that"
        )
    return {p for p in permutations(range(1, n + 1)) if avoids_basis(p, basis)}


def brute_force_counts(max_n: int, basis: PatternBasis) -> CountSequence:
    counts = tuple((n, len(brute_force_avoiders(n, basis))) for n in range(max_n + 1))
    return CountSequence(basis_label=basis.label, counts=counts, method="brute_force")
