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
new maximum, which must play the maximum of q'. So each child costs one
search per basis pattern with that entry pinned, and the last level is
counted from its parents' masks without building a permutation. The
brute-force filter is the oracle this answers to.

Counting mode never materializes permutations; ``walk_avoiders`` hands
every avoider and its mask to a callback, ``levels_avoiders`` returns the
avoiders of every length as sets, and ``avoider_masks`` the masks of every
avoider below the last length, which answer membership at the last length
by one bit each. Parallel counting is a fork-join: the subtrees cut at a
fixed depth are dealt in strided shares, the parent counts one share, and
each other share goes to a forked child that sends its counts by length
back through its own pipe. They share nothing else but a monotone
node-budget counter, and the counts are summed, so parallel and sequential
runs agree exactly. A dead worker fails the count; it never counts as zero.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
from dataclasses import dataclass
from itertools import permutations
from typing import BinaryIO

from .errors import BudgetExceededError, InternalCheckError, UsageError
from .patterns import PatternBasis
from .perms import Perm, _bound_refs, contains

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "BRUTE_FORCE_CAP",
    "CountSequence",
    "avoids_basis",
    "walk_avoiders",
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
_BUDGET_BATCH = 4096
_EXHAUSTED = b"budget\n"  # a child's answer when the shared budget ran out


@dataclass(frozen=True)
class CountSequence:
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

    def csv(self) -> str:
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in self.counts)
        return "\n".join(lines) + "\n"


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


class _SharedBudget:
    """A worker's share of a node budget held in a shared counter; nodes are
    charged to it in batches of ``_BUDGET_BATCH`` to keep the lock cold."""

    __slots__ = ("shared", "limit", "pending")

    def __init__(self, shared, limit: int):
        self.shared = shared
        self.limit = limit
        self.pending = 0

    def spend(self, amount: int = 1) -> None:
        self.pending += amount
        if self.pending >= _BUDGET_BATCH:
            self.flush()

    def flush(self) -> None:
        with self.shared.get_lock():
            self.shared.value += self.pending
            self.pending = 0
            if self.shared.value > self.limit:
                raise _budget_exhausted(self.limit)


# -- the generating-tree kernel ---------------------------------------------


def _kill_table(patterns) -> tuple[tuple, ...]:
    """One entry ``(len q', m, m2, lo_ref, hi_ref)`` per basis pattern q of
    length >= 2, where q' is q without its maximum, m the position of q's
    maximum, m2 that of q''s maximum, and the refs are q''s value bounds."""
    table = []
    for q in patterns:
        k = len(q)
        if k < 2:
            continue
        m = q.index(k)
        q1 = q[:m] + q[m + 1 :]
        lo_ref, hi_ref = _bound_refs(q1)
        table.append((k - 1, m, q1.index(k - 1), lo_ref, hi_ref))
    return tuple(table)


def _child_mask(c: Perm, s0: int, dead: int, table) -> int:
    """Dead slots of child ``c``, made by inserting its maximum at slot
    ``s0`` of a parent whose dead slots are ``dead``."""
    # parent slot t <= s0 is child slot t, and t >= s0 is child slot t + 1
    mask = (dead & ((1 << (s0 + 1)) - 1)) | ((dead >> s0) << (s0 + 1))
    n = len(c)
    for entry in table:
        kq, m, m2 = entry[0], entry[1], entry[2]
        if m2 <= s0 and kq - m2 <= n - s0:
            vals = [0] * kq
            if m:
                mask = _kills_left(c, s0, mask, entry, vals, 0, 0)
            else:
                mask = _kills_right(c, s0, mask, entry, vals, -1, 0)
    return mask


# The three searches below place q' indices in order, each at increasing
# positions of c, with index m2 pinned to s0: t < m2 ends by s0 - m2 + t,
# t > m2 by len(c) - len(q') + t.


def _kills_left(c: Perm, s0: int, dead: int, entry, vals: list, t: int, start: int) -> int:
    """Place index t < m of q'; each complete left part fixes a = the
    position of index m-1 and is extended by ``_kills_right``."""
    kq, m, m2, lo_ref, hi_ref = entry
    n = len(c)
    first = s0 if t == m2 else start
    last = s0 - m2 + t if t <= m2 else n - kq + t
    r = lo_ref[t]
    lo = vals[r] if r >= 0 else 0
    r = hi_ref[t]
    hi = vals[r] if r >= 0 else n + 1
    # kills lie right of s0 when it plays an index left of q's maximum
    # (a >= s0), and at or left of it otherwise (b <= s0)
    window = (1 << (s0 + 1)) - 1
    if m2 < m:
        window ^= (1 << (n + 1)) - 1
    for pos in range(first, last + 1):
        # a >= pos + m - 1 - t, so this and every later pos only kill slots
        # from pos + m - t on
        if not (window & ~dead) >> (pos + m - t):
            break
        v = c[pos]
        if lo < v < hi:
            vals[t] = v
            if t + 1 == m:
                dead = _kills_right(c, s0, dead, entry, vals, pos, pos + 1)
            else:
                dead = _kills_left(c, s0, dead, entry, vals, t + 1, pos + 1)
    return dead


def _kills_right(c: Perm, s0: int, dead: int, entry, vals: list, a: int, start: int) -> int:
    """Add the widest range (a, b] over the completions of a left part,
    where b is the position of index m (len(c) when q's maximum is last).
    b is tried from the largest down, and a range already dead stops the
    search: every smaller b kills a subset of it."""
    kq, m, m2, lo_ref, hi_ref = entry
    n = len(c)
    above_a = ~((1 << (a + 1)) - 1)
    if m == kq:
        return dead | (((1 << (n + 1)) - 1) & above_a)
    first = s0 if m == m2 else start
    last = s0 - m2 + m if m <= m2 else n - kq + m
    r = lo_ref[m]
    lo = vals[r] if r >= 0 else 0
    r = hi_ref[m]
    hi = vals[r] if r >= 0 else n + 1
    for b in range(last, first - 1, -1):
        span = ((1 << (b + 1)) - 1) & above_a
        if not span & ~dead:
            break
        v = c[b]
        if lo < v < hi:
            vals[m] = v
            if m + 1 == kq or _completes(c, s0, entry, vals, m + 1, b + 1):
                return dead | span
    return dead


def _completes(c: Perm, s0: int, entry, vals: list, t: int, start: int) -> bool:
    """Can q' indices t..len(q')-1 be placed from position ``start`` on?"""
    kq, m, m2, lo_ref, hi_ref = entry
    n = len(c)
    first = s0 if t == m2 else start
    last = s0 - m2 + t if t <= m2 else n - kq + t
    r = lo_ref[t]
    lo = vals[r] if r >= 0 else 0
    r = hi_ref[t]
    hi = vals[r] if r >= 0 else n + 1
    for pos in range(first, last + 1):
        v = c[pos]
        if lo < v < hi:
            if t + 1 == kq:
                return True
            vals[t] = v
            if _completes(c, s0, entry, vals, t + 1, pos + 1):
                return True
    return False


def _grow(p: Perm, dead: int, table, max_n: int, counts: list, budget, emit) -> None:
    """Add every strict descendant of ``p`` (dead slots ``dead``) of length
    <= max_n to ``counts`` by length, charging one budget unit per node.

    ``emit``, when given, is called as ``emit(child, mask)`` on each
    descendant, where ``mask`` is its dead-slot mask (None at length max_n,
    which is never expanded); a true return cuts the child's subtree. Without
    ``emit`` the last level is counted from the live slots alone."""
    n1 = len(p) + 1
    live = ~dead & ((1 << n1) - 1)
    if emit is None and n1 == max_n:
        found = live.bit_count()
        counts[n1] += found
        budget.spend(found)
        return
    deeper = n1 < max_n
    mask = None
    while live:
        low = live & -live
        live ^= low
        s0 = low.bit_length() - 1
        child = p[:s0] + (n1,) + p[s0:]
        counts[n1] += 1
        budget.spend()
        if deeper:
            mask = _child_mask(child, s0, dead, table)
        if emit is not None and emit(child, mask):
            continue
        if deeper:
            _grow(child, mask, table, max_n, counts, budget, emit)


def _walk(basis: PatternBasis, max_n: int, budget, emit=None) -> list[int]:
    """Run the kernel from the root (); counts of avoiders by length."""
    if max_n < 0:
        raise UsageError(f"max_n must be >= 0, got {max_n}")
    counts = [0] * (max_n + 1)
    if any(len(q) == 0 for q in basis.patterns):
        return counts
    # the root's one slot is dead iff a pattern of length 1 forbids everything
    dead = int(any(len(q) == 1 for q in basis.patterns))
    counts[0] = 1
    budget.spend()
    if emit is not None and emit((), dead if max_n else None):
        return counts
    if max_n:
        _grow((), dead, _kill_table(basis.patterns), max_n, counts, budget, emit)
    return counts


def walk_avoiders(
    basis: PatternBasis, max_n: int, emit, *, node_budget: int | None = None
) -> list[int]:
    """Call ``emit(p, mask)`` on every avoider p of length <= max_n, in
    tree order (each parent before its children), with p's dead-slot mask
    (None at length max_n). A true return skips p's descendants. Returns
    the number of avoiders visited at each length."""
    return _walk(basis, max_n, _NodeBudget(node_budget), emit)


def levels_avoiders(
    basis: PatternBasis, max_n: int, *, node_budget: int | None = None
) -> dict[int, set[Perm]]:
    """All avoiders for every length 0..max_n from a single traversal."""
    out: dict[int, set[Perm]] = {n: set() for n in range(max_n + 1)}
    walk_avoiders(basis, max_n, lambda p, _mask: out[len(p)].add(p), node_budget=node_budget)
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

    def record(p: Perm, dead: int) -> bool:
        masks[p] = dead
        return len(p) == max_n - 1

    if max_n:  # a negative max_n is refused by the walk
        walk_avoiders(basis, max_n, record, node_budget=node_budget)
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
        _grow(root, dead, table, max_n, counts, budget, None)
    budget.flush()


def _fork_share(roots, table, max_n: int, budget) -> tuple[int, BinaryIO]:
    """Fork a child that writes the count vector of ``roots``, or
    ``_EXHAUSTED``, to a new pipe; (pid, read end). The child leaves by
    ``os._exit``, never returning into the caller's stack or flushing stdio."""
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
    limit = budget.limit
    roots: list[tuple[Perm, int]] = []

    def cut(p: Perm, dead: int) -> bool:
        if len(p) < split:
            return False
        roots.append((p, dead))
        return True

    counts = _walk(basis, max_n, budget, cut)
    if not roots:
        return counts
    table = _kill_table(basis.patterns)
    # share 0 is counted here, each other share by one forked child
    shares = max(2, min(_usable_cpus(), len(roots)))
    children: list[tuple[int, BinaryIO]] = []
    try:
        try:
            shared = multiprocessing.get_context("fork").Value("q", limit - budget.remaining)
            budget = _SharedBudget(shared, limit)
            for w in range(1, shares):
                children.append(_fork_share(roots[w::shares], table, max_n, budget))
            _count_share(roots[::shares], table, max_n, counts, budget)
            while children:
                pid, pipe = children[0]
                with pipe:
                    data = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if code == 0 and data == _EXHAUSTED:
                    raise _budget_exhausted(limit)
                fields = data.split()
                if code or not data.endswith(b"\n") or len(fields) != max_n + 1:
                    raise InternalCheckError(
                        f"counting worker {pid} exited with code {code} after {len(data)} bytes"
                    )
                counts = [c + int(f) for c, f in zip(counts, fields)]
        finally:
            for pid, pipe in children:  # on any exception, interrupts included
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    except OSError as exc:  # no process support (a sandbox): the counts are the same
        sys.stderr.write(f"patlab: worker processes unavailable ({exc}); counted sequentially\n")
        return _walk(basis, max_n, _NodeBudget(limit))
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
