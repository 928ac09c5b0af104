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
depend on the slot: so each parent runs one search for q'' per basis
pattern and scatters each occurrence to the live slots it serves, and the
last two levels are counted from masks without building a permutation. The
brute-force filter is the oracle this answers to.

Counting mode never materializes permutations; ``walk_avoiders`` hands
every avoider and its mask to a callback, ``levels_avoiders`` returns the
avoiders of every length as sets, and ``avoider_masks`` the masks of every
avoider below the last length, which answer membership at the last length
by one bit each. Parallel counting is a fork-join: the subtrees cut at a
fixed depth are dealt in strided shares, the parent counts one share (and
any no child takes), each other share goes to a forked child that sends its
counts back through its own pipe, and nothing else is shared. Each share
spends its own copy of the node budget; as every avoider costs one node, the
join refuses summed counts over the limit, as the sequential walk would.
"""

from __future__ import annotations

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
_EXHAUSTED = b"budget\n"  # a child's answer when its copy of the budget ran out


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


def _kill_table(patterns) -> tuple[tuple, ...]:
    """One entry ``(len q'', m, m2, lo_ref, hi_ref, gaps)`` per basis
    pattern q of length >= 2, where q' is q without its maximum and q'' is q'
    without its maximum, m and m2 are the positions of the maxima of q and q',
    and the refs are the value bounds of q''."""
    table = []
    for q in patterns:
        k = len(q)
        if k < 2:
            continue
        m = q.index(k)
        q1 = q[:m] + q[m + 1 :]
        m2 = q1.index(k - 1)
        # U is in gaps when (pos[U-1], pos[U]] must hold a live slot of p:
        # the slots an occurrence serves, and its kill range when both ends
        # are entries of q'' (a range of dead slots adds nothing)
        gaps = frozenset((m2, m - 1 if m2 < m - 1 else m if m < m2 else m2))
        table.append((k - 2, m, m2, *_bound_refs(q1[:m2] + q1[m2 + 1 :]), gaps))
    return tuple(table)


def _new_kills(p: Perm, live: int, table) -> list[int]:
    """The new dead slots of each child of ``p``: entry s0 is the mask of
    child slots killed by a maximum inserted at live slot s0.

    Per table entry, one search lists the occurrences of q'' in p. An
    occurrence at positions ``pos`` serves every live s0 in (pos[m2-1],
    pos[m2]], taking pos[-1] = -1 and pos[len q''] = len(p). It kills the
    child slots (a, b]: the child positions of q' indices m-1 and m, each s0
    (index m2) or an entry of ``pos``, one place right when past s0."""
    n = len(p)
    new, pos, vals, stops = [0] * (n + 1), [0] * n, [0] * n, [0] * n

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

    top = live.bit_length() - 1
    for kq, m, m2, lo_ref, hi_ref, gaps in table:
        if kq > n:
            continue
        # index t leaves room for the indices after it, and a live slot
        # right of it when t + 1 is in gaps
        stop = n + 1
        for t in range(kq - 1, -1, -1):
            stop = min(stop - 1, top) if t + 1 in gaps else stop - 1
            stops[t] = stop
        if kq:
            place(0, 0)
        else:
            scatter()
    return new


def _grow(p: Perm, dead: int, table, max_n: int, counts: list, budget, emit) -> None:
    """Add every strict descendant of ``p`` (dead slots ``dead``) of length
    <= max_n to ``counts`` by length, charging one budget unit per node.

    One ``_new_kills`` call gives the new dead slots of all of p's children.
    ``emit``, when given, is called as ``emit(child, mask)`` on each
    descendant, with its dead-slot mask (None at length max_n, which is never
    expanded); a true return cuts the child's subtree. Without ``emit`` a
    child one below max_n is never built: its live slots are counted."""
    n1 = len(p) + 1
    live = ~dead & ((1 << n1) - 1)
    found = live.bit_count()
    counts[n1] += found
    budget.spend(found)
    if emit is None and n1 == max_n:
        return
    new = _new_kills(p, live, table) if n1 < max_n else None
    last = emit is None and n1 + 1 == max_n
    grand = 0
    for s0 in range(n1):
        if dead >> s0 & 1:
            continue
        mask = None
        if new:
            # parent slot t <= s0 is child slot t, and t >= s0 is child slot t + 1
            mask = (dead & ((1 << (s0 + 1)) - 1)) | ((dead >> s0) << (s0 + 1)) | new[s0]
            if last:
                grand += n1 + 1 - mask.bit_count()
                continue
        child = p[:s0] + (n1,) + p[s0:]
        if emit is not None and emit(child, mask):
            continue
        if new:
            _grow(child, mask, table, max_n, counts, budget, emit)
    if grand:
        counts[max_n] += grand
        budget.spend(grand)


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

    def cut(p: Perm, dead: int) -> bool:
        if len(p) < split:
            return False
        roots.append((p, dead))
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
