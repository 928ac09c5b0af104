"""Generating-tree engine against the brute-force oracle and golden files."""

import io
import math
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import patlab.enumeration as enumeration
from conftest import oracle_avoids_basis, perms
from patlab import (
    BudgetExceededError,
    InternalCheckError,
    UsageError,
    avoids_basis,
    basis_reverse_complement,
    brute_force_avoiders,
    brute_force_counts,
    count_sequence,
    distant_monotone_basis,
    levels_avoiders,
    make_basis,
    monotone_basis,
    parse_perm,
)
from patlab.cli import main
from patlab.enumeration import avoider_masks, walk_avoiders

GOLDEN = pathlib.Path(__file__).parent / "golden" / "v1"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def count_csv(capsys, expr, max_n):
    """The stdout of ``count --format csv``, counted sequentially."""
    main(["count", "--class", expr, "--n", str(max_n), "--format", "csv", "--no-parallel"])
    return capsys.readouterr().out


# random bases for the kernel oracle checks: 1-3 patterns of length 1-5
BASES = st.lists(perms(5, min_n=1), min_size=1, max_size=3).map(make_basis)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862)

# fixed miscellaneous bases for the cross-engine check (no randomness anywhere)
MISC_BASES = [
    ["123"],
    ["321"],
    ["132", "213"],
    ["2413"],
    ["1234", "2143"],
    ["312", "231"],
    ["1324"],
    ["21"],
    ["123", "3214"],
    ["2341", "1432"],
    ["4231", "1234"],
    ["213"],
    ["12345"],
    ["1342", "2413"],
    ["321", "1234"],
    ["231"],
    ["3142", "2413"],
    ["1243", "2134"],
    ["35124"],
    ["123", "321"],
]


def basis_of(patterns):
    return make_basis([parse_perm(s) for s in patterns], label=";".join(patterns))


def count_walks(monkeypatch) -> list:
    """Record each call of the kernel's root walk ``enumeration._walk``."""
    calls = []
    real_walk = enumeration._walk

    def walk(*args):
        calls.append(args)
        return real_walk(*args)

    monkeypatch.setattr(enumeration, "_walk", walk)
    return calls


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestAvoidsBasis:
    def test_reference_members(self):
        m433 = monotone_basis(4, 3, 3)
        assert avoids_basis(parse_perm("82456173"), m433)
        assert avoids_basis(parse_perm("8 3 2 11 12 5 6 9 10 14 4 1 13 7"), m433)

    def test_empty_basis(self):
        empty = make_basis([])
        for p in permutations(range(1, 5)):
            assert avoids_basis(p, empty)

    @given(perms(6), st.lists(perms(4, min_n=1), max_size=3))
    def test_matches_oracle(self, p, patterns):
        basis = make_basis(patterns)
        assert avoids_basis(p, basis) == oracle_avoids_basis(p, basis.patterns)


class TestCatalanAnchor:
    def test_both_engines(self):
        basis = basis_of(["123"])
        assert count_sequence(9, basis).values() == CATALAN
        assert brute_force_counts(9, basis).values() == CATALAN

    def test_golden_file(self, capsys):
        assert (GOLDEN / "123.csv").read_text() == count_csv(capsys, "123", 9)


class TestEngineEquivalence:
    @pytest.mark.parametrize("patterns", MISC_BASES, ids=[";".join(b) for b in MISC_BASES])
    def test_fixed_bases(self, patterns):
        basis = basis_of(patterns)
        levels = levels_avoiders(basis, 6)
        for n in range(7):
            assert levels[n] == brute_force_avoiders(n, basis), (patterns, n)

    def test_monotone_specs_small(self):
        for k in (2, 3):
            for j in range(1, k + 2):
                for i in range(1, k + 2):
                    basis = monotone_basis(k, j, i)
                    levels = levels_avoiders(basis, 6)
                    for n in range(7):
                        assert levels[n] == brute_force_avoiders(n, basis), (k, j, i, n)

    def test_enumerate_single_level(self):
        basis = monotone_basis(3, 2, 2)
        assert levels_avoiders(basis, 5)[5] == brute_force_avoiders(5, basis)


class TestBeyondBruteForce:
    """Exact cross-checks at n=10, past the brute-force filter's cap."""

    def test_reverse_complement_counts_agree(self):
        basis = monotone_basis(4, 2, 1)
        mirror = basis_reverse_complement(basis)
        assert set(mirror.patterns) != set(basis.patterns)
        assert count_sequence(10, mirror).values() == count_sequence(10, basis).values()

    def test_parallel_n10_matches_sequential(self):
        basis = monotone_basis(4, 3, 3)
        par = count_sequence(10, basis, parallel=True)
        assert par.counts == count_sequence(10, basis).counts
        assert par.values()[9:] == (158_298, 1_091_984)


class TestCountSequence:
    def test_all_factorials_below_shortest_pattern(self):
        basis = monotone_basis(4, 3, 3)  # patterns of length 5
        seq = count_sequence(4, basis)
        assert seq.values() == tuple(math.factorial(n) for n in range(5))

    def test_counts_never_exceed_factorial(self):
        for patterns in MISC_BASES[:6]:
            seq = count_sequence(6, basis_of(patterns))
            for n, c in seq.counts:
                assert c <= math.factorial(n)

    def test_basis_growth_shrinks_classes(self):
        small = count_sequence(7, basis_of(["123"]))
        large = count_sequence(7, basis_of(["123", "3214"]))
        for n in range(8):
            assert large.count(n) <= small.count(n)

    def test_golden_counts(self, capsys):
        for name, max_n in [("M(3,2,2)", 9), ("M(4,3,3)", 8), ("D(3,2)", 9)]:
            golden = (GOLDEN / f"{name}.csv").read_text()
            assert count_csv(capsys, name, max_n) == golden

    def test_golden_members(self):
        rows = (GOLDEN / "M(3,2,2).n5.members.txt").read_text().split()
        got = levels_avoiders(monotone_basis(3, 2, 2), 5)[5]
        assert {parse_perm(r) for r in rows} == got

    def test_csv_shape(self, capsys):
        csv = count_csv(capsys, "21", 2)
        assert csv == "n,count\n0,1\n1,1\n2,1\n"

    def test_length_one_pattern_forbids_everything(self):
        seq = count_sequence(3, basis_of(["1"]))
        assert seq.values() == (1, 0, 0, 0)


class TestParallel:
    def test_matches_sequential(self):
        basis = monotone_basis(3, 2, 2)
        seq = count_sequence(8, basis)
        par = count_sequence(8, basis, parallel=True)
        assert par.counts == seq.counts

    def test_fork_failure_falls_back_to_sequential(self, monkeypatch, capsys):
        def no_fork():
            raise OSError("process creation refused")

        monkeypatch.setattr(enumeration.os, "fork", no_fork)
        walks = count_walks(monkeypatch)
        basis = monotone_basis(3, 2, 2)
        par = count_sequence(8, basis, parallel=True)
        err = capsys.readouterr().err
        assert len(walks) == 1  # the prefix walk only: no restart from the root
        assert par.counts == count_sequence(8, basis).counts
        assert "counted sequentially" in err
        assert len(err.splitlines()) == 1

    def test_second_fork_refused_reaps_the_first_child(self, monkeypatch, capsys):
        real_fork = os.fork
        forks = []

        def fork_once():
            if forks:
                raise OSError("process creation refused")
            forks.append(real_fork())
            return forks[-1]

        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(enumeration.os, "fork", fork_once)
        walks = count_walks(monkeypatch)
        basis = monotone_basis(4, 3, 3)
        par = count_sequence(8, basis, parallel=True)
        err = capsys.readouterr().err
        assert len(forks) == 1
        assert len(walks) == 1
        assert_no_children()
        assert par.counts == count_sequence(8, basis).counts
        assert "counted sequentially" in err
        assert len(err.splitlines()) == 1

    def test_unreadable_pipe_counts_the_share_here(self, monkeypatch, capsys):
        real_fork_share = enumeration._fork_share

        class Unreadable(io.BufferedReader):
            def read(self, *args):
                raise OSError("read refused")

        def unreadable_share(*args):
            pid, pipe = real_fork_share(*args)
            return pid, Unreadable(pipe.detach())

        monkeypatch.setattr(enumeration, "_fork_share", unreadable_share)
        basis = monotone_basis(4, 3, 3)
        par = count_sequence(8, basis, parallel=True)
        err = capsys.readouterr().err
        assert_no_children()
        assert par.counts == count_sequence(8, basis).counts
        assert "counted sequentially" in err

    def test_dead_worker_fails_the_count(self, monkeypatch):
        parent = os.getpid()
        real_grow = enumeration._grow

        def dying_grow(*args):
            if os.getpid() != parent:
                os._exit(7)
            real_grow(*args)

        monkeypatch.setattr(enumeration, "_grow", dying_grow)
        start = time.monotonic()
        with pytest.raises(InternalCheckError, match="exited with code 7"):
            count_sequence(8, monotone_basis(4, 3, 3), parallel=True)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_interrupt_kills_running_workers(self, monkeypatch):
        parent = os.getpid()

        def stuck_share(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(enumeration, "_count_share", stuck_share)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            count_sequence(8, monotone_basis(4, 3, 3), parallel=True)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_workers_never_flush_the_parents_stdout(self):
        code = (
            "import sys\n"
            "from patlab import count_sequence, monotone_basis\n"
            "sys.stdout.write('x')\n"
            "count_sequence(8, monotone_basis(4, 3, 3), parallel=True)\n"
        )
        # stdout must stay block-buffered for the test to mean anything
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "x"


class TestKernelOracle:
    """The dead-slot masks and the trees they prune, on random bases."""

    @staticmethod
    def assert_masks_are_dead_slots(basis, max_len=6):
        def check(p, mask):
            if mask is None:  # length max_n: never expanded, so no mask
                return
            live = {s for s in range(len(p) + 1) if not mask >> s & 1}
            want = {
                s
                for s in range(len(p) + 1)
                if avoids_basis(p[:s] + (len(p) + 1,) + p[s:], basis)
            }
            assert live == want, (p, basis.patterns)

        # masks exist for every node of length <= max_len
        enumeration._walk(basis, max_len + 1, enumeration._NodeBudget(10**6), check)

    @settings(max_examples=50)
    @given(BASES)
    def test_masks_are_exactly_the_dead_slots(self, basis):
        self.assert_masks_are_dead_slots(basis)

    # every single pattern of length 2-4: an empty q'' (length 2), q's
    # maximum first and last, q''s maximum at both ends of q''
    @pytest.mark.parametrize(
        "pattern",
        ["".join(map(str, q)) for k in (2, 3, 4) for q in permutations(range(1, k + 1))],
    )
    def test_masks_of_every_short_pattern(self, pattern):
        self.assert_masks_are_dead_slots(basis_of([pattern]))

    # both ends of the kill range are entries of q'': right of q''s maximum
    # (41253, 41532), left of it (13524); a wrong index in the kill table's
    # gaps first shows in the masks of length 6 or 7
    @pytest.mark.parametrize("pattern", ["41253", "41532", "13524"])
    def test_masks_when_both_kill_ends_are_entries(self, pattern):
        self.assert_masks_are_dead_slots(basis_of([pattern]), max_len=7)

    @settings(max_examples=50)
    @given(BASES)
    def test_levels_match_brute_force(self, basis):
        levels = levels_avoiders(basis, 6)
        for n in range(7):
            assert levels[n] == brute_force_avoiders(n, basis), (basis.patterns, n)

    @settings(max_examples=50)
    @given(BASES, st.integers(0, 6))
    def test_avoider_masks_answer_membership(self, basis, max_n):
        masks = avoider_masks(basis, max_n)
        below = [brute_force_avoiders(n, basis) for n in range(max_n)]
        assert set(masks) == set().union(*below), (basis.patterns, max_n)
        if not max_n:
            return
        n = max_n

        def member(w):
            s = w.index(n)
            dead = masks.get(w[:s] + w[s + 1 :])
            return dead is not None and not dead >> s & 1

        want = brute_force_avoiders(n, basis)
        assert {w for w in permutations(range(1, n + 1)) if member(w)} == want
        live = sum((~d & ((1 << n) - 1)).bit_count() for p, d in masks.items() if len(p) == n - 1)
        assert live == len(want)

    def test_avoider_masks_edges(self):
        assert avoider_masks(basis_of(["12"]), 0) == {}
        assert avoider_masks(basis_of(["12"]), 1) == {(): 0}
        # a pattern of length 1 kills the root's one slot: Av_n is empty for n >= 1
        assert avoider_masks(basis_of(["1"]), 1) == {(): 1}
        assert avoider_masks(basis_of(["1", "123"]), 4) == {(): 1}
        with pytest.raises(UsageError):
            avoider_masks(basis_of(["12"]), -1)

    def test_avoider_masks_never_build_the_last_length(self):
        # the root, 1, 12 and 21 are 4 nodes; count_sequence also charges
        # the 5 avoiders of length 3
        assert len(avoider_masks(basis_of(["123"]), 3, node_budget=4)) == 4
        with pytest.raises(BudgetExceededError):
            avoider_masks(basis_of(["123"]), 3, node_budget=3)
        with pytest.raises(BudgetExceededError):
            count_sequence(3, basis_of(["123"]), node_budget=8)

    @settings(max_examples=6)
    @given(BASES)
    def test_parallel_matches_sequential(self, basis):
        seq = count_sequence(8, basis)
        assert count_sequence(8, basis, parallel=True).counts == seq.counts


class TestBudgetsAndCaps:
    def test_node_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            count_sequence(8, basis_of(["123"]), node_budget=50)

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_budget_verdict_is_the_node_count(self, parallel):
        # one node per avoider, so a budget of exactly the summed counts
        # suffices and one less does not, whichever way the tree is walked
        basis = monotone_basis(4, 3, 3)
        total = sum(count_sequence(9, basis).values())
        assert total == 186_702
        # 700 runs out inside the parallel path's prefix walk (784 nodes)
        for short in (700, total - 1):
            with pytest.raises(BudgetExceededError, match=f"budget of {short} "):
                count_sequence(9, basis, parallel=parallel, node_budget=short)
        assert sum(count_sequence(9, basis, parallel=parallel, node_budget=total).values()) == total
        assert_no_children()

    def test_only_the_childs_share_overruns(self, monkeypatch):
        # Av(321) to n=8 is split at length 6 into two strided shares: the
        # parent counts the descendants of roots[0::2], one child those of
        # roots[1::2], each on what the prefix left of the budget. With the
        # limit at prefix + share 0, the parent's share fits exactly and the
        # join sum stays within it: only the child's copy runs out.
        basis = basis_of(["321"])
        roots = []
        walk_avoiders(basis, 6, lambda p, _mask: roots.append(p) if len(p) == 6 else None)
        levels = levels_avoiders(basis, 8)
        below = Counter(tuple(v for v in p if v <= 6) for n in (7, 8) for p in levels[n])
        share = [sum(below[r] for r in roots[w::2]) for w in (0, 1)]
        prefix = sum(count_sequence(6, basis).values())
        assert (prefix, *share) == (197, 901, 958)
        assert share[1] > share[0]
        limit = prefix + share[0]
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: 2)
        with pytest.raises(BudgetExceededError, match=f"node budget of {limit} exhausted"):
            count_sequence(8, basis, parallel=True, node_budget=limit)
        assert_no_children()

    def test_parallel_budget_enforced(self):
        # the split prefix fits in 2000 nodes, the worker phase does not
        with pytest.raises(BudgetExceededError):
            count_sequence(9, basis_of(["4321"]), node_budget=2000, parallel=True)
        assert_no_children()

    @pytest.mark.parametrize("run", [
        lambda b: count_sequence(0, b, node_budget=0),
        lambda b: count_sequence(9, b, node_budget=0, parallel=True),
        lambda b: levels_avoiders(b, 0, node_budget=0),
        lambda b: levels_avoiders(b, 3, node_budget=0),
    ], ids=["count", "count-parallel", "enumerate", "levels"])
    def test_zero_budget_fails_at_the_root(self, run):
        with pytest.raises(BudgetExceededError):
            run(basis_of(["123"]))

    def test_budget_counts_the_root(self):
        assert count_sequence(0, basis_of(["123"]), node_budget=1).values() == (1,)
        with pytest.raises(BudgetExceededError):
            count_sequence(1, basis_of(["123"]), node_budget=1)

    def test_brute_force_cap(self):
        with pytest.raises(UsageError):
            brute_force_avoiders(10, basis_of(["123"]))

    def test_negative_n_rejected(self):
        with pytest.raises(UsageError):
            levels_avoiders(basis_of(["123"]), -1)


class TestWalk:
    def test_zero_length(self):
        basis = basis_of(["12"])
        assert levels_avoiders(basis, 0)[0] == {()}
        assert brute_force_avoiders(0, basis) == {()}
