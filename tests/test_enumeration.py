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
from conftest import oracle_avoids_basis, oracle_monotone_count, perms, reference_new_kills
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
from patlab.enumeration import avoider_masks

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


def walk(basis, max_n, family, node_budget=None) -> list[int]:
    """Run the kernel's walk with the hook ``family(p, live)``, which sees
    every avoider shorter than max_n; the counts by length."""
    return enumeration._walk(basis, max_n, enumeration._NodeBudget(node_budget), family)


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

    # each mirror turns the (pos, pos) entry of the basis (15234, 12534)
    # into a D or an E sweep (23415, 23145), so the two sides share no code
    # for it
    @pytest.mark.parametrize("j", [2, 3], ids=["M(4,2,1)", "M(4,3,1)"])
    def test_reverse_complement_counts_agree(self, j):
        basis = monotone_basis(4, j, 1)
        mirror = basis_reverse_complement(basis)
        assert set(mirror.patterns) != set(basis.patterns)
        assert count_sequence(10, mirror).values() == count_sequence(10, basis).values()

    def test_parallel_n10_matches_sequential(self):
        basis = monotone_basis(4, 3, 3)
        par = count_sequence(10, basis, parallel=True)
        assert par.counts == count_sequence(10, basis).counts
        assert par.values()[9:] == (158_298, 1_091_984)

    # the hook-length formula, which shares nothing with the tree
    @pytest.mark.parametrize("k, max_n", [(3, 13), (4, 11), (5, 10), (6, 10)])
    def test_monotone_counts_match_the_hook_length_formula(self, k, max_n):
        seq = count_sequence(max_n, make_basis([tuple(range(1, k + 1))]))
        assert seq.values() == tuple(oracle_monotone_count(n, k) for n in range(max_n + 1))

    # |Av_n(D(k,1))| = |Av_n(D(k,k+1))| = n |Av_{n-1}(12...k)|, one length
    # past the brute-force cap
    @pytest.mark.parametrize("k, j", [(3, 1), (3, 4), (4, 1), (4, 5)])
    def test_end_gap_counts_match_the_hook_length_formula(self, k, j):
        seq = count_sequence(10, distant_monotone_basis(k, j))
        assert [seq.count(n) for n in range(1, 11)] == [
            n * oracle_monotone_count(n - 1, k) for n in range(1, 11)
        ]


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
            live = {s for s in range(len(p) + 1) if mask >> s & 1}
            want = {
                s
                for s in range(len(p) + 1)
                if avoids_basis(p[:s] + (len(p) + 1,) + p[s:], basis)
            }
            assert live == want, (p, basis.patterns)

        # the hook sees every node of length <= max_len
        walk(basis, max_len + 1, check, 10**6)

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

    # every single pattern of length 5: every q'' of length 3 at every
    # (m, m2), so every kind of kill-table entry, swept or searched
    @pytest.mark.parametrize(
        "pattern", ["".join(map(str, q)) for q in permutations(range(1, 6))]
    )
    def test_masks_of_every_pattern_of_length_5(self, pattern):
        self.assert_masks_are_dead_slots(basis_of([pattern]), max_len=5)

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


class TestKillSweeps:
    """The kill step against its occurrence search, ``reference_new_kills``."""

    @staticmethod
    def assert_child_masks_match_the_search(basis, max_len):
        table = enumeration._kill_table(basis.patterns)
        parents = []

        def check(p, live):
            parents.append(p)
            dead = live ^ ((1 << (len(p) + 1)) - 1)
            got = enumeration._new_kills(p, live, table)
            want = reference_new_kills(p, live, basis.patterns)
            for s0 in range(len(p) + 1):
                if live >> s0 & 1:
                    # the child's mask: p's, shifted past the new maximum
                    inherited = (dead & ((1 << (s0 + 1)) - 1)) | ((dead >> s0) << (s0 + 1))
                    assert inherited | got[s0] == inherited | want[s0], (basis.label, p, s0)

        walk(basis, max_len, check)
        assert max(map(len, parents)) == max_len - 1

    # children to length 8 (k=5 to 7: q'' has length 4 there, so both sides
    # run the search)
    @pytest.mark.parametrize(
        "k,j,i",
        [(k, j, i) for k in (3, 4, 5) for j in range(1, k + 2) for i in range(1, k + 2)],
    )
    def test_monotone_classes(self, k, j, i):
        self.assert_child_masks_match_the_search(monotone_basis(k, j, i), 8 if k < 5 else 7)

    # every q'' of length 3 at every (m, m2), children to length 6: sweeping
    # an entry that must search, such as 53124 (q'' = 312, kill (-1, pos[0]]),
    # first goes wrong on parents of length 5
    @pytest.mark.parametrize(
        "pattern", ["".join(map(str, q)) for q in permutations(range(1, 6))]
    )
    def test_every_pattern_of_length_5(self, pattern):
        self.assert_child_masks_match_the_search(basis_of([pattern]), 6)

    # the four patterns whose kill range has both ends at adjacent entries of
    # q'' (123 or 321) and serves the slots past it, children to length 8,
    # two lengths past the case above
    @pytest.mark.parametrize("pattern", ["15234", "12534", "35214", "32514"])
    def test_both_ends_at_entries_of_q2(self, pattern):
        table = enumeration._kill_table([parse_perm(pattern)])
        assert table[0][-1][0] in ("01", "12")
        self.assert_child_masks_match_the_search(basis_of([pattern]), 8)

    # the first length-5 pattern of every other sweep cell, (kind, m2, joint)
    # or, for a scalar kind, (kind, m2), children to length 8: the pick's slot
    # ranges and the per-y intervals run long only on longer parents
    SWEEP_CELLS = [
        "12345", "12354", "12435", "12453", "12543", "13425", "13452", "13542", "14235",
        "14523", "14532", "15423", "15432", "23415", "23451", "23541", "24531", "25431",
        "41235", "45123", "51234", "51243", "51423", "51432", "52431", "54123",
    ]

    @pytest.mark.parametrize("pattern", SWEEP_CELLS)
    def test_every_sweep_cell_on_longer_parents(self, pattern):
        self.assert_child_masks_match_the_search(basis_of([pattern]), 8)

    def test_sweep_cells_cover_every_cell(self):
        first = {}
        for q in permutations(range(1, 6)):
            entry = enumeration._kill_table([q])[0]
            sweep = entry[-1]
            if sweep is not None:
                kind, scalar, joint = sweep[0], sweep[1], sweep[-1]
                cell = (kind, entry[2]) if scalar else (kind, entry[2], joint)
                first.setdefault(cell, "".join(map(str, q)))
        assert len(first) == 28
        assert sorted(first.values()) == sorted(self.SWEEP_CELLS + ["12534", "15234"])

    def test_wilf_chain_routing(self):
        # every entry sweeps, those whose kill range has both ends at entries
        # of q'' (12534 in M(4,3,3) and 15234 in M(4,2,2)) included
        routes = []
        for t in range(1, 6):
            patterns = monotone_basis(4, t, t).patterns
            routes += zip(patterns, enumeration._kill_table(patterns))
        assert len(routes) == 20
        assert [q for q, entry in routes if entry[-1] is None] == []
        both_ends = sorted(q for q, entry in routes if entry[-1][0] in ("01", "12"))
        assert both_ends == [(1, 2, 5, 3, 4), (1, 5, 2, 3, 4)]

    def test_every_monotone_k4_entry_sweeps(self):
        entries = [
            entry
            for j in range(1, 6)
            for i in range(1, 6)
            for entry in enumeration._kill_table(monotone_basis(4, j, i).patterns)
        ]
        assert len(entries) == 100
        assert [entry for entry in entries if entry[-1] is None] == []

    def test_short_and_long_q2_keep_the_search(self):
        table = enumeration._kill_table([(1, 2), (1, 3, 2), (2, 1, 4, 3), (1, 2, 3, 4, 5, 6)])
        assert [entry[-1] for entry in table] == [None] * 4


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
        walk(basis, 7, lambda p, _live: roots.append(p) if len(p) == 6 else None)
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
    @pytest.mark.parametrize("patterns", MISC_BASES[:10])
    def test_preorder_parent_is_the_last_shorter_member(self, patterns):
        # the walk is depth-first preorder: each member's parent, the member
        # without its maximum, is the last member one shorter visited before
        # it (certification's rank-free bit rests on this)
        last, orphans = {}, []

        def family(p, _live):
            n = len(p)
            if n and last.get(n - 1) != tuple(v for v in p if v != n):
                orphans.append(p)
            last[n] = p

        sizes = walk(basis_of(patterns), 8, family)
        assert orphans == [] and sizes[7]

    def test_hook_sees_each_parent_once_and_cuts_its_children(self):
        # the hook sees every member shorter than max_n once, and its live
        # slots are the children: together the levels past the root
        basis, max_n = basis_of(["123"]), 5
        seen = []
        sizes = walk(basis, max_n, lambda p, live: seen.append((p, live)))
        levels = levels_avoiders(basis, max_n)
        assert sorted(p for p, _ in seen) == sorted(p for n in range(max_n) for p in levels[n])
        assert len(seen) == len(set(seen))
        for n in range(1, max_n + 1):
            children = {
                p[:s] + (n,) + p[s:]
                for p, live in seen if len(p) == n - 1
                for s in range(n) if live >> s & 1
            }
            assert children == levels[n] == brute_force_avoiders(n, basis), n
        assert sizes == [len(levels[n]) for n in range(max_n + 1)]
        # a true return at 21 drops exactly its subtree, 21 itself kept
        at_21 = lambda p, _live: p == (2, 1)
        subtree = [
            sum(n > 2 and tuple(v for v in p if v < 3) == (2, 1) for p in levels[n])
            for n in range(max_n + 1)
        ]
        cut = walk(basis, max_n, at_21)
        assert cut == [size - drop for size, drop in zip(sizes, subtree)] and subtree[max_n]
        # one node per member the cut walk reaches, and not one more
        assert walk(basis, max_n, at_21, sum(cut)) == cut
        with pytest.raises(BudgetExceededError):
            walk(basis, max_n, at_21, sum(cut) - 1)

    def test_zero_length(self):
        basis = basis_of(["12"])
        assert levels_avoiders(basis, 0)[0] == {()}
        assert brute_force_avoiders(0, basis) == {()}
