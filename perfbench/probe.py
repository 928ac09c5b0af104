"""Unit costs of single layers, timed without tracing.

The traced run counts how often a workload calls each layer; these probes say
what one call costs, on inputs the seed picks: a class of the chain
M(4,t,t) for the tree, class members of length 7 for the maps, and uniform
random permutations of length 8 for the perms functions. They run the same
way on every workload, so a layer that a workload never calls still has a
measured unit cost.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from patlab.enumeration import avoids_basis, count_sequence, levels_avoiders
from patlab.maps import invert_F, map_F, map_G, map_H
from patlab.patterns import monotone_basis
from patlab.perms import contains, deletions, lis_tables

K = 4
COUNT_N = 8  # the parallel path starts at n = 8
LEVELS_N = 7
SAMPLE = 600
PASSES = 5


def _us_per_call(fn, args_list) -> tuple[float, str]:
    """Median over passes of the time per call, in microseconds."""
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(args_list) * 1e6, "us"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run(rng: random.Random) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit)."""
    t = rng.randrange(1, K + 2)
    chain = monotone_basis(K, t, t)
    out: dict[str, tuple[float, str]] = {}

    seq_s, seq = _timed(lambda: count_sequence(COUNT_N, chain, parallel=False))
    par_s, par = _timed(lambda: count_sequence(COUNT_N, chain, parallel=True))
    if seq.counts != par.counts:
        raise RuntimeError(f"parallel and sequential counts differ for {chain.label}")
    out["enumeration.count.us_per_node"] = (seq_s / sum(seq.values()) * 1e6, "us")
    out["enumeration.count_par.speedup"] = (seq_s / par_s, "x")
    out["enumeration.count_par.workers"] = (os.cpu_count() or 1, "count")

    lev_s, levels = _timed(lambda: levels_avoiders(chain, LEVELS_N))
    out["enumeration.levels.us_per_node"] = (lev_s / sum(map(len, levels.values())) * 1e6, "us")

    def members(j: int, i: int) -> list:
        level = sorted(levels_avoiders(monotone_basis(K, j, i), LEVELS_N)[LEVELS_N])
        return rng.sample(level, min(SAMPLE, len(level)))

    diag = members(2, 2)
    images = [map_F(p, K, 1, validate=False).output for p in diag]
    out["maps.F.us_per_call"] = _us_per_call(map_F, [(p, K, 1, False) for p in diag])
    out["maps.Finv.us_per_call"] = _us_per_call(invert_F, [(w, K, 1, False) for w in images])
    out["maps.G.us_per_call"] = _us_per_call(map_G, [(p, K, "to_21", False) for p in diag])
    out["maps.H.us_per_call"] = _us_per_call(
        map_H, [(p, K, 3, False) for p in members(3, 2)]
    )

    perms = [tuple(rng.sample(range(1, COUNT_N + 1), COUNT_N)) for _ in range(SAMPLE)]
    target = monotone_basis(K, 3, 3)
    out["enumeration.avoids_basis.us_per_call"] = _us_per_call(
        avoids_basis, [(p, target) for p in perms]
    )
    out["perms.contains.us_per_call"] = _us_per_call(
        contains, [(p, rng.choice(target.patterns)) for p in perms]
    )
    out["perms.lis_tables.us_per_call"] = _us_per_call(lis_tables, [(p,) for p in perms])
    out["perms.deletions.us_per_call"] = _us_per_call(deletions, [(p,) for p in perms])
    return out
