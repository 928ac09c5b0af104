#!/usr/bin/env python3
"""EXPERIMENT: the open almost-distant questions, run as neutral surveys.

Two questions, neither asserted:

1. Does the (box=3, removed=4) variant of 1432 count like the monotone
   diagonal classes M(k,j,j)? Tested against k=4 (the right-hand side has
   fixed length, so the matching k is itself part of the question).
2. How do the almost-distant variants of 1342 and 1423 group into empirical
   Wilf classes?

Exits with status 3 (experiment) on success; nothing here is pass/fail.
A bad argument exits 2 with a usage line; a library error is reported as
``error: ...`` with its exit code, as the CLI does.

Usage:  python scripts/survey_open_questions.py [max_n]   (default 8)
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from patlab import (
    PatlabError,
    expand_distant,
    monotone_basis,
    survey_almost_distant,
    verify_wilf,
)


def conjecture_1432(max_n: int) -> None:
    print(f"EXPERIMENT 1: (1432, box=3, removed=4) versus M(4,t,t), n <= {max_n}")
    variant = expand_distant((1, 4, 3, 2), 3, removed=4)
    report = verify_wilf(variant, monotone_basis(4, 1, 1), max_n)
    print(f"  variant : {report.left.values()}")
    print(f"  M(4,t,t): {report.right.values()}")
    verdict = "match so far" if report.equal else f"diverge (first at n={report.diverges_at})"
    print(f"  observation: sequences {verdict} at this range\n")


def survey(pattern: tuple[int, ...], max_n: int) -> None:
    name = "".join(map(str, pattern))
    print(f"EXPERIMENT 2: empirical Wilf groups for almost-distant {name}, n <= {max_n}")
    report = survey_almost_distant(pattern, max_n)
    multi = [g for g in report.groups if len(g[1]) > 1]
    print(f"  {len(report.groups)} groups, {len(multi)} with more than one member")
    for counts, specs in report.groups:
        if len(specs) > 1:
            print(f"  specs {list(specs)}")
            print(f"    counts {list(counts)}")
    print()


def _length(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the open almost-distant questions as neutral surveys (exit 3)."
    )
    parser.add_argument(
        "max_n", nargs="?", type=_length, default=8, help="largest length counted (default 8)"
    )
    max_n = parser.parse_args(argv).max_n
    try:
        conjecture_1432(max_n)
        survey((1, 3, 4, 2), max_n)
        survey((1, 4, 2, 3), max_n)
    except PatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print("status: experiment (neutral)")
    return 3


if __name__ == "__main__":
    sys.exit(main())
