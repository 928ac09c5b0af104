#!/usr/bin/env python3
"""Regenerate every file under tests/golden/v1, and remove any file there
that it does not write.

- Count CSVs and member lists come from the brute-force oracle (never the
  tree engine: these goldens exist to check it). A count CSV is written by
  the CLI's own renderer, the bytes ``count --format csv`` prints.
- ``cli_transcripts.json`` comes from ``patlab.cli.main``, run in-process at
  small k and n, and for the verify jobs at n=8. It pins the bytes of each
  output format, not the counts: for every command with each ``--format``
  it takes, for the verify jobs and for the usage errors, one entry holds
  the argv, any environment it sets, and the exit code, stdout and stderr. An argparse refusal pins only its exit code and
  stdout (stderr is null), since argparse's wording differs across Python
  versions.

Run from the repository root:  python scripts/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from patlab import cli
from patlab.enumeration import brute_force_avoiders, brute_force_counts
from patlab.patterns import parse_class_expression
from patlab.perms import format_perm

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "v1"

COUNT_CLASSES = {
    "123": 9,
    "M(3,2,2)": 9,
    "M(4,3,3)": 8,
    "D(3,2)": 9,
}

MEMBER_CLASSES = {
    "M(3,2,2)": 5,
}

_F_INPUT = "8 3 2 11 12 5 6 9 10 14 4 1 13 7"
_F_OUTPUT = "8 3 2 11 5 14 4 1 9 10 12 13 6 7"


def _formats(*argv: str, formats=("csv", "json", "table")) -> list[list[str]]:
    return [[*argv, "--format", fmt] for fmt in formats]


def _json_table(*argv: str) -> list[list[str]]:
    return _formats(*argv, formats=("json", "table"))


# Every command with each --format it takes (k <= 4 and n <= 6, but for basis
# at j = 5, which needs k = 5), the verify jobs at n=8, then the usage
# errors: (argv, environment).
TRANSCRIPTS = [
    (argv, {})
    for argv in [
        *_formats("count", "--class", "M(3,2,2)", "--n", "6"),
        *_formats("verify-wilf", "--left", "M(4,1,1)", "--right", "M(4,5,5)", "--n", "6"),
        *_formats("verify-wilf", "--left", "123", "--right", "12", "--n", "4"),
        *_json_table("map", "--map", "F", "--k", "4", "--i", "2", "--perm", _F_INPUT),
        *_json_table("map", "--map", "Finv", "--k", "4", "--i", "2", "--perm", _F_OUTPUT),
        *_json_table("map", "--map", "G", "--k", "3", "--perm", "12345"),
        *_json_table("map", "--map", "Ginv", "--k", "3", "--perm", "32145"),
        *_json_table("map", "--map", "H", "--k", "4", "--j", "3", "--perm", "132465"),
        *_json_table("certify", "--map", "F", "--k", "3", "--i", "0", "--n", "6"),
        *_json_table("certify", "--map", "G", "--k", "3", "--n", "6"),
        *_json_table("certify", "--map", "H", "--k", "4", "--j", "3", "--n", "6"),
        *_json_table("basis", "--k", "3", "--j", "3", "--n", "6"),
        *_json_table("basis", "--k", "4", "--j", "4", "--n", "6"),
        *_json_table("basis", "--k", "5", "--j", "5", "--n", "6"),
        *_formats("sandwich", "--k", "4", "--j", "3", "--n", "6"),
        *_formats("growth", "--class", "D(4,2)", "--n", "6"),
        *_formats("growth", "--class", "123", "--n", "5"),
        *_formats("survey", "--perm", "123", "--n", "5"),
        # the jobs of perfbench's verify workload one size above the one it
        # times, so certification and discovery are pinned at n=8 as well
        ["certify", "--map", "F", "--k", "4", "--i", "1", "--n", "8", "--format", "json"],
        ["certify", "--map", "G", "--k", "4", "--n", "8", "--format", "json"],
        ["certify", "--map", "H", "--k", "4", "--j", "3", "--n", "8", "--format", "json"],
        ["basis", "--k", "4", "--j", "3", "--n", "8", "--format", "json"],
        ["basis", "--k", "4", "--j", "4", "--n", "8", "--format", "json"],
        ["count", "--class", "1#2#3", "--n", "4"],
        ["count", "--class", "123", "--n", "13"],
        ["count", "--class", "123", "--n", "3", "--budget", "0"],
        ["basis", "--k", "4", "--j", "5", "--n", "6"],
        ["count", "--class", "123", "--n", "6", "--budget", "10"],
        ["count", "--class", "123", "--n", "3", "--format", "xml"],
        ["certify", "--map", "F", "--k", "3", "--i", "0"],
    ]
] + [(["count", "--class", "123", "--n", "3"], {"PATLAB_BUDGET": "many"})]


def transcript(argv: list[str], env: dict[str, str]) -> dict:
    """Run ``patlab`` in-process with PATLAB_BUDGET unset but for ``env``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("PATLAB_BUDGET", None)
        os.environ.update(env)
        try:
            code, pinned = cli.main(argv), True
        except SystemExit as exc:  # argparse's refusal
            code, pinned = exc.code, False
    return {
        "argv": argv,
        **({"env": env} if env else {}),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue() if pinned else None,
    }


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    written = set()
    for expr, max_n in COUNT_CLASSES.items():
        basis = parse_class_expression(expr)
        seq = brute_force_counts(max_n, basis)
        path = GOLDEN_DIR / f"{expr}.csv"
        path.write_text(cli._render("csv", {}, ["n", "count"], seq.counts))
        written.add(path)
        print(f"wrote {path} ({seq.values()})")
    for expr, n in MEMBER_CLASSES.items():
        basis = parse_class_expression(expr)
        members = sorted(brute_force_avoiders(n, basis))
        path = GOLDEN_DIR / f"{expr}.n{n}.members.txt"
        path.write_text("".join(format_perm(p) + "\n" for p in members))
        written.add(path)
        print(f"wrote {path} ({len(members)} members)")
    entries = [transcript(argv, env) for argv, env in TRANSCRIPTS]
    path = GOLDEN_DIR / "cli_transcripts.json"
    path.write_text(json.dumps(entries, indent=2, ensure_ascii=False) + "\n")
    written.add(path)
    print(f"wrote {path} ({len(entries)} transcripts)")
    for path in sorted(GOLDEN_DIR.rglob("*")):
        if path.is_file() and path not in written:
            path.unlink()
            print(f"removed {path}")


if __name__ == "__main__":
    main()
