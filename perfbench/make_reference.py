#!/usr/bin/env python3
"""Write perfbench/reference.json: the expected stdout of every benchmark job.

    python3 perfbench/make_reference.py           # regenerate the file
    python3 perfbench/make_reference.py --check   # exit 1 if it is stale

Each answer comes from ``patlab.cli.main`` and is cross-checked against the
independent oracles before it is accepted: ``brute_force_counts`` for the
chain counts, brute-force class sizes for every certify row, and
``construct_S_explicit`` for the discovered bases. Run from the repository
root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from patlab.cli import main  # noqa: E402
from patlab.enumeration import brute_force_avoiders, brute_force_counts  # noqa: E402
from patlab.patterns import parse_class_expression  # noqa: E402
from patlab.perms import format_perm  # noqa: E402
from patlab.verification import construct_S_explicit  # noqa: E402

REFERENCE = HERE / "reference.json"

# certify job -> (source class, target class, expected kind of map)
CERTIFY_CLASSES = {
    "F": ("M(4,2,2)", "M(4,3,3)", "bijection"),
    "G": ("M(4,2,2)", "M(4,2,1)", "bijection"),
    "H": ("M(4,3,2)", "M(4,3,3)", "injection"),
}


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _sizes(expr: str, max_n: int) -> list[int]:
    basis = parse_class_expression(expr)
    return [len(brute_force_avoiders(n, basis)) for n in range(max_n + 1)]


def cross_check(argv: list[str], stdout: str) -> int:
    """Raise if ``stdout`` disagrees with the oracles; return the number of
    generating-tree nodes the job visits."""
    n = int(_arg(argv, "--n"))
    if argv[0] == "count":
        expr = _arg(argv, "--class")
        lines = stdout.splitlines()
        got = [int(line.split(",")[1]) for line in lines[1:]]
        want = list(brute_force_counts(n, parse_class_expression(expr)).values())
        if lines[0] != "n,count" or got != want:
            raise AssertionError(f"{expr}: tree {got} != brute force {want}")
        return sum(got)
    doc = json.loads(stdout)
    if argv[0] == "certify":
        source, target, kind = CERTIFY_CLASSES[_arg(argv, "--map")]
        src, tgt = _sizes(source, n), _sizes(target, n)
        if doc["verdict"] != "certified" or doc["expectation"] != kind:
            raise AssertionError(f"{argv}: verdict {doc['verdict']} ({doc['expectation']})")
        for row in doc["rows"]:
            m = row["n"]
            image = tgt[m] if kind == "bijection" else src[m]
            if (row["source_size"], row["target_size"], row["image_size"]) != (
                src[m], tgt[m], image
            ):
                raise AssertionError(f"{argv}: row {row} vs brute force {src[m]}, {tgt[m]}")
        return sum(src) + sum(tgt)
    if argv[0] == "basis":
        k, j = int(_arg(argv, "--k")), int(_arg(argv, "--j"))
        explicit = [format_perm(q) for q in construct_S_explicit(k, j) if len(q) <= n]
        source = f"M({k},{j},{j - 1})"
        src = _sizes(source, n)
        if doc["discovered"] != explicit:
            raise AssertionError(f"{argv}: discovered {doc['discovered']} != {explicit}")
        if [size for _, size in doc["image_sizes"]] != src:
            raise AssertionError(f"{argv}: image sizes {doc['image_sizes']} != {src}")
        return sum(src)
    raise AssertionError(f"no oracle for {argv[0]}")


def check_class_expressions() -> None:
    """The verify workload parses S by its expression; it must be the
    explicit construction."""
    for j, expr in ((3, workloads.CLASSES["verify"][-2]), (4, workloads.CLASSES["verify"][-1])):
        if parse_class_expression(expr) != construct_S_explicit(4, j):
            raise AssertionError(f"{expr} is not construct_S_explicit(4, {j})")


def build() -> dict:
    check_class_expressions()
    doc: dict = {}
    for size in workloads.SIZES:
        answers = {}
        for name in workloads.NAMES:
            for argv in workloads.jobs(name, size):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
                stdout = buf.getvalue()
                nodes = cross_check(argv, stdout)
                answers[workloads.key(argv)] = {"exit": code, "nodes": nodes, "stdout": stdout}
                print(f"ok  {size:5}  {workloads.key(argv)}  ({nodes} nodes)", file=sys.stderr)
        doc[size] = answers
    return doc


def main_cli() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file instead of writing it")
    args = parser.parse_args()
    text = json.dumps(build(), indent=1, sort_keys=True) + "\n"
    if args.check:
        if REFERENCE.read_text() != text:
            print("reference.json is stale", file=sys.stderr)
            return 1
        print("reference.json is current", file=sys.stderr)
        return 0
    REFERENCE.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
