"""Command-line front end: every subcommand is a thin adapter over the
library, and ``_render`` writes its report in the chosen format, byte for
byte the same on every run:

- json: the report's dict (``as_json_dict()``, but for count), indented by 2;
- csv: a header line, then one comma-separated line per row;
- table: the header and rows in right-aligned columns, then the note lines,
  the verdict last. ``map``, ``basis`` and ``survey`` are free text: notes only.

Exit codes: 0 verified/equal/success, 1 verification failed (report carries
the counterexample), 2 usage error (an unwritable --out or stdout included),
3 experiment (neutral outcome by design).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .enumeration import DEFAULT_NODE_BUDGET, count_sequence
from .errors import ClassExpressionError, PatlabError, UsageError
from .maps import apply_named_map
from .patterns import MACRO_RE, parse_class_expression
from .perms import format_perm, parse_perm
from .verification import (
    certify_map,
    discover_basis,
    distant_growth_bounds,
    growth_diagnostics,
    sandwich_check,
    survey_almost_distant,
    verify_wilf,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_EXPERIMENT = 3

HARD_MAX_N = 12


# Built once per process: parsing does not change the parser, and a parser
# is a web of reference cycles that only the cyclic collector frees.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patlab",
        description="Exact enumeration, maps, and verification for distant and "
        "almost-distant permutation classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes --budget / --no-parallel only if it reads the value
    def common(
        p: argparse.ArgumentParser,
        formats=("csv", "json", "table"),
        budget: bool = True,
        parallel: bool = False,
    ) -> None:
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", default=None, help="write the report to this file")
        if budget:
            p.add_argument("--budget", type=int, default=None, help="node budget override")
        if parallel:
            p.add_argument("--no-parallel", action="store_true", help="force sequential traversal")

    p = sub.add_parser("count", help="count Av_n for a class expression")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, parallel=True)

    p = sub.add_parser("verify-wilf", help="compare two avoidance count sequences exactly")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, parallel=True)

    p = sub.add_parser("map", help="apply F, Finv, G, Ginv, or H to one permutation")
    p.add_argument("--map", dest="map_name", required=True, choices=["F", "Finv", "G", "Ginv", "H"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--perm", required=True)
    common(p, formats=("json", "table"), budget=False)

    p = sub.add_parser("certify", help="certify a map over fully enumerated classes")
    p.add_argument("--map", dest="map_name", required=True, choices=["F", "G", "H"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    common(p, formats=("json", "table"))

    p = sub.add_parser("basis", help="discover the forbidden basis of the image of H")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="maximum pattern length to search")
    common(p, formats=("json", "table"))

    p = sub.add_parser("sandwich", help="check the count sandwich around D(k,j)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("growth", help="finite-n growth diagnostics for a class")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, parallel=True)

    p = sub.add_parser("survey", help="group all almost-distant variants of a pattern (experiment)")
    p.add_argument("--perm", required=True, help="the underlying classical pattern")
    p.add_argument("--n", type=int, required=True)
    common(p, parallel=True)

    return parser


def _budget(args) -> int:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get("PATLAB_BUDGET")
        if env is None:
            return DEFAULT_NODE_BUDGET
        try:
            budget, source = int(env), "PATLAB_BUDGET"
        except ValueError:
            raise UsageError(f"PATLAB_BUDGET must be an integer, got {env!r}") from None
    if budget < 1:
        raise UsageError(f"{source} must be >= 1, got {budget}")
    return budget


def _check_n(n: int) -> int:
    if n < 0:
        raise UsageError(f"--n must be >= 0, got {n}")
    if n > HARD_MAX_N:
        raise UsageError(f"--n is capped at {HARD_MAX_N} regardless of budget, got {n}")
    return n


def _render(fmt: str, doc: dict, header=(), rows=(), notes=(), csv=None) -> str:
    """One report in one format. JSON is ``doc``; CSV is the rows of ``csv``
    (its header first), else ``header`` and ``rows``; a table is ``header``
    and ``rows`` right-aligned in columns, then one line per note."""
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(map(str, row)) for row in csv or [header, *rows]]
    else:
        cells = [[str(c) for c in row] for row in ([header, *rows] if header else [])]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
        lines.extend(notes)
    return "".join(line + "\n" for line in lines)


def cmd_count(args) -> tuple[int, str]:
    basis = parse_class_expression(args.klass)
    seq = count_sequence(
        _check_n(args.n), basis, parallel=not args.no_parallel, node_budget=_budget(args)
    )
    doc = {
        "class": basis.label,
        "max_n": args.n,
        "method": seq.method,
        "counts": [list(pair) for pair in seq.counts],
    }
    return EXIT_OK, _render(args.format, doc, ["n", "count"], seq.counts)


def cmd_verify_wilf(args) -> tuple[int, str]:
    left = parse_class_expression(args.left)
    right = parse_class_expression(args.right)
    report = verify_wilf(
        left, right, _check_n(args.n), parallel=not args.no_parallel, node_budget=_budget(args)
    )
    code = EXIT_OK if report.equal else EXIT_FAILED
    pairs = [(n, a, b) for (n, a), (_, b) in zip(report.left.counts, report.right.counts)]
    rows = [(n, a, b, "=" if a == b else "!") for n, a, b in pairs]
    verdict = "equal" if report.equal else f"diverges at n={report.diverges_at}"
    return code, _render(
        args.format,
        report.as_json_dict(),
        ["n", "left", "right", "eq"],
        rows,
        [f"verdict: {verdict}"],
        csv=[("n", "left", "right"), *pairs],
    )


def cmd_map(args) -> tuple[int, str]:
    p = parse_perm(args.perm)
    result = apply_named_map(args.map_name, p, args.k, i=args.i, j=args.j)
    return EXIT_OK, _render(args.format, result.as_json_dict(), notes=[format_perm(result.output)])


def cmd_certify(args) -> tuple[int, str]:
    report = certify_map(
        args.map_name,
        args.k,
        i=args.i,
        j=args.j,
        max_n=_check_n(args.n),
        node_budget=_budget(args),
    )
    code = EXIT_OK if report.certified else EXIT_FAILED
    head = ["n", "source", "target", "image", "in_target", "injective", "surjective", "roundtrip"]
    rows = [list(r.values()) for r in report.rows]  # certify_map's key order is the head's
    notes = []
    w = report.counterexample
    if w is not None:
        arrow = f": {w['input']} -> {w['output']}" if "input" in w else ""
        back = f", recovered {w['recovered']}" if "recovered" in w else ""
        notes.append(f"counterexample: n={w['n']}, {w['reason']}{arrow}{back}")
    notes.append(f"{report.expectation}: {'certified' if report.certified else 'FAILED'}")
    return code, _render(args.format, report.as_json_dict(), head, rows, notes)


def cmd_basis(args) -> tuple[int, str]:
    result = discover_basis(args.k, args.j, _check_n(args.n), node_budget=_budget(args))
    code = EXIT_OK if result.matches_predicted in (True, None) else EXIT_FAILED
    notes = ["discovered basis (minimal non-members of the image):"]
    notes.extend(f"  {format_perm(q)}" for q in result.discovered)
    if result.predicted is not None:
        notes.append(f"predicted: {result.predicted.label}")
        notes.append(f"match: {result.matches_predicted}")
    return code, _render(args.format, result.as_json_dict(), notes=notes)


def cmd_sandwich(args) -> tuple[int, str]:
    report = sandwich_check(args.k, args.j, _check_n(args.n), node_budget=_budget(args))
    head = ["n", "lower", "mid", "upper"]
    rows = [[r[key] for key in head] for r in report.rows]
    return EXIT_OK, _render(args.format, report.as_json_dict(), head, rows, ["verdict: holds"])


def cmd_growth(args) -> tuple[int, str]:
    basis = parse_class_expression(args.klass)
    bounds = None
    # reference bounds only when the whole expression is one D(k,j) macro
    m = MACRO_RE.match(args.klass)
    if m and m.group(1) == "D":
        bounds = distant_growth_bounds(int(m.group(2)))
    diag = growth_diagnostics(
        basis,
        _check_n(args.n),
        bounds,
        parallel=not args.no_parallel,
        node_budget=_budget(args),
    )
    doc = diag.as_json_dict()  # the one serializer of ratios and roots
    ratios = {r["n"]: r["ratio"] for r in doc["ratios"]}
    roots = {r["n"]: r["root"] for r in doc["roots"]}
    rows = [(n, c, ratios.get(n, "-"), roots.get(n, "-")) for n, c in diag.counts.counts]
    notes = ["note: finite-n diagnostics"]
    if diag.reference_bounds:
        notes.append("reference bounds: {}, {}".format(*diag.reference_bounds))
    return EXIT_OK, _render(
        args.format,
        doc,
        ["n", "count", "ratio", "root"],
        rows,
        notes,
        csv=[("n", "count"), *diag.counts.counts],
    )


def cmd_survey(args) -> tuple[int, str]:
    q = parse_perm(args.perm)
    report = survey_almost_distant(
        q, _check_n(args.n), parallel=not args.no_parallel, node_budget=_budget(args)
    )
    notes = ["EXPERIMENT: empirical Wilf groups"]
    for g, (counts, specs) in enumerate(report.groups):
        notes.append(f"group {g}: specs {list(specs)}")
        notes.append(f"  counts {list(counts)}")
    csv = [("group", "j", "i")]
    csv.extend((g, j, i) for g, (_, specs) in enumerate(report.groups) for j, i in specs)
    return EXIT_EXPERIMENT, _render(args.format, report.as_json_dict(), notes=notes, csv=csv)


_COMMANDS = {
    "count": cmd_count,
    "verify-wilf": cmd_verify_wilf,
    "map": cmd_map,
    "certify": cmd_certify,
    "basis": cmd_basis,
    "sandwich": cmd_sandwich,
    "growth": cmd_growth,
    "survey": cmd_survey,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = _COMMANDS[args.command](args)
    except ClassExpressionError as exc:
        print(exc.caret_diagnostic(), file=sys.stderr)
        return exc.exit_code
    except PatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        where = f"--out {args.out!r}" if args.out else "stdout"
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        if not args.out:
            # The unwritten bytes stay buffered and would fail again (exit 120)
            # in the flush at exit, which skips closed streams; fd 1 stays open.
            with contextlib.suppress(OSError):
                sys.stdout.close()
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
