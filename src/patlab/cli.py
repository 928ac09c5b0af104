"""Command-line front end. Every subcommand is declared once, in
``_COMMANDS``: its adapter, help line, flags, --format choices, and whether
it takes --budget and --no-parallel. ``build_parser`` builds the parser from
that table and ``main`` dispatches through it. Each adapter is a thin layer
over the library, and ``_render`` writes its report in the chosen format,
byte for byte the same on every run:

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

from . import maps
from .enumeration import DEFAULT_NODE_BUDGET, count_sequence
from .errors import ClassExpressionError, PatlabError, UsageError
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
    name, p = args.map_name, parse_perm(args.perm)
    x = maps._param(name, args.i, args.j)
    if name == "Finv":  # invert_F also checks that F maps its result back
        result = maps.invert_F(p, args.k, x)
    else:
        result = maps._apply(name, p, args.k, x, True)
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


_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_OPTIONAL_INT = {"type": int, "default": None}
_CLASS = {"dest": "klass", "required": True}
_MAP = {"dest": "map_name", "required": True}
_ALL = ("csv", "json", "table")
_JSON_TABLE = ("json", "table")

# Every command, declared once: name: (adapter, help line, its own flags as
# add_argument keywords in --help order, --format choices, takes --budget,
# takes --no-parallel). It takes --budget / --no-parallel only if it reads it.
_COMMANDS = {
    "count": (cmd_count, "count Av_n for a class expression",
              {"--class": _CLASS, "--n": _INT}, _ALL, True, True),
    "verify-wilf": (cmd_verify_wilf, "compare two avoidance count sequences exactly",
                    {"--left": _REQUIRED, "--right": _REQUIRED, "--n": _INT}, _ALL, True, True),
    "map": (cmd_map, "apply F, Finv, G, Ginv, or H to one permutation",
            {"--map": {**_MAP, "choices": ["F", "Finv", "G", "Ginv", "H"]}, "--k": _INT,
             "--i": _OPTIONAL_INT, "--j": _OPTIONAL_INT, "--perm": _REQUIRED},
            _JSON_TABLE, False, False),
    "certify": (cmd_certify, "certify a map over fully enumerated classes",
                {"--map": {**_MAP, "choices": ["F", "G", "H"]}, "--k": _INT,
                 "--i": _OPTIONAL_INT, "--j": _OPTIONAL_INT, "--n": _INT},
                _JSON_TABLE, True, False),
    "basis": (cmd_basis, "discover the forbidden basis of the image of H",
              {"--k": _INT, "--j": _INT,
               "--n": {**_INT, "help": "maximum pattern length to search"}},
              _JSON_TABLE, True, False),
    "sandwich": (cmd_sandwich, "check the count sandwich around D(k,j)",
                 {"--k": _INT, "--j": _INT, "--n": _INT}, _ALL, True, False),
    "growth": (cmd_growth, "finite-n growth diagnostics for a class",
               {"--class": _CLASS, "--n": _INT}, _ALL, True, True),
    "survey": (cmd_survey, "group all almost-distant variants of a pattern (experiment)",
               {"--perm": {**_REQUIRED, "help": "the underlying classical pattern"}, "--n": _INT},
               _ALL, True, True),
}


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
    for name, (_, help_line, flags, formats, budget, parallel) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", default=None, help="write the report to this file")
        if budget:
            p.add_argument("--budget", type=int, default=None, help="node budget override")
        if parallel:
            p.add_argument("--no-parallel", action="store_true", help="force sequential traversal")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = _COMMANDS[args.command][0](args)
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
