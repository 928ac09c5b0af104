"""The command-line surface: outputs, exit codes, determinism."""

import argparse
import contextlib
import errno
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import patlab
from patlab import maps
from patlab.cli import build_parser, main
from patlab.patterns import MAX_UNDERLYING

GOLDEN = pathlib.Path(__file__).parent / "golden" / "v1"
SRC = pathlib.Path(patlab.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_csv_matches_golden(self, capsys):
        code, out, _ = run(
            capsys, "count", "--class", "M(3,2,2)", "--n", "9", "--format", "csv"
        )
        assert code == 0
        assert out == (GOLDEN / "M(3,2,2).csv").read_text()

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--class", "123", "--n", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == [[0, 1], [1, 1], [2, 2], [3, 5], [4, 14]]
        assert doc["method"] == "pruned_tree"

    def test_table_default(self, capsys):
        code, out, _ = run(capsys, "count", "--class", "21", "--n", "2")
        assert code == 0
        assert out.splitlines()[0].split() == ["n", "count"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "count", "--class", "123", "--n", "3", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "n,count\n0,1\n1,1\n2,2\n3,5\n"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.csv"
        code, out, err = run(
            capsys, "count", "--class", "123", "--n", "3", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "report.csv" in err


# stdout, stderr and exit code of every command x format and of the usage
# errors, written by scripts/make_golden.py; stderr is None where argparse
# refuses the argv, as its wording differs across Python versions
TRANSCRIPTS = json.loads((GOLDEN / "cli_transcripts.json").read_text())
_TRANSCRIPT_IDS = [
    shlex.join([f"{name}={value}" for name, value in entry.get("env", {}).items()] + entry["argv"])
    for entry in TRANSCRIPTS
]


def replay(capsys, monkeypatch, entry, *extra):
    monkeypatch.delenv("PATLAB_BUDGET", raising=False)
    for name, value in entry.get("env", {}).items():
        monkeypatch.setenv(name, value)
    try:
        code = main(entry["argv"] + list(extra))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTranscripts:
    @pytest.mark.parametrize("entry", TRANSCRIPTS, ids=_TRANSCRIPT_IDS)
    def test_replays_byte_for_byte(self, capsys, monkeypatch, entry):
        code, out, err = replay(capsys, monkeypatch, entry)
        assert (code, out) == (entry["exit"], entry["stdout"])
        if entry["stderr"] is not None:
            assert err == entry["stderr"]

    @pytest.mark.parametrize("entry", TRANSCRIPTS, ids=_TRANSCRIPT_IDS)
    def test_out_file_holds_the_stdout_bytes(self, capsys, monkeypatch, tmp_path, entry):
        target = tmp_path / "report"
        code, out, err = replay(capsys, monkeypatch, entry, "--out", str(target))
        assert (code, out) == (entry["exit"], "")
        assert (target.read_text() if target.exists() else "") == entry["stdout"]
        if entry["stderr"] is not None:
            assert err == entry["stderr"]

    def test_no_stdout_line_ends_in_whitespace(self):
        trailing = [
            (entry["argv"], line)
            for entry in TRANSCRIPTS
            for line in entry["stdout"].splitlines()
            if line != line.rstrip()
        ]
        assert trailing == []

    def test_every_command_and_format_is_pinned(self):
        pinned = {
            (entry["argv"][0], entry["argv"][entry["argv"].index("--format") + 1])
            for entry in TRANSCRIPTS
            if entry["exit"] != 2 and "--format" in entry["argv"]
        }
        assert pinned == {
            (command, fmt) for command, (_, _, formats) in _FLAGS.items() for fmt in formats
        }


class _BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class TestUnwritableStdout:
    def test_broken_pipe_is_usage_error(self, capsys, monkeypatch):
        broken = _BrokenStdout()
        monkeypatch.setattr(sys, "stdout", broken)
        code = main(["count", "--class", "123", "--n", "3"])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
        assert broken.closed

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_two_with_one_line(self):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "patlab.cli", "count", "--class", "123", "--n", "5"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}"
        ]


# A cold interpreter imports the CLI and parses the five M(4,t,t), then runs
# one growth command, whose ratios and roots load fractions and decimal.
# dataclasses would pull in inspect; decimal and fractions serve growth only.
_COLD_START = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from patlab import cli
from patlab.patterns import parse_class_expression
for t in range(1, 6):
    parse_class_expression(f"M(4,{t},{t})")
loaded = [name for name in ("dataclasses", "inspect", "decimal", "fractions")
          if name in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["growth", "--class", "D(4,2)", "--n", "6", "--format", "json"])
print(json.dumps({"loaded": loaded, "exit": code, "stdout": out.getvalue()}))
"""


class TestStartUp:
    def test_cli_imports_neither_dataclasses_nor_decimal_until_growth(self):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _COLD_START, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
            env={name: value for name, value in os.environ.items() if name != "PATLAB_BUDGET"},
        )
        result = json.loads(done.stdout)
        assert result["loaded"] == []
        golden = next(entry for entry in TRANSCRIPTS
                      if entry["argv"] == ["growth", "--class", "D(4,2)", "--n", "6",
                                           "--format", "json"])
        assert (result["exit"], result["stdout"]) == (golden["exit"], golden["stdout"])


class TestDeterminism:
    def test_identical_bytes_across_runs_and_modes(self, capsys):
        results = []
        for extra in ([], [], ["--no-parallel"]):
            code, out, _ = run(
                capsys,
                "count", "--class", "M(3,2,2)", "--n", "8", "--format", "json", *extra,
            )
            assert code == 0
            results.append(out)
        assert results[0] == results[1] == results[2]


class TestVerifyWilf:
    def test_equal_exits_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-wilf", "--left", "M(4,1,1)", "--right", "M(4,5,5)", "--n", "6",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "equal"

    def test_divergent_exits_one(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-wilf", "--left", "123", "--right", "12", "--n", "4", "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["witnesses"][0]["n"] == 2

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-wilf", "--left", "123", "--right", "321", "--n", "3", "--format", "csv",
        )
        assert code == 0
        assert out == "n,left,right\n0,1,1\n1,1,1\n2,2,2\n3,5,5\n"


class TestMap:
    def test_reference_vector_table(self, capsys):
        code, out, _ = run(
            capsys,
            "map", "--map", "F", "--k", "4", "--i", "2",
            "--perm", "8 3 2 11 12 5 6 9 10 14 4 1 13 7",
        )
        assert code == 0
        assert out == "8 3 2 11 5 14 4 1 9 10 12 13 6 7\n"

    def test_inverse_recovers(self, capsys):
        code, out, _ = run(
            capsys,
            "map", "--map", "Finv", "--k", "4", "--i", "2",
            "--perm", "8 3 2 11 5 14 4 1 9 10 12 13 6 7",
        )
        assert code == 0
        assert out == "8 3 2 11 12 5 6 9 10 14 4 1 13 7\n"

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "map", "--map", "H", "--k", "4", "--j", "3", "--perm", "132465",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["map"] == "H"
        assert doc["output"] == "123465"
        assert doc["class_checks"] == {"pre": True, "post": True}

    def test_domain_error_is_usage(self, capsys):
        code, _, err = run(
            capsys, "map", "--map", "G", "--k", "3", "--perm", "2134"
        )
        assert code == 2
        assert "not in Av" in err

    def test_missing_step_index(self, capsys):
        code, _, err = run(capsys, "map", "--map", "F", "--k", "3", "--perm", "123")
        assert code == 2

    def test_parameter_the_map_does_not_take(self, capsys):
        code, out, err = run(
            capsys, "map", "--map", "G", "--k", "3", "--i", "7", "--j", "9", "--perm", "12345"
        )
        assert (code, out, err) == (2, "", "error: map G takes no --i\n")

    def test_perm_is_parsed_before_the_parameters(self, capsys):
        code, _, err = run(capsys, "map", "--map", "G", "--k", "3", "--i", "7", "--perm", "+2 1")
        assert (code, err) == (2, "error: bad permutation text: '+2 1'\n")


class TestCertify:
    def test_F(self, capsys):
        code, out, _ = run(
            capsys,
            "certify", "--map", "F", "--k", "3", "--i", "0", "--n", "6",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_H_reports_deficit(self, capsys):
        code, out, _ = run(
            capsys,
            "certify", "--map", "H", "--k", "4", "--j", "3", "--n", "6",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["expectation"] == "injection"

    @pytest.mark.parametrize("argv, message", [
        (["--map", "F", "--k", "4", "--i", "1", "--j", "9"], "map F takes no --j"),
        (["--map", "H", "--k", "4", "--i", "5", "--j", "3"], "map H takes no --i"),
        (["--map", "G", "--k", "3", "--i", "5"], "map G takes no --i"),
    ], ids=["F-j", "H-i", "G-i"])
    def test_parameter_the_map_does_not_take(self, capsys, argv, message):
        code, out, err = run(capsys, "certify", *argv, "--n", "3")
        assert (code, out, err) == (2, "", f"error: {message}\n")


def _identity_map(p, *args):
    return p, ()


def _constant_map(p, *args):
    return tuple(range(len(p), 0, -1)), ()


class TestCertifyFailures:
    """A broken kernel patched into maps: the table names the witness
    on the line before the verdict, which stays last."""

    @pytest.mark.parametrize("argv, attr, broken, tail", [
        (["--map", "F", "--k", "3", "--i", "0"], "_f_kernel", _identity_map, [
            "counterexample: n=4, image leaves the target class: 1324 -> 1324",
            "bijection: FAILED",
        ]),
        (["--map", "H", "--k", "4", "--j", "3"], "_window_kernel", _constant_map, [
            "counterexample: n=2, two inputs share an output",
            "injection: FAILED",
        ]),
        (["--map", "G", "--k", "3"], "_window_kernel", _constant_map, [
            "counterexample: n=2, roundtrip failed: 12 -> 21, recovered 21",
            "bijection: FAILED",
        ]),
    ], ids=["F-identity", "H-constant", "G-constant"])
    def test_table_names_the_witness(self, capsys, monkeypatch, argv, attr, broken, tail):
        monkeypatch.setattr(maps, attr, broken)
        code, out, _ = run(capsys, "certify", *argv, "--n", "5")
        assert code == 1
        assert out.splitlines()[-2:] == tail
        assert out.endswith(": FAILED\n")

    def test_in_target_column_reads_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(maps, "_f_kernel", _identity_map)
        argv = ["certify", "--map", "F", "--k", "3", "--i", "0", "--n", "5"]
        _, out, _ = run(capsys, *argv)
        _, doc, _ = run(capsys, *argv, "--format", "json")
        head, *rows = out.splitlines()[:7]
        column = head.split().index("in_target")
        shown = {int(row.split()[0]): row.split()[column] for row in rows}
        assert shown == {row["n"]: str(row["image_in_target"]) for row in json.loads(doc)["rows"]}
        # the identity leaves M(3,2,2) at 1324 (n=4) and above
        assert [n for n, cell in shown.items() if cell == "False"] == [4, 5]


class TestBasis:
    def test_discovery_matches_prediction(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--k", "3", "--j", "3", "--n", "6", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "matches-predicted"
        assert "31245" in doc["discovered"]


class TestSandwich:
    def test_holds(self, capsys):
        code, out, _ = run(
            capsys, "sandwich", "--k", "3", "--j", "2", "--n", "6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"


class TestGrowth:
    def test_reference_bounds_for_distant_macro(self, capsys):
        code, out, _ = run(
            capsys, "growth", "--class", "D(4,2)", "--n", "6", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reference_bounds"] == [9.0, 10.0]
        assert doc["note"] == "finite-n diagnostics"

    @pytest.mark.parametrize("expr,bounds", [
        (" D( 4 , 2 ) ", [9.0, 10.0]),
        ("D(4,2);123456", None),
        ("12#34", None),
        ("M(4,2,2)", None),
    ])
    def test_reference_bounds_only_for_a_lone_distant_macro(self, capsys, expr, bounds):
        code, out, _ = run(capsys, "growth", "--class", expr, "--n", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["reference_bounds"] == bounds

    def test_table_ratios_match_json(self, capsys):
        # Av_n(1) is empty for n >= 1: the ratio at n=1 is 0/1, not a blank
        _, table, _ = run(capsys, "growth", "--class", "1", "--n", "3")
        _, doc, _ = run(capsys, "growth", "--class", "1", "--n", "3", "--format", "json")
        rows = [line.split() for line in table.splitlines()[1:5]]
        assert {int(n): ratio for n, _, ratio, _ in rows if ratio != "-"} == {
            r["n"]: r["ratio"] for r in json.loads(doc)["ratios"]
        }

    def test_table_labels_diagnostics(self, capsys):
        code, out, _ = run(capsys, "growth", "--class", "123", "--n", "5")
        assert code == 0
        assert "finite-n diagnostics" in out


class TestSurvey:
    def test_exits_experiment(self, capsys):
        code, out, _ = run(
            capsys, "survey", "--perm", "123", "--n", "5", "--format", "json"
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "experiment"


class TestUsageErrors:
    def test_parse_error_has_caret(self, capsys):
        code, out, err = run(capsys, "count", "--class", "1#2#3", "--n", "4")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith("error:")
        assert "^" in lines[2]

    # '²' passes str.isdigit() but not int(); it is a usage error, not a crash
    @pytest.mark.parametrize("argv", [
        ["count", "--class", "²", "--n", "3"],
        ["count", "--class", "1[²]2", "--n", "3"],
        ["map", "--map", "G", "--k", "3", "--perm", "²"],
    ], ids=["class", "class-bracket", "perm"])
    def test_superscript_digit_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith("error:")
        assert not any(line.startswith("error:") for line in lines[1:])
        assert "Traceback" not in err

    @pytest.mark.parametrize("expr", [
        "M(" + "1" * 5000 + ",1,1)",
        "1 " + "1" * 5000,
        "1[" + "1" * 5000 + "]2",
    ], ids=["macro", "letter", "bracket"])
    def test_long_number_is_usage_error(self, capsys, expr):
        code, out, err = run(capsys, "count", "--class", expr, "--n", "3")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == "error: number too long (5000 digits)"
        assert not any(line.startswith("error:") for line in lines[1:])
        assert "Traceback" not in err

    def test_hard_cap(self, capsys):
        code, _, err = run(capsys, "count", "--class", "123", "--n", "13")
        assert code == 2
        assert "capped at 12" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys, "count", "--class", "123", "--n", "8", "--budget", "10"
        )
        assert code == 2
        assert "budget" in err

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PATLAB_BUDGET", "10")
        code, _, err = run(capsys, "count", "--class", "123", "--n", "8")
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_budget_flag(self, capsys, value):
        code, out, err = run(capsys, "count", "--class", "123", "--n", "3", "--budget", value)
        assert code == 2
        assert out == ""
        assert "--budget must be >= 1" in err

    def test_non_positive_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PATLAB_BUDGET", "0")
        code, out, err = run(capsys, "count", "--class", "123", "--n", "3")
        assert code == 2
        assert out == ""
        assert "PATLAB_BUDGET must be >= 1" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PATLAB_BUDGET", "10")
        code, out, _ = run(
            capsys, "count", "--class", "123", "--n", "5", "--budget", "100000",
            "--format", "csv",
        )
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["count", "--class", "M(100000,1,1)", "--n", "3"],
        ["count", "--class", "D(100000,2)", "--n", "3"],
        ["map", "--map", "G", "--k", "100000", "--perm", "12"],
        ["certify", "--map", "G", "--k", "100000", "--n", "3"],
        ["sandwich", "--k", str(10**30), "--j", "3", "--n", "3"],
    ], ids=["M-macro", "D-macro", "map", "certify", "sandwich"])
    def test_huge_k_is_refused_before_any_pattern_is_built(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err.startswith("error: underlying pattern of length ")
        assert f"too long for a distant pattern (at most {MAX_UNDERLYING})" in err

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--map", "F", "--k", "3", "--i", "0", "--n", "4", "--no-parallel"],
        ["basis", "--k", "3", "--j", "3", "--n", "4", "--no-parallel"],
        ["sandwich", "--k", "3", "--j", "2", "--n", "4", "--no-parallel"],
        ["map", "--map", "F", "--k", "3", "--i", "0", "--perm", "123", "--budget", "5"],
    ], ids=["certify-no-parallel", "basis-no-parallel", "sandwich-no-parallel", "map-budget"])
    def test_flag_the_command_ignores_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# -- argv fuzz: the exit-code contract holds for every input ----------------

_HUGE = st.integers(10**6, 10**40) | st.integers(-(10**40), -(10**6))
# mostly in range, so that many examples get past the usage checks
_N = st.one_of(st.integers(0, 6), st.integers(0, 6), st.integers(-3, 12), _HUGE).map(str)
_IJ = st.one_of(st.integers(0, 4), st.integers(2, 4), st.integers(-3, 9), _HUGE).map(str)
# k runs past the cap on distant patterns (MAX_UNDERLYING) to huge values,
# which must be refused before any pattern is built.
_K = st.one_of(
    st.integers(2, 4), st.integers(2, 4), st.integers(-2, MAX_UNDERLYING + 2), _HUGE
).map(str)
# --budget is at most PATLAB_BUDGET, so no example outgrows it.
_BUDGET = st.one_of(
    st.integers(1000, 3000), st.integers(-3, 3000), st.integers(-(10**40), -(10**6))
).map(str)
_COMPACT = st.integers(1, 5).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
    lambda p: "".join(map(str, p))
)
_VALID_PART = st.one_of(
    st.builds("M({},{},{})".format, st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
    st.builds("D({},{})".format, st.integers(1, 4), st.integers(1, 5)),
    _COMPACT,
    st.builds(lambda p, t: p[:t] + "#" + p[t:], _COMPACT, st.integers(0, 5)),
)
_JUNK_PART = st.one_of(
    st.lists(
        st.sampled_from(list("123456789#") + ["[2]", "[9]", "[", "]", "0", " ", "x", "#^2", "²"]),
        max_size=7,
    ).map("".join),
    st.builds(
        lambda name, args: f"{name}({','.join(map(str, args))})",
        st.sampled_from(["M", "D"]),
        st.lists(st.integers(0, 6), max_size=4),
    ),
)
_CLASS = st.lists(_VALID_PART | _VALID_PART | _JUNK_PART, min_size=1, max_size=2).map(";".join)
_PERM = (
    st.integers(0, 8).flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda p: "".join(map(str, p)))
    | st.sampled_from(
        ["", "12x", "1 1", "0", "21 3", "3 1 2", "8 3 2 11 12 5 6 9 10 14 4 1 13 7", "²"]
    )
)
# survey counts (k+1)^2 variants of its pattern, so its perms stay short.
_SHORT_PERM = st.sampled_from(["", "1", "12", "21", "132", "2413", "x", "11", "0"])
_ALL_FORMATS = ("csv", "json", "table")
_JSON_TABLE = ("json", "table")

# command: (required flags, optional flags, --format choices); None marks a
# flag without a value
_FLAGS = {
    "count": ({"--class": _CLASS, "--n": _N}, {"--budget": _BUDGET, "--no-parallel": None},
              _ALL_FORMATS),
    "verify-wilf": ({"--left": _CLASS, "--right": _CLASS, "--n": _N},
                    {"--budget": _BUDGET, "--no-parallel": None}, _ALL_FORMATS),
    "map": ({"--map": st.sampled_from(["F", "Finv", "G", "Ginv", "H"]), "--k": _K, "--perm": _PERM},
            {"--i": _IJ, "--j": _IJ}, _JSON_TABLE),
    "certify": ({"--map": st.sampled_from(["F", "G", "H"]), "--k": _K, "--n": _N},
                {"--i": _IJ, "--j": _IJ, "--budget": _BUDGET}, _JSON_TABLE),
    "basis": ({"--k": _K, "--j": _IJ, "--n": _N}, {"--budget": _BUDGET}, _JSON_TABLE),
    "sandwich": ({"--k": _K, "--j": _IJ, "--n": _N}, {"--budget": _BUDGET}, _ALL_FORMATS),
    "growth": ({"--class": _CLASS, "--n": _N}, {"--budget": _BUDGET, "--no-parallel": None},
               _ALL_FORMATS),
    "survey": ({"--perm": _SHORT_PERM, "--n": _N}, {"--budget": _BUDGET, "--no-parallel": None},
               _ALL_FORMATS),
}
# what argparse must refuse: a flag or a value no command takes
_STRAY = [["--bogus"], ["--format", "xml"], ["--map", "K"], ["--no-parallel"], ["--budget"]]


class TestParser:
    """The parser built from the command table agrees with ``_FLAGS``."""

    @staticmethod
    def subparsers() -> dict:
        parser = build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_commands_are_the_fuzzed_ones(self):
        assert list(self.subparsers()) == list(_FLAGS)

    @pytest.mark.parametrize("command", list(_FLAGS))
    def test_flags_and_formats_are_the_fuzzed_ones(self, command):
        required, optional, formats = _FLAGS[command]
        actions = {a.option_strings[-1]: a for a in self.subparsers()[command]._actions}
        assert set(actions) == {"--help", *required, *optional, "--format", "--out"}
        assert {flag for flag, a in actions.items() if a.required} == set(required)
        assert tuple(actions["--format"].choices) == formats
        assert actions["--format"].default == "table"

    # argparse formats help only when asked, so a bad help string fails here
    @pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in _FLAGS])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: patlab")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional, formats = _FLAGS[command]
    # now and then one required flag is left out, or a stray one added
    missing = draw(st.sampled_from([None] * 19 + list(required)))
    chosen = {flag: values for flag, values in required.items() if flag != missing}
    chosen.update((flag, values) for flag, values in optional.items() if draw(st.booleans()))
    chosen["--format"] = st.sampled_from(formats)
    argv = [command]
    for flag, values in chosen.items():
        argv.append(flag)
        if values is not None:
            argv.append(draw(values))
    return argv + draw(st.sampled_from([[]] * 19 + _STRAY))


def _reports_failure(command: str, out: str) -> bool:
    """Whether stdout holds a report whose verdict is a failure."""
    if out.startswith("{"):
        verdict = json.loads(out).get("verdict")
        return verdict in ("diverges_at", "failed", "prediction-mismatch")
    if command == "verify-wilf" and out.startswith("n,left,right\n"):
        rows = [line.split(",") for line in out.splitlines()[1:]]
        return any(left != right for _, left, right in rows)
    if command == "verify-wilf":
        return "verdict: diverges at n=" in out
    if command == "certify":
        return out.endswith(": FAILED\n")
    return command == "basis" and "match: False" in out


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_argv_fuzz_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"PATLAB_BUDGET": "3000"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        assert _reports_failure(argv[0], out.getvalue()), argv
