"""Smoke test of the benchmark itself, at tiny sizes (n <= 6).

    python3 -m pytest -q perfbench/smoke_test.py

Checks that every workload of BENCHMARK.json prints every metric it names,
with its unit, and no failed job; that the reference answers are current
and agree with the oracles; that a silent sequential fallback counts as a
failure; and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric(workload: str, trace: int) -> None:
    done = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    *_, detail_line, result_line = done.stdout.splitlines()
    detail, result = json.loads(detail_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and detail["ops_failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_reference_is_current() -> None:
    done = subprocess.run(
        [sys.executable, "perfbench/make_reference.py", "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr


def test_fallback_without_workers_fails() -> None:
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    argv = workloads.jobs("wilf-chain", "full")[0]
    reference = json.loads((HERE / "reference.json").read_text())["full"]
    answer = reference[workloads.key(argv)]

    class SequentialCli:
        """Prints the right answer without forking any worker."""

        @staticmethod
        def main(argv):
            sys.stdout.write(answer["stdout"])
            return 0

    runner = run.Runner(SequentialCli, reference, parallel_min_n=8)
    with contextlib.redirect_stderr(io.StringIO()):
        runner.run(argv)
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "fell back" in runner.failures[0]


def test_refuses_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
