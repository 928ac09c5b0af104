"""Code outside the package that imports patlab: the scripts and the
benchmark harness. A name they use must not disappear silently; the tracer,
for one, only prints a note to stderr and records nothing for that layer.
The ``>>>`` examples in the package's docstrings run here too."""

import ast
import contextlib
import doctest
import importlib
import importlib.util
import io
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import patlab
from patlab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load(PERFBENCH / "workloads.py")
SMOKE_JOBS = [argv for name in WORKLOADS.NAMES for argv in WORKLOADS.jobs(name, "smoke")]


def _patlab_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """Every (module, name) pair of a ``from patlab... import name``."""
    tree = ast.parse(path.read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("patlab")
        for alias in node.names
    ]


def test_tracer_targets_resolve():
    tracer = _load(PERFBENCH / "tracer.py")
    for module_name, attr, span in (tracer.ROOT,) + tracer.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr, span)


def test_package_imports_are_used_or_traced():
    # an import kept only for the tracer must be on its target list for that
    # module, so that it goes when the target does
    tracer = _load(PERFBENCH / "tracer.py")
    traced = {(module, attr) for module, attr, _ in tracer.TARGETS}
    package = pathlib.Path(patlab.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the re-exports
        module = f"patlab.{path.stem}"
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and (module, name) not in traced:
                    unused.append((module, name))
    assert unused == []


@pytest.mark.parametrize("script", ["probe.py", "make_reference.py", "run.py"])
def test_benchmark_imports_resolve(script):
    pairs = _patlab_imports(PERFBENCH / script)
    assert pairs
    for module_name, name in pairs:
        module = importlib.import_module(module_name)
        assert hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}"), (
            script, module_name, name,
        )


def test_survey_script_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "survey_open_questions.py"), "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3, done.stderr
    assert "EXPERIMENT 1:" in done.stdout
    assert "EXPERIMENT 2:" in done.stdout


@pytest.mark.parametrize("argv", SMOKE_JOBS, ids=[WORKLOADS.key(a) for a in SMOKE_JOBS])
def test_benchmark_smoke_jobs_match_reference(argv):
    want = json.loads((PERFBENCH / "reference.json").read_text())["smoke"][WORKLOADS.key(argv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == want["exit"]
    assert out.getvalue() == want["stdout"]


def test_docstring_examples():
    modules = [patlab] + [
        importlib.import_module(f"patlab.{info.name}")
        for info in pkgutil.iter_modules(patlab.__path__)
    ]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted >= 10  # so that finding no examples cannot pass
