"""Every name the package and its modules export through ``__all__`` resolves,
and has a use outside the tests: code only the tests call lives in
``tests/oracles.py``."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import spectral_edge

MODULES = ["spectral_edge"] + [f"spectral_edge.{m.name}"
                               for m in pkgutil.iter_modules(spectral_edge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


ROOT = Path(__file__).resolve().parents[1]
# Where a use counts: the library itself, the scripts and the benchmark.
USE_DIRS = ("src", "scripts", "perfbench")


def _use_lines() -> list:
    """Every line of the Python files in USE_DIRS, less each ``__all__`` list."""
    lines = []
    for d in USE_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            text = path.read_text().splitlines()
            skip = set()
            for node in ast.parse("\n".join(text)).body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    skip.update(range(node.lineno - 1, node.end_lineno))
            lines += [line for i, line in enumerate(text) if i not in skip]
    return lines


def test_every_export_is_used_outside_tests():
    lines = _use_lines()
    unused = []
    for name in MODULES:
        for export in getattr(importlib.import_module(name), "__all__", []):
            word = re.compile(rf"\b{re.escape(export)}\b")
            definition = re.compile(rf"^\s*(def|class)\s+{re.escape(export)}\b")
            if not any(word.search(line) and not definition.match(line) for line in lines):
                unused.append(f"{name}.{export}")
    assert unused == []


def test_only_the_cli_and_sampler_import_csv():
    # the CLI writes every output file but samples.csv, which sampler writes
    # and reads back
    importers = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.add(path.name)
    assert sorted(importers) == ["cli.py", "sampler.py"]


def test_every_determinant_goes_through_fredholm_det():
    # specialfn.fredholm_det takes every determinant; the only other linalg
    # call is the Newton step of the support solve
    calls = {(path.name, fn) for path in sorted((ROOT / "src").rglob("*.py"))
             for fn in re.findall(r"\blinalg\.(\w+)\(", path.read_text())}
    assert calls == {("specialfn.py", "det"), ("equilibrium.py", "solve")}
