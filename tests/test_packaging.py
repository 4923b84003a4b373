"""Every third-party module the package imports is declared in pyproject.toml,
and the package forks its child processes at one place."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "qmetric"


def _imported_modules(source: str) -> set:
    """Top-level names of the absolute imports in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _undeclared(sources, declared) -> set:
    """Imported names that are neither standard library, the package itself nor declared."""
    imported = set().union(*(_imported_modules(src) for src in sources))
    return {name for name in imported
            if name not in sys.stdlib_module_names and name != PACKAGE
            and name.lower().replace("-", "_") not in declared}


def _declared_dependencies() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
            for req in project.get("dependencies", [])}


def test_package_imports_only_declared_dependencies():
    sources = [path.read_text() for path in sorted((ROOT / "src" / PACKAGE).rglob("*.py"))]
    assert sources
    assert _undeclared(sources, _declared_dependencies()) == set()


def test_undeclared_import_is_reported():
    sources = ["import json\nfrom __future__ import annotations\nfrom . import spectral\n",
               "import numpy as np\nfrom numpy.lib import stride_tricks\n",
               "from scipy.linalg import eigh\nimport qmetric.kernels\n"]
    assert _undeclared(sources, {"numpy"}) == {"scipy"}


def _fork_calls(source: str) -> int:
    """Calls of os.fork in a module's source."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "fork" and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "os"
               for node in ast.walk(ast.parse(source)))


def test_one_fork_call_site():
    # every child process comes from kernels.ForkedWriter.run
    sources = [path.read_text() for path in sorted((ROOT / "src" / PACKAGE).rglob("*.py"))]
    assert sum(_fork_calls(src) for src in sources) == 1
    assert _fork_calls("import os\npid = os.fork()\nos.fork\nother.fork()\n") == 1
