"""Checks on the package source that stand in for a linter.

An import the module never uses is dead weight a reader has to rule out.
The one kind allowed is a name the benchmark tracer patches on that module
(`perfbench/tracing.layer_targets`): it is imported so that the patch has a
name to replace, whether or not the module calls it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import femselect
from femselect import cli, runner, swarm

PACKAGE = Path(femselect.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.fixture(scope="module")
def patched_names():
    """(module name, attribute) of every module attribute the tracer patches."""
    spec = importlib.util.spec_from_file_location("source_check_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {
        (owner.__name__, attr)
        for owner, attr, _ in tracing.layer_targets(cli, runner, swarm)
        if not isinstance(owner, type)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path, patched_names):
    module = f"femselect.{path.stem}"
    unused = [n for n in unused_imports(path.read_text()) if (module, n) not in patched_names]
    assert unused == [], f"{module} imports names it never uses: {unused}"


def test_check_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, pi\n"
        "def f() -> float:\n"
        "    return np.sum([pi])\n"
    )
    assert unused_imports(source) == ["inf", "os"]
