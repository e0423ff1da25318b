"""Tests of the installed package as a whole."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polphase

SRC = Path(polphase.__file__).resolve().parent


def test_import_needs_only_numpy():
    # scipy is a test-only dependency: importing the library must not load it
    src = Path(polphase.__file__).resolve().parents[1]
    code = "import sys, polphase; print(polphase.__file__); print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    path, loaded = out.stdout.split()
    assert Path(path).resolve().is_relative_to(src)
    assert loaded == "False"


# ---------------------------------------------------------------------------
# layering, read off the source with ast

def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _polphase_imports(tree: ast.Module):
    """(polphase module, name imported from it or None, local binding) of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.partition(".")[0] != "polphase":
                    continue
                base = base.partition(".")[2]
            elif node.level != 1:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if base:  # from .module import name
                    yield base, alias.name, local
                else:  # from . import module
                    yield alias.name, None, local
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "polphase":
                    yield alias.name.partition(".")[2], None, alias.asname or alias.name


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _private(name: str) -> bool:
    # dunders such as __version__ are public by convention
    return name.startswith("_") and not name.startswith("__")


def test_cli_uses_only_the_public_api():
    tree = _parse("cli")
    modules = set()
    offenders = []
    for module, name, local in _polphase_imports(tree):
        if name is None:
            modules.add(local)
        elif _private(name):
            offenders.append(f"{module}.{name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and _dotted(node.value) in modules:
            offenders.append(f"{_dotted(node.value)}.{node.attr} (line {node.lineno})")
    assert offenders == []


@pytest.mark.parametrize("module", ["polarimetry", "interferometer"])
def test_measurement_models_do_not_import_fringes(module):
    assert "fringes" not in {source for source, _, _ in _polphase_imports(_parse(module))}
