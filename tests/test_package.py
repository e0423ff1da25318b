"""Tests of the installed package as a whole."""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polphase
from polphase import dsp, fringes, polarimetry

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


# ---------------------------------------------------------------------------
# working set, read off tracemalloc, which sees numpy's buffers

#: one row block of float64
BLOCK_BYTES = dsp._BLOCK * 8
#: room for the grid bytes the terms cache compares (32 KiB at 4096 points), a
#: generator's state and numpy's small temporaries; a full-size temporary is 0.6-2.3 MiB here
SLACK_BYTES = BLOCK_BYTES // 2


def _peak_traced_bytes(call) -> int:
    """Peak bytes allocated by a second call(), the first having filled the caches."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_the_image_and_scan_kernels_hold_their_output_and_one_row_block(tmp_path):
    img = fringes.generate(0.5, 0.4, 0.25, noise_sigma=0.02, seed=3)
    etas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    stack = polarimetry.polarimetric_sweep(0.3, etas, 2 * np.pi, 4096, 0.01, 4)
    calls = {  # each call's output bytes and the call
        "generate": (480 * 640 * 8, lambda: fringes.generate(0.5, 0.4, 0.25, noise_sigma=0.02, seed=3)),
        "save_interferogram": (480 * 640 * 2, lambda: fringes.save_interferogram(img, tmp_path / "img.pgm")),
        "polarimetric_sweep": (64 * 4096 * 8,
                               lambda: polarimetry.polarimetric_sweep(0.3, etas, 2 * np.pi, 4096, 0.01, 4)),
        "sweep_extrema": (2 * 64 * 8, lambda: polarimetry.sweep_extrema(stack)),
    }
    beyond_output = {name: _peak_traced_bytes(call) - output for name, (output, call) in calls.items()}
    assert {name: peak for name, peak in beyond_output.items() if peak > BLOCK_BYTES + SLACK_BYTES} == {}
