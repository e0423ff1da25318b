"""Tests of the installed package as a whole."""

import os
import subprocess
import sys
from pathlib import Path

import polphase


def test_import_needs_only_numpy():
    # scipy is a test-only dependency: importing the library must not load it
    src = Path(polphase.__file__).resolve().parents[1]
    code = "import sys, polphase; print(polphase.__file__); print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    path, loaded = out.stdout.split()
    assert Path(path).resolve().is_relative_to(src)
    assert loaded == "False"
